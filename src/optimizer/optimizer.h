#ifndef CARDBENCH_OPTIMIZER_OPTIMIZER_H_
#define CARDBENCH_OPTIMIZER_OPTIMIZER_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "cardest/estimator.h"
#include "common/status.h"
#include "exec/plan.h"
#include "optimizer/cost_model.h"
#include "query/query.h"
#include "query/query_graph.h"
#include "storage/catalog.h"

namespace cardbench {

/// Output of planning one query.
struct PlanResult {
  std::unique_ptr<PlanNode> plan;
  /// Total planning wall time (join enumeration + cardinality estimation),
  /// the paper's "plan time".
  double planning_seconds = 0.0;
  /// Portion of planning_seconds spent inside EstimateCard calls (the
  /// estimator's inference latency, §6.1).
  double estimation_seconds = 0.0;
  /// Number of sub-plan queries estimated.
  size_t num_estimates = 0;
  /// The injected cardinalities, keyed by table-subset bitmask. Used by the
  /// Q-Error analysis without re-invoking the estimator.
  std::unordered_map<uint64_t, double> injected_cards;
};

/// Cost-based query optimizer mirroring PostgreSQL's planner structure:
/// dynamic programming over connected table subsets (join order), physical
/// operator selection per join (hash / merge / index nested loop) and per
/// scan (seq / index), with every sub-plan cardinality obtained from an
/// injected CardinalityEstimator — the paper's evaluation mechanism (§4.2).
class Optimizer {
 public:
  explicit Optimizer(const Database& db, CostModel cost_model = CostModel());

  /// Plans the compiled query using cardinalities from `estimator` — the
  /// primary entry point: sub-plans dispatch as (graph, mask), split
  /// connectivity comes from adjacency bitmasks, and no Induced(mask)
  /// sub-query is ever materialized. Thread-safe: may be called
  /// concurrently from many threads sharing one Optimizer, one graph and
  /// one estimator (see the CardinalityEstimator thread-safety contract).
  Result<PlanResult> Plan(const QueryGraph& graph,
                          const CardinalityEstimator& estimator) const;

  /// Convenience: compiles `query` into a QueryGraph and plans it. The
  /// compile cost is counted in planning_seconds. Callers planning the same
  /// query repeatedly (the service, the harness) should compile once and
  /// use the graph overload.
  Result<PlanResult> Plan(const Query& query,
                          const CardinalityEstimator& estimator) const;

  /// Re-costs an existing plan shape under a different set of sub-plan
  /// cardinalities (bitmask-keyed). This is the PPC function of the P-Error
  /// metric: PPC(P(C_E), C_T) re-costs the estimate-chosen plan with true
  /// cardinalities. Masks absent from `cards` keep the plan's estimates.
  double RecostWithCards(const PlanNode& plan,
                         const std::unordered_map<uint64_t, double>& cards)
      const;

  const CostModel& cost_model() const { return cost_; }
  const Database& db() const { return db_; }

 private:
  /// Distinct-value count of a catalog column, cached under its (table_id,
  /// column_id) pair (PostgreSQL keeps the same statistic in pg_stats; used
  /// for index-scan and index-nested-loop costing). Dies on an id that
  /// names no column.
  double NdvOf(int table_id, int column_id) const;

  const Database& db_;
  CostModel cost_;
  mutable std::mutex ndv_mu_;
  mutable std::unordered_map<uint64_t, double> ndv_cache_;
};

}  // namespace cardbench

#endif  // CARDBENCH_OPTIMIZER_OPTIMIZER_H_
