#ifndef CARDBENCH_METRICS_PERROR_H_
#define CARDBENCH_METRICS_PERROR_H_

#include <unordered_map>

#include "cardest/estimator.h"
#include "common/status.h"
#include "optimizer/optimizer.h"
#include "query/query_graph.h"

namespace cardbench {

/// The paper's P-Error metric (§7.2):
///
///   P-Error = PPC(P(C^E), C^T) / PPC(P(C^T), C^T)
///
/// where P(C) is the plan the optimizer picks given cardinalities C, and
/// PPC costs a plan under a fixed set of cardinalities. The optimizer's
/// cost model is the PPC function; true sub-plan cardinalities C^T are
/// precomputed once per query (the paper stores them and evaluates P-Error
/// "instantaneously" via pg_hint_plan).
///
/// True cardinalities are served directly by sub-plan bitmask against the
/// query's compiled QueryGraph — a missing mask is a hard error (every
/// connected sub-plan must have been executed), never a silent fallback.
class PErrorCalculator {
 public:
  /// `true_cards`: exact cardinality of every connected sub-plan of the
  /// compiled query `graph`, keyed by table-subset bitmask. `graph` must
  /// outlive the calculator.
  PErrorCalculator(const Optimizer& optimizer, const QueryGraph& graph,
                   std::unordered_map<uint64_t, double> true_cards);

  /// Denominator PPC(P(C^T), C^T), computed once at construction.
  double true_plan_cost() const { return true_plan_cost_; }

  /// P-Error of the plan `estimator` induces for the query.
  Result<double> Evaluate(const CardinalityEstimator& estimator) const;

  /// P-Error of an already-built plan (avoids re-planning when the caller
  /// holds a PlanResult).
  double EvaluatePlan(const PlanNode& plan) const;

 private:
  const Optimizer& optimizer_;
  const QueryGraph& graph_;
  std::unordered_map<uint64_t, double> true_cards_;
  double true_plan_cost_ = 0.0;
};

}  // namespace cardbench

#endif  // CARDBENCH_METRICS_PERROR_H_
