#ifndef CARDBENCH_TOOLS_PLANNER_GOLDEN_H_
#define CARDBENCH_TOOLS_PLANNER_GOLDEN_H_

// The planner goldens (tests/golden/planner_golden.txt): frozen per-sub-plan
// estimates and plan fingerprints for every estimator of the zoo over a
// small fixed STATS-CEB environment. The generator (tools/planner_golden.cc)
// prints them and planner_golden_test compares against them, both through
// this header, so the two share one line format:
//
//   card <estimator> <query> <mask> <estimate, %a>
//   plan <estimator> <query> <FNV-1a of Explain(), %016llx> <cost, %a>
//        <P-Error, %a>                                   (one line)
//
// Spaces in a query name become '_', so fields split on spaces. %a prints
// a double's exact bits, so an equal line is a bit-identical estimate,
// cost or P-Error.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "cardest/estimator.h"
#include "common/status.h"
#include "common/str_util.h"
#include "harness/bench_env.h"
#include "metrics/perror.h"

namespace cardbench::golden {

/// The environment the goldens pin: STATS at scale 0.05, the first 8
/// STATS-CEB queries, 100 training queries, fast mode. `cache_dir` only
/// holds the true-cardinality cache (it changes no value).
inline BenchFlags Flags(const std::string& cache_dir) {
  BenchFlags flags;
  flags.fast = true;
  flags.scale = 0.05;
  flags.max_queries = 8;
  flags.exec_timeout = 10.0;
  flags.cache_dir = cache_dir;
  flags.training_queries = 100;
  return flags;
}

inline std::string QueryField(std::string query) {
  std::replace(query.begin(), query.end(), ' ', '_');
  return query;
}

inline std::string CardLine(const std::string& estimator,
                            const std::string& query, uint64_t mask,
                            double card) {
  return StrFormat("card %s %s %llu %a", estimator.c_str(),
                   QueryField(query).c_str(),
                   static_cast<unsigned long long>(mask), card);
}

inline std::string PlanLine(const Database& db, const std::string& estimator,
                            const std::string& query, const PlanNode& plan,
                            double p_error) {
  return StrFormat(
      "plan %s %s %016llx %a %a", estimator.c_str(),
      QueryField(query).c_str(),
      static_cast<unsigned long long>(Fnv1aHash(plan.Explain(db))),
      plan.estimated_cost, p_error);
}

/// Every golden line of `estimator` over `env`'s workload, in query order:
/// one EstimateCards batch over each query's connected sub-plans, then the
/// plan Optimizer::Plan(graph) picks and its P-Error.
inline Result<std::vector<std::string>> Lines(
    const BenchEnv& env, const CardinalityEstimator& estimator) {
  std::vector<std::string> lines;
  const std::string name = estimator.name();
  for (const BenchEnv::QueryContext& ctx : env.query_contexts()) {
    const QueryGraph& graph = *ctx.graph;
    const std::vector<uint64_t>& masks = graph.connected_subsets();
    const std::vector<double> cards = estimator.EstimateCards(graph, masks);
    for (size_t i = 0; i < masks.size(); ++i) {
      lines.push_back(CardLine(name, ctx.query->name, masks[i], cards[i]));
    }
    CARDBENCH_ASSIGN_OR_RETURN(PlanResult plan,
                               env.optimizer().Plan(graph, estimator));
    const PErrorCalculator perror(env.optimizer(), graph, ctx.true_cards);
    lines.push_back(PlanLine(env.optimizer().db(), name, ctx.query->name,
                             *plan.plan, perror.EvaluatePlan(*plan.plan)));
  }
  return lines;
}

}  // namespace cardbench::golden

#endif  // CARDBENCH_TOOLS_PLANNER_GOLDEN_H_
