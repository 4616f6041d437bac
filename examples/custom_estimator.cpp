// Shows how to plug a custom cardinality estimator into the benchmark
// platform: implement the CardinalityEstimator interface (one method,
// EstimateCard over a compiled QueryGraph and a sub-plan mask), hand it to
// the optimizer, and measure it against the built-in baselines. The toy
// estimator below combines exact single-table histograms with a damped
// join correction — a few dozen lines, yet it can be evaluated with the
// full Q-Error / P-Error / end-to-end machinery like any paper method.
//
// Build & run:  ./build/examples/custom_estimator

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "cardest/postgres_est.h"
#include "common/str_util.h"
#include "datagen/stats_gen.h"
#include "exec/true_card.h"
#include "metrics/metrics.h"
#include "optimizer/optimizer.h"
#include "query/parser.h"
#include "workload/workload_gen.h"

namespace {

using namespace cardbench;

/// A toy estimator: PostgreSQL's single-table estimates plus a damping
/// exponent on the join-uniformity correction (joins shrink estimates less
/// aggressively than pure independence suggests).
class DampedJoinEstimator : public CardinalityEstimator {
 public:
  // Passing the database lets callers estimate a whole Query too: the base
  // class compiles it and calls the graph overload below.
  DampedJoinEstimator(const Database& db, double damping)
      : CardinalityEstimator(db), base_(db), damping_(damping) {}

  std::string name() const override { return "DampedJoin"; }

  // `mask` selects the sub-plan's tables (bit i = graph.table(i)); the graph
  // holds them, their predicates and the join edges, resolved once.
  double EstimateCard(const QueryGraph& graph, uint64_t mask) const override {
    double card = 1.0;
    for (uint64_t rest = mask; rest != 0; rest &= rest - 1) {
      card *= base_.EstimateCard(graph, rest & ~(rest - 1));  // one table
    }
    for (const QueryGraph::EdgeInfo& edge : graph.edges()) {
      if ((edge.mask & mask) != edge.mask) continue;  // not in the sub-plan
      const double ndv = std::max<double>(
          {1.0,
           static_cast<double>(
               edge.left_table->GetIndex(edge.left_column_id).num_distinct()),
           static_cast<double>(edge.right_table->GetIndex(edge.right_column_id)
                                   .num_distinct())});
      card /= std::pow(ndv, damping_);  // damping < 1: milder shrinkage
    }
    return std::max(card, 1.0);
  }

 private:
  PostgresEstimator base_;
  double damping_;
};

}  // namespace

int main() {
  StatsGenConfig config;
  config.scale = 0.2;
  auto db = GenerateStatsDatabase(config);
  TrueCardService truecard(*db);
  Optimizer optimizer(*db);

  // A small random evaluation workload with exact cardinalities.
  auto workload = GenerateTrainingQueries(*db, truecard, 150, 9);
  if (!workload.ok()) {
    std::fprintf(stderr, "workload failed\n");
    return 1;
  }

  PostgresEstimator baseline(*db);
  DampedJoinEstimator custom(*db, 0.9);

  for (CardinalityEstimator* est :
       std::vector<CardinalityEstimator*>{&baseline, &custom}) {
    std::vector<double> qerrors;
    for (const auto& tq : *workload) {
      qerrors.push_back(QError(est->EstimateCard(tq.query), tq.cardinality));
    }
    const Percentiles p = ComputePercentiles(std::move(qerrors));
    std::printf("%-12s  Q-Error p50=%-8s p90=%-8s p99=%s\n",
                est->name().c_str(), FormatCount(p.p50).c_str(),
                FormatCount(p.p90).c_str(), FormatCount(p.p99).c_str());
  }

  // The estimator also drops straight into the optimizer.
  auto query = ParseSql(
      "SELECT COUNT(*) FROM users, posts, comments WHERE users.Id = "
      "posts.OwnerUserId AND posts.Id = comments.PostId AND posts.Score >= "
      "5;");
  auto plan = optimizer.Plan(*query, custom);
  if (plan.ok()) {
    std::printf("\nplan chosen with the custom estimator:\n%s\n",
                plan->plan->Explain(*db).c_str());
  }
  return 0;
}
