// Quickstart: the full cardbench pipeline in ~60 lines.
//
//   1. generate the synthetic STATS-like database,
//   2. parse a SQL join query,
//   3. build a cardinality estimator (the PostgreSQL-style baseline),
//   4. plan the query with the cost-based optimizer (which injects the
//      estimator's cardinalities for every sub-plan, exactly like the
//      paper's modified `calc_joinrel_size_estimate`),
//   5. execute the plan and compare against the exact count.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "cardest/postgres_est.h"
#include "common/str_util.h"
#include "datagen/stats_gen.h"
#include "exec/executor.h"
#include "exec/true_card.h"
#include "optimizer/optimizer.h"
#include "query/parser.h"

int main() {
  using namespace cardbench;

  // 1. A STATS-like database (8 tables, 12 join relations, skewed and
  //    correlated attributes). scale=0.2 keeps this instant.
  StatsGenConfig config;
  config.scale = 0.2;
  auto db = GenerateStatsDatabase(config);

  // 2. A three-way join with filters.
  auto query = ParseSql(
      "SELECT COUNT(*) FROM users, posts, comments "
      "WHERE users.Id = posts.OwnerUserId AND posts.Id = comments.PostId "
      "AND posts.Score >= 10 AND users.Reputation >= 50;");
  if (!query.ok() || !ValidateQuery(*query, *db).ok()) {
    std::fprintf(stderr, "query error: %s\n", query.status().ToString().c_str());
    return 1;
  }
  std::printf("query: %s\n\n", query->ToSql().c_str());

  // 3. The PostgreSQL-style estimator (1-D histograms + independence).
  PostgresEstimator estimator(*db);

  // 4. Cost-based planning with injected cardinalities.
  Optimizer optimizer(*db);
  auto plan = optimizer.Plan(*query, estimator);
  if (!plan.ok()) {
    std::fprintf(stderr, "planning failed: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }
  std::printf("chosen plan (estimates shown per node):\n%s\n",
              plan->plan->Explain(*db).c_str());
  std::printf("planning took %s (%zu sub-plan estimates, %s inside the "
              "estimator)\n\n",
              FormatDuration(plan->planning_seconds).c_str(),
              plan->num_estimates,
              FormatDuration(plan->estimation_seconds).c_str());

  // 5. Execute and check against the exact answer.
  Executor executor(*db);
  auto result = executor.ExecuteCount(*plan->plan);
  TrueCardService truth(*db);
  auto exact = truth.Card(*query);
  if (!result.ok() || !exact.ok()) {
    std::fprintf(stderr, "execution failed\n");
    return 1;
  }
  std::printf("COUNT(*) = %llu (exact: %.0f) in %s\n",
              static_cast<unsigned long long>(result->count), *exact,
              FormatDuration(result->elapsed_seconds).c_str());
  std::printf("estimator's final estimate was %.0f (Q-Error %.2f)\n",
              plan->injected_cards.at(query->FullMask()),
              std::max(plan->injected_cards.at(query->FullMask()) / *exact,
                       *exact / plan->injected_cards.at(query->FullMask())));
  return 0;
}
