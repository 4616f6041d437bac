// Compares how different estimators change the optimizer's plan for one
// query — the paper's central experiment in miniature. For each method the
// example prints the chosen join order/operators, the P-Error (plan cost
// under true cardinalities relative to the optimal plan) and the measured
// execution time, demonstrating O5/O6: estimation quality matters through
// the plan it produces, not on its own.
//
// Build & run:  ./build/examples/compare_estimators

#include <cstdio>

#include "cardest/registry.h"
#include "common/str_util.h"
#include "datagen/stats_gen.h"
#include "exec/executor.h"
#include "exec/true_card.h"
#include "optimizer/optimizer.h"
#include "query/parser.h"

int main() {
  using namespace cardbench;

  StatsGenConfig config;
  config.scale = 0.3;
  auto db = GenerateStatsDatabase(config);
  TrueCardService truecard(*db);
  Optimizer optimizer(*db);

  // A 5-way join whose intermediate sizes differ wildly between orders.
  auto query = ParseSql(
      "SELECT COUNT(*) FROM users, posts, comments, votes, badges "
      "WHERE users.Id = posts.OwnerUserId AND posts.Id = comments.PostId "
      "AND posts.Id = votes.PostId AND users.Id = badges.UserId "
      "AND posts.Score >= 3 AND votes.VoteTypeId = 2;");
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return 1;
  }
  std::printf("query: %s\n\n", query->ToSql().c_str());

  const QueryGraph graph(*query, *db);
  auto true_cards = truecard.AllSubplanCards(graph);
  if (!true_cards.ok()) {
    std::fprintf(stderr, "true cards failed\n");
    return 1;
  }

  // Denominator of P-Error: the true-cardinality plan's cost.
  EstimatorConfig fast;
  fast.fast = true;
  auto oracle = MakeEstimator("TrueCard", *db, truecard, nullptr, fast);
  auto oracle_plan = optimizer.Plan(*query, **oracle);
  const double best_cost =
      optimizer.RecostWithCards(*oracle_plan->plan, *true_cards);

  Executor executor(*db);
  std::printf("%-12s %10s %10s %10s   plan summary\n", "method", "P-Error",
              "exec", "est(root)");
  for (const char* name :
       {"TrueCard", "PostgreSQL", "BayesCard", "DeepDB", "FLAT", "UniSample",
        "WJSample", "PessEst", "MultiHist"}) {
    auto est = MakeEstimator(name, *db, truecard, nullptr, fast);
    if (!est.ok()) continue;
    auto plan = optimizer.Plan(*query, **est);
    if (!plan.ok()) continue;
    const double cost =
        optimizer.RecostWithCards(*plan->plan, *true_cards);
    auto exec = executor.ExecuteCount(*plan->plan);
    // Render the join order as a compact left-deep-ish summary: the root
    // join method plus the table order of the leaves.
    std::string summary = JoinMethodName(plan->plan->join_method);
    std::printf("%-12s %10.3f %10s %10s   root=%s\n", name, cost / best_cost,
                exec.ok() ? FormatDuration(exec->elapsed_seconds).c_str()
                          : "err",
                FormatCount(plan->injected_cards.at(query->FullMask())).c_str(),
                summary.c_str());
  }
  std::printf("\ntrue final cardinality: %s\n",
              FormatCount(true_cards->at(query->FullMask())).c_str());
  std::printf("\nfull plan under TrueCard:\n%s\n",
              oracle_plan->plan->Explain(*db).c_str());
  return 0;
}
