#include <gtest/gtest.h>

#include "datagen/stats_gen.h"
#include "exec/executor.h"
#include "exec/true_card.h"
#include "query/parser.h"
#include "query/query_graph.h"

namespace cardbench {
namespace {

TEST(ExplainAnalyzeTest, CollectsActualRowsPerNode) {
  StatsGenConfig config;
  config.scale = 0.02;
  auto db = GenerateStatsDatabase(config);
  auto q = ParseSql(
      "SELECT COUNT(*) FROM users, posts, comments WHERE users.Id = "
      "posts.OwnerUserId AND posts.Id = comments.PostId AND posts.Score >= "
      "3;");
  ASSERT_TRUE(q.ok());
  const QueryGraph graph(*q, *db);
  TrueCardService svc(*db);
  auto plan = svc.BuildCountingPlan(graph, graph.full_mask());

  Executor executor(*db);
  auto result = executor.ExecuteCount(*plan, /*analyze=*/true);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->timed_out);

  // The root's actual equals the final count.
  ASSERT_TRUE(result->actual_rows.count(plan->table_mask) > 0);
  EXPECT_DOUBLE_EQ(result->actual_rows.at(plan->table_mask),
                   static_cast<double>(result->count));

  // Every materialized node's actual equals that sub-plan's exact count.
  for (const auto& [mask, rows] : result->actual_rows) {
    auto truth = svc.Card(q->Induced(mask));
    ASSERT_TRUE(truth.ok());
    EXPECT_DOUBLE_EQ(rows, *truth) << "mask " << mask;
  }

  // The rendering shows estimate and actual side by side.
  const std::string text = plan->Explain(*db, &result->actual_rows);
  EXPECT_NE(text.find("actual="), std::string::npos);
  EXPECT_EQ(text.find("actual=?"), std::string::npos);
}

TEST(ExplainAnalyzeTest, WithoutAnalyzeNoRowsAreCollected) {
  StatsGenConfig config;
  config.scale = 0.02;
  auto db = GenerateStatsDatabase(config);
  auto q = ParseSql(
      "SELECT COUNT(*) FROM users, badges WHERE users.Id = badges.UserId;");
  ASSERT_TRUE(q.ok());
  const QueryGraph graph(*q, *db);
  auto plan = TrueCardService(*db).BuildCountingPlan(graph, graph.full_mask());
  auto result = Executor(*db).ExecuteCount(*plan);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->actual_rows.empty());
}

// The exact EXPLAIN and EXPLAIN ANALYZE text of one plan with a filter
// list, an index-nested-loop inner side (which never runs, so its actual
// row count is unknown) and an extra join edge.
TEST(ExplainAnalyzeTest, ExactTextOfFiltersIndexNestLoopAndExtraEdge) {
  StatsGenConfig config;
  config.scale = 0.01;
  auto db = GenerateStatsDatabase(config);
  auto q = ParseSql(
      "SELECT COUNT(*) FROM users, posts WHERE users.Id = posts.OwnerUserId "
      "AND users.Id = posts.LastEditorUserId AND users.Reputation >= 20 AND "
      "users.Views >= 2;");
  ASSERT_TRUE(q.ok());
  const QueryGraph graph(*q, *db);
  auto plan = TrueCardService(*db).BuildCountingPlan(graph, graph.full_mask());
  plan->join_method = JoinMethod::kIndexNestLoop;
  plan->estimated_card = 1234.5;
  plan->estimated_cost = 98765.43;
  plan->left->estimated_card = 321.49;
  plan->left->estimated_cost = 77.25;
  plan->right->estimated_card = 4000;
  plan->right->estimated_cost = 12.05;
  auto result = Executor(*db).ExecuteCount(*plan, /*analyze=*/true);
  ASSERT_TRUE(result.ok());

  EXPECT_EQ(plan->Explain(*db),
            "IndexNestLoop on users.Id = posts.OwnerUserId AND users.Id = "
            "posts.LastEditorUserId  (rows=1234 cost=98765.4)\n"
            "  SeqScan on users  filter: users.Reputation >= 20 AND "
            "users.Views >= 2  (rows=321 cost=77.2)\n"
            "  SeqScan on posts  (rows=4000 cost=12.1)\n");
  EXPECT_EQ(plan->Explain(*db, &result->actual_rows),
            "IndexNestLoop on users.Id = posts.OwnerUserId AND users.Id = "
            "posts.LastEditorUserId  (rows=1234 actual=3 cost=98765.4)\n"
            "  SeqScan on users  filter: users.Reputation >= 20 AND "
            "users.Views >= 2  (rows=321 actual=26 cost=77.2)\n"
            "  SeqScan on posts  (rows=4000 actual=? cost=12.1)\n");
}

}  // namespace
}  // namespace cardbench
