#include "query/query_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <thread>
#include <vector>

#include "common/str_util.h"
#include "datagen/stats_gen.h"
#include "query/parser.h"

namespace cardbench {
namespace {

class QueryGraphTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    StatsGenConfig config;
    config.scale = 0.05;
    db_ = GenerateStatsDatabase(config).release();
  }
  static void TearDownTestSuite() { delete db_; }

  static Query Parse(const std::string& sql) {
    auto q = ParseSql(sql);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return *q;
  }

  static Database* db_;
};

Database* QueryGraphTest::db_ = nullptr;

const char* kFourWayQuery =
    "SELECT COUNT(*) FROM users, posts, comments, badges WHERE "
    "users.Id = posts.OwnerUserId AND posts.Id = comments.PostId AND "
    "users.Id = badges.UserId AND posts.Score >= 5 AND users.Reputation >= 30;";

TEST_F(QueryGraphTest, TableIdsAreDatabaseOrderColumnIdsResolve) {
  const Query q = Parse(kFourWayQuery);
  const QueryGraph graph(q, *db_);

  ASSERT_EQ(graph.num_tables(), q.tables.size());
  const auto& names = db_->table_names();
  for (size_t local = 0; local < graph.num_tables(); ++local) {
    const auto& info = graph.table(local);
    EXPECT_EQ(info.name, q.tables[local]);
    ASSERT_GE(info.table_id, 0);
    ASSERT_LT(static_cast<size_t>(info.table_id), names.size());
    EXPECT_EQ(names[info.table_id], info.name);
    EXPECT_EQ(info.table, db_->FindTable(info.name));
    ASSERT_EQ(info.preds.size(), info.compiled.size());
    for (size_t p = 0; p < info.preds.size(); ++p) {
      EXPECT_EQ(static_cast<size_t>(info.compiled[p].column_id),
                info.table->ColumnIndexOrDie(info.preds[p].column));
    }
  }
  for (const auto& pred : graph.predicates()) {
    ASSERT_NE(pred.column, nullptr);
    EXPECT_EQ(static_cast<size_t>(pred.column_id),
              graph.table(pred.local_table)
                  .table->ColumnIndexOrDie(pred.pred.column));
  }
}

TEST_F(QueryGraphTest, EdgesAndAdjacencyAgree) {
  const Query q = Parse(kFourWayQuery);
  const QueryGraph graph(q, *db_);

  ASSERT_EQ(graph.edges().size(), q.joins.size());
  uint64_t from_edges = 0;
  for (const auto& edge : graph.edges()) {
    EXPECT_EQ(edge.mask, (uint64_t{1} << edge.left_local) |
                             (uint64_t{1} << edge.right_local));
    // Each endpoint's adjacency mask contains the opposite endpoint.
    EXPECT_TRUE(graph.table(edge.left_local).adjacency &
                (uint64_t{1} << edge.right_local));
    EXPECT_TRUE(graph.table(edge.right_local).adjacency &
                (uint64_t{1} << edge.left_local));
    // `canonical` is the endpoint-sorted "a.b=c.d" spelling; both
    // orientations of the original edge produce it.
    const std::string lhs =
        edge.edge->left_table + "." + edge.edge->left_column;
    const std::string rhs =
        edge.edge->right_table + "." + edge.edge->right_column;
    EXPECT_EQ(edge.canonical,
              lhs < rhs ? lhs + "=" + rhs : rhs + "=" + lhs);
    from_edges |= edge.mask;
  }
  EXPECT_EQ(from_edges, graph.full_mask());

  // AdjacencyOf(set) is the union of the members' adjacency masks, and a
  // split has a connecting edge iff the adjacency pre-check passes.
  for (uint64_t mask = 1; mask <= graph.full_mask(); ++mask) {
    uint64_t expect = 0;
    for (uint64_t rest = mask; rest != 0; rest &= rest - 1) {
      expect |= graph.table(std::countr_zero(rest)).adjacency;
    }
    EXPECT_EQ(graph.AdjacencyOf(mask), expect);
  }
}

TEST_F(QueryGraphTest, ConnectedSubsetsMatchLegacyEnumeration) {
  const Query q = Parse(kFourWayQuery);
  const QueryGraph graph(q, *db_);

  EXPECT_EQ(graph.connected_subsets(), EnumerateConnectedSubsets(q));
  for (uint64_t mask : graph.connected_subsets()) {
    EXPECT_TRUE(graph.IsConnected(mask));
  }
  // users(0) and comments(2) only touch through posts(1): dropping posts
  // disconnects them.
  EXPECT_FALSE(graph.IsConnected((uint64_t{1} << 0) | (uint64_t{1} << 2)));
}

TEST_F(QueryGraphTest, InducedSubplansAreByteIdenticalToLegacy) {
  const Query q = Parse(kFourWayQuery);
  const QueryGraph graph(q, *db_);

  for (uint64_t mask : graph.connected_subsets()) {
    const Query legacy = q.Induced(mask);
    EXPECT_EQ(graph.CanonicalKey(mask), legacy.CanonicalKey());
  }
}

TEST_F(QueryGraphTest, FirstCanonicalKeyCallsRaceSafely) {
  // The keys are built by whichever thread asks first; threads that ask at
  // the same moment on a fresh graph must all see every key, each equal to
  // the induced sub-query's (TSAN checks the build itself).
  const Query q = Parse(kFourWayQuery);
  const QueryGraph graph(q, *db_);
  const std::vector<uint64_t>& masks = graph.connected_subsets();
  constexpr size_t kThreads = 4;
  std::vector<std::vector<std::string>> seen(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts at a different mask.
      for (size_t i = 0; i < masks.size(); ++i) {
        seen[t].push_back(graph.CanonicalKey(masks[(i + t) % masks.size()]));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(seen[t].size(), masks.size());
    for (size_t i = 0; i < masks.size(); ++i) {
      const uint64_t mask = masks[(i + t) % masks.size()];
      EXPECT_EQ(seen[t][i], q.Induced(mask).CanonicalKey());
    }
  }
}

TEST_F(QueryGraphTest, FingerprintIsCanonicalKeyHash) {
  const Query q = Parse(kFourWayQuery);
  const QueryGraph graph(q, *db_);
  EXPECT_EQ(graph.fingerprint(), Fnv1aHash(q.CanonicalKey()));

  // Reordered FROM/WHERE clauses canonicalize identically, so requests for
  // the same logical query share service cache entries whatever their
  // clause order.
  const Query permuted = Parse(
      "SELECT COUNT(*) FROM badges, comments, posts, users WHERE "
      "users.Reputation >= 30 AND users.Id = badges.UserId AND "
      "posts.Id = comments.PostId AND posts.Score >= 5 AND "
      "users.Id = posts.OwnerUserId;");
  const QueryGraph permuted_graph(permuted, *db_);
  EXPECT_EQ(permuted_graph.fingerprint(), graph.fingerprint());

  const Query other =
      Parse("SELECT COUNT(*) FROM users WHERE users.Reputation >= 100;");
  const QueryGraph other_graph(other, *db_);
  EXPECT_NE(other_graph.fingerprint(), graph.fingerprint());
}

TEST_F(QueryGraphTest, PredGroupsSortedByColumnWithQueryOrderWithin) {
  const Query q = Parse(
      "SELECT COUNT(*) FROM posts WHERE posts.Score >= 5 AND "
      "posts.ViewCount <= 900 AND posts.Score <= 50;");
  const QueryGraph graph(q, *db_);

  const auto& info = graph.table(0);
  ASSERT_EQ(info.pred_groups.size(), 2u);
  EXPECT_TRUE(std::is_sorted(
      info.pred_groups.begin(), info.pred_groups.end(),
      [](const auto& a, const auto& b) { return a.column < b.column; }));
  const auto& score = *std::find_if(
      info.pred_groups.begin(), info.pred_groups.end(),
      [](const auto& g) { return g.column == "Score"; });
  ASSERT_EQ(score.preds.size(), 2u);
  EXPECT_EQ(score.preds[0].op, CompareOp::kGe);
  EXPECT_EQ(score.preds[1].op, CompareOp::kLe);
  EXPECT_EQ(static_cast<size_t>(score.column_id),
            info.table->ColumnIndexOrDie("Score"));
  EXPECT_EQ(info.compiled.size(), info.preds.size());
}

TEST_F(QueryGraphTest, SingleTableQueryHasTrivialGraph) {
  const Query q =
      Parse("SELECT COUNT(*) FROM users WHERE users.Reputation >= 100;");
  const QueryGraph graph(q, *db_);
  EXPECT_EQ(graph.num_tables(), 1u);
  EXPECT_EQ(graph.full_mask(), 1u);
  EXPECT_TRUE(graph.edges().empty());
  EXPECT_EQ(graph.table(0).adjacency, 0u);
  EXPECT_EQ(graph.connected_subsets(), std::vector<uint64_t>{1});
  EXPECT_TRUE(graph.IsConnected(1));
}

}  // namespace
}  // namespace cardbench
