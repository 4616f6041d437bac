#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "cardest/query_features.h"
#include "datagen/stats_gen.h"
#include "query/parser.h"
#include "query/query_graph.h"

namespace cardbench {
namespace {

class QueryFeaturesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    StatsGenConfig config;
    config.scale = 0.02;
    db_ = GenerateStatsDatabase(config).release();
    featurizer_ = new QueryFeaturizer(*db_);
  }
  static void TearDownTestSuite() {
    delete featurizer_;
    delete db_;
  }

  static Query Parse(const std::string& sql) {
    auto q = ParseSql(sql);
    EXPECT_TRUE(q.ok());
    return *q;
  }

  // Whole-query features: the query's compiled graph at the full mask.
  static std::vector<double> Flat(const Query& q) {
    const QueryGraph graph(q, *db_);
    const FlatFeaturePlan plan(*featurizer_, graph);
    std::vector<double> features(plan.dim());
    plan.FillRow(graph, graph.full_mask(), features.data());
    return features;
  }
  // MSCN's set-module inputs for the sub-plans `masks` of the query's graph
  // (none: the full mask, as training featurizes it).
  static QueryFeaturizer::MscnSets Mscn(const Query& q,
                                        std::vector<uint64_t> masks = {}) {
    const QueryGraph graph(q, *db_);
    if (masks.empty()) masks.push_back(graph.full_mask());
    return featurizer_->MscnElements(graph, masks);
  }

  static Database* db_;
  static QueryFeaturizer* featurizer_;
};

Database* QueryFeaturesTest::db_ = nullptr;
QueryFeaturizer* QueryFeaturesTest::featurizer_ = nullptr;

TEST_F(QueryFeaturesTest, FlatDimensionsAreConsistent) {
  const Query q = Parse(
      "SELECT COUNT(*) FROM users, badges WHERE users.Id = badges.UserId AND "
      "users.Reputation >= 10;");
  const auto features = Flat(q);
  EXPECT_EQ(features.size(), featurizer_->flat_dim());
  // Different query, same dimensionality.
  const Query q2 = Parse("SELECT COUNT(*) FROM posts;");
  EXPECT_EQ(Flat(q2).size(), featurizer_->flat_dim());
}

TEST_F(QueryFeaturesTest, TableAndJoinOneHotsAreSet) {
  const Query q = Parse(
      "SELECT COUNT(*) FROM users, badges WHERE users.Id = badges.UserId;");
  const auto with_join = Flat(q);
  const Query single = Parse("SELECT COUNT(*) FROM users;");
  const auto without = Flat(single);
  double join_diff = 0;
  for (size_t i = 0; i < with_join.size(); ++i) {
    join_diff += std::abs(with_join[i] - without[i]);
  }
  EXPECT_GT(join_diff, 1.5);  // badges one-hot + join one-hot differ
}

TEST_F(QueryFeaturesTest, PredicateRangesAreNormalized) {
  const Query q = Parse(
      "SELECT COUNT(*) FROM users WHERE users.Reputation >= 10 AND "
      "users.Reputation <= 100;");
  const auto features = Flat(q);
  for (double v : features) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST_F(QueryFeaturesTest, MscnSetsHaveOneElementPerItem) {
  const Query q = Parse(
      "SELECT COUNT(*) FROM users, posts, comments WHERE users.Id = "
      "posts.OwnerUserId AND posts.Id = comments.PostId AND posts.Score >= 3 "
      "AND users.Views >= 1;");
  const auto sets = Mscn(q);
  EXPECT_EQ(sets.tables.x.rows(), 3u);
  EXPECT_EQ(sets.joins.x.rows(), 2u);
  EXPECT_EQ(sets.predicates.x.rows(), 2u);
  EXPECT_EQ(sets.tables.RowsOf(0).size(), 3u);
  EXPECT_EQ(sets.joins.RowsOf(0).size(), 2u);
  EXPECT_EQ(sets.predicates.RowsOf(0).size(), 2u);
  EXPECT_EQ(sets.tables.x.cols(), featurizer_->table_element_dim());
  EXPECT_EQ(sets.joins.x.cols(), featurizer_->join_element_dim());
  EXPECT_EQ(sets.predicates.x.cols(), featurizer_->predicate_element_dim());
}

TEST_F(QueryFeaturesTest, EmptySetsGetZeroPlaceholder) {
  const auto is_zero = [](const Matrix& x, size_t row) {
    return std::all_of(x.Row(row), x.Row(row) + x.cols(),
                       [](double v) { return v == 0.0; });
  };
  const auto sets = Mscn(Parse("SELECT COUNT(*) FROM users;"));
  ASSERT_EQ(sets.joins.x.rows(), 1u);
  ASSERT_EQ(sets.predicates.x.rows(), 1u);
  EXPECT_TRUE(is_zero(sets.joins.x, 0));
  EXPECT_TRUE(is_zero(sets.predicates.x, 0));
  EXPECT_EQ(sets.joins.RowsOf(0).size(), 1u);
  EXPECT_EQ(sets.predicates.RowsOf(0).size(), 1u);

  // Over several sub-plans, the zero row is appended only when one of them
  // has an empty set, and only that one pools it.
  const Query join = Parse(
      "SELECT COUNT(*) FROM users, posts WHERE users.Id = posts.OwnerUserId "
      "AND posts.Score >= 3;");
  const auto both = Mscn(join, {0b11});
  EXPECT_EQ(both.joins.x.rows(), 1u);
  EXPECT_FALSE(is_zero(both.joins.x, 0));
  const auto split = Mscn(join, {0b01, 0b11});
  ASSERT_EQ(split.joins.x.rows(), 2u);
  EXPECT_TRUE(is_zero(split.joins.x, 1));
  EXPECT_EQ(std::vector<uint32_t>(split.joins.RowsOf(0).begin(),
                                  split.joins.RowsOf(0).end()),
            std::vector<uint32_t>{1});
  EXPECT_EQ(std::vector<uint32_t>(split.joins.RowsOf(1).begin(),
                                  split.joins.RowsOf(1).end()),
            std::vector<uint32_t>{0});
}

TEST_F(QueryFeaturesTest, BitmapReactsToPredicateSelectivity) {
  // MSCN's signature feature: the per-table sample bitmap shrinks as the
  // predicates become more selective.
  const Query loose = Parse(
      "SELECT COUNT(*) FROM users WHERE users.Reputation >= 1;");
  const Query tight = Parse(
      "SELECT COUNT(*) FROM users WHERE users.Reputation >= 100000000;");
  auto count_bits = [&](const Query& q) {
    const auto sets = Mscn(q);
    const double* row = sets.tables.x.Row(0);
    return std::accumulate(row, row + sets.tables.x.cols(), 0.0);
  };
  EXPECT_GT(count_bits(loose), count_bits(tight));
  // The impossible predicate zeroes the whole bitmap (only the table
  // one-hot remains).
  EXPECT_LE(count_bits(tight), 1.0 + 1e-9);
}

}  // namespace
}  // namespace cardbench
