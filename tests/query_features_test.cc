#include <gtest/gtest.h>

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
    return featurizer_->FlatFeatures(graph, graph.full_mask());
  }
  static QueryFeaturizer::SetFeatures Mscn(const Query& q) {
    const QueryGraph graph(q, *db_);
    return featurizer_->MscnFeatures(graph, graph.full_mask());
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
  EXPECT_EQ(sets.tables.size(), 3u);
  EXPECT_EQ(sets.joins.size(), 2u);
  EXPECT_EQ(sets.predicates.size(), 2u);
  for (const auto& e : sets.tables) {
    EXPECT_EQ(e.size(), featurizer_->table_element_dim());
  }
  for (const auto& e : sets.joins) {
    EXPECT_EQ(e.size(), featurizer_->join_element_dim());
  }
  for (const auto& e : sets.predicates) {
    EXPECT_EQ(e.size(), featurizer_->predicate_element_dim());
  }
}

TEST_F(QueryFeaturesTest, EmptySetsGetZeroPlaceholder) {
  const Query q = Parse("SELECT COUNT(*) FROM users;");
  const auto sets = Mscn(q);
  ASSERT_EQ(sets.joins.size(), 1u);
  ASSERT_EQ(sets.predicates.size(), 1u);
  for (double v : sets.joins[0]) EXPECT_DOUBLE_EQ(v, 0.0);
  for (double v : sets.predicates[0]) EXPECT_DOUBLE_EQ(v, 0.0);
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
    double bits = 0;
    for (double v : sets.tables[0]) bits += v;
    return bits;
  };
  EXPECT_GT(count_bits(loose), count_bits(tight));
  // The impossible predicate zeroes the whole bitmap (only the table
  // one-hot remains).
  EXPECT_LE(count_bits(tight), 1.0 + 1e-9);
}

}  // namespace
}  // namespace cardbench
