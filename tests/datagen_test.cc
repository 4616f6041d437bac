#include <gtest/gtest.h>

#include <set>
#include <span>

#include "datagen/imdb_gen.h"
#include "datagen/stats_gen.h"
#include "datagen/update_split.h"
#include "storage/stats.h"

namespace cardbench {
namespace {

StatsGenConfig SmallStats() {
  StatsGenConfig config;
  config.scale = 0.1;
  return config;
}

TEST(StatsGenTest, SchemaMatchesPaper) {
  auto db = GenerateStatsDatabase(SmallStats());
  EXPECT_EQ(db->num_tables(), 8u);
  EXPECT_EQ(db->join_relations().size(), 12u);  // Figure 1
  EXPECT_EQ(NumFilterableAttributes(*db), 23u);  // Table 1
  for (const char* name : {"users", "posts", "comments", "badges", "votes",
                           "postHistory", "postLinks", "tags"}) {
    EXPECT_NE(db->FindTable(name), nullptr) << name;
  }
}

TEST(StatsGenTest, DeterministicAcrossRuns) {
  auto a = GenerateStatsDatabase(SmallStats());
  auto b = GenerateStatsDatabase(SmallStats());
  const Table& ta = a->TableOrDie("posts");
  const Table& tb = b->TableOrDie("posts");
  ASSERT_EQ(ta.num_rows(), tb.num_rows());
  for (size_t c = 0; c < ta.num_columns(); ++c) {
    for (size_t r = 0; r < std::min<size_t>(ta.num_rows(), 200); ++r) {
      ASSERT_EQ(ta.column(c).IsValid(r), tb.column(c).IsValid(r));
      if (ta.column(c).IsValid(r)) {
        ASSERT_EQ(ta.column(c).Get(r), tb.column(c).Get(r));
      }
    }
  }
}

TEST(StatsGenTest, SeedChangesData) {
  StatsGenConfig other = SmallStats();
  other.seed = 777;
  auto a = GenerateStatsDatabase(SmallStats());
  auto b = GenerateStatsDatabase(other);
  const Column& ca = a->TableOrDie("users").ColumnByName("Reputation");
  const Column& cb = b->TableOrDie("users").ColumnByName("Reputation");
  size_t differing = 0;
  for (size_t r = 0; r < std::min(ca.size(), cb.size()); ++r) {
    differing += (ca.Get(r) != cb.Get(r));
  }
  EXPECT_GT(differing, ca.size() / 2);
}

TEST(StatsGenTest, ForeignKeysReferenceExistingParents) {
  auto db = GenerateStatsDatabase(SmallStats());
  const size_t n_users = db->TableOrDie("users").num_rows();
  const Column& fk = db->TableOrDie("comments").ColumnByName("UserId");
  for (size_t r = 0; r < fk.size(); ++r) {
    if (!fk.IsValid(r)) continue;
    ASSERT_GE(fk.Get(r), 1);
    ASSERT_LE(fk.Get(r), static_cast<Value>(n_users));
  }
}

TEST(StatsGenTest, ForeignKeyDegreesAreSkewed) {
  auto db = GenerateStatsDatabase(SmallStats());
  const Table& votes = db->TableOrDie("votes");
  const HashIndex& idx = votes.GetIndex(votes.ColumnIndexOrDie("PostId"));
  size_t max_degree = 0;
  idx.ForEachKey([&](Value, std::span<const uint32_t> rows) {
    max_degree = std::max(max_degree, rows.size());
  });
  // Degree skew over the whole key domain (paper §5.1: key values matching
  // zero, one, or hundreds of tuples): the hottest post receives far more
  // votes than the per-post average.
  const double avg_over_all_posts =
      static_cast<double>(idx.num_entries()) /
      static_cast<double>(db->TableOrDie("posts").num_rows());
  EXPECT_GT(static_cast<double>(max_degree), 8.0 * avg_over_all_posts);
  // And some posts receive no votes at all.
  EXPECT_LT(idx.num_distinct(), db->TableOrDie("posts").num_rows());
}

TEST(StatsGenTest, AttributesAreCorrelatedWithinUsers) {
  auto db = GenerateStatsDatabase(SmallStats());
  const Table& users = db->TableOrDie("users");
  const double corr = PearsonCorrelation(users.ColumnByName("Reputation"),
                                         users.ColumnByName("UpVotes"));
  EXPECT_GT(corr, 0.3);
}

TEST(StatsGenTest, ChildDatesFollowParentDates) {
  auto db = GenerateStatsDatabase(SmallStats());
  const Table& posts = db->TableOrDie("posts");
  const Table& users = db->TableOrDie("users");
  const Column& owner = posts.ColumnByName("OwnerUserId");
  const Column& pdate = posts.ColumnByName("CreationDate");
  const Column& udate = users.ColumnByName("CreationDate");
  for (size_t r = 0; r < posts.num_rows(); ++r) {
    if (!owner.IsValid(r)) continue;
    ASSERT_GE(pdate.Get(r), udate.Get(static_cast<size_t>(owner.Get(r) - 1)));
  }
}

TEST(StatsGenTest, ScaleControlsRowCounts) {
  StatsGenConfig big = SmallStats();
  big.scale = 0.2;
  auto small_db = GenerateStatsDatabase(SmallStats());
  auto big_db = GenerateStatsDatabase(big);
  EXPECT_NEAR(static_cast<double>(big_db->TableOrDie("votes").num_rows()),
              2.0 * static_cast<double>(small_db->TableOrDie("votes").num_rows()),
              8.0);
}

TEST(ImdbGenTest, SchemaMatchesPaper) {
  ImdbGenConfig config;
  config.scale = 0.1;
  auto db = GenerateImdbDatabase(config);
  EXPECT_EQ(db->num_tables(), 6u);
  EXPECT_EQ(db->join_relations().size(), 5u);   // star schema
  EXPECT_EQ(NumFilterableAttributes(*db), 8u);  // Table 1
  for (const auto& rel : db->join_relations()) {
    EXPECT_EQ(rel.left_table, "title");  // all joins centered on title
  }
}

TEST(ImdbGenTest, StatsIsMoreSkewedAndCorrelatedThanImdb) {
  // Table 1's headline comparison: STATS has higher average skew and
  // pairwise correlation than the simplified IMDB.
  StatsGenConfig sc;
  sc.scale = 0.1;
  ImdbGenConfig ic;
  ic.scale = 0.05;
  auto stats = GenerateStatsDatabase(sc);
  auto imdb = GenerateImdbDatabase(ic);
  EXPECT_GT(AverageDistributionSkewness(*stats),
            AverageDistributionSkewness(*imdb));
  EXPECT_GT(AveragePairwiseCorrelation(*stats),
            AveragePairwiseCorrelation(*imdb));
}

TEST(UpdateSplitTest, SplitsRoughlyAtFraction) {
  auto db = GenerateStatsDatabase(SmallStats());
  const TimeSplit split = SplitDatabaseByTime(*db, StatsTimestampColumn, 0.5);
  const double total =
      static_cast<double>(split.stale_rows + split.inserted_rows);
  EXPECT_NEAR(static_cast<double>(split.stale_rows) / total, 0.5, 0.05);
}

TEST(UpdateSplitTest, StaleRowsRespectCutoff) {
  auto db = GenerateStatsDatabase(SmallStats());
  const TimeSplit split = SplitDatabaseByTime(*db, StatsTimestampColumn, 0.5);
  const Column& date =
      split.stale->TableOrDie("comments").ColumnByName("CreationDate");
  for (size_t r = 0; r < date.size(); ++r) {
    ASSERT_LE(date.Get(r), split.cutoff);
  }
}

TEST(UpdateSplitTest, ApplyInsertionsRestoresRowCounts) {
  auto db = GenerateStatsDatabase(SmallStats());
  TimeSplit split = SplitDatabaseByTime(*db, StatsTimestampColumn, 0.5);
  ASSERT_TRUE(ApplyInsertions(*split.stale, split.insertions).ok());
  for (const auto& name : db->table_names()) {
    EXPECT_EQ(split.stale->TableOrDie(name).num_rows(),
              db->TableOrDie(name).num_rows())
        << name;
  }
}

TEST(UpdateSplitTest, SchemaAndRelationsCloned) {
  auto db = GenerateStatsDatabase(SmallStats());
  const TimeSplit split = SplitDatabaseByTime(*db, StatsTimestampColumn, 0.5);
  EXPECT_EQ(split.stale->num_tables(), db->num_tables());
  EXPECT_EQ(split.stale->join_relations().size(), db->join_relations().size());
}

}  // namespace
}  // namespace cardbench
