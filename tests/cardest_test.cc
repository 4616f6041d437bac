#include <gtest/gtest.h>

#include <memory>

#include "cardest/fanout_estimator.h"
#include "cardest/multihist_est.h"
#include "cardest/postgres_est.h"
#include "cardest/sampling_est.h"
#include "cardest/spn_model.h"
#include "cardest/truecard_est.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "datagen/stats_gen.h"
#include "datagen/update_split.h"
#include "exec/true_card.h"
#include "query/parser.h"
#include "workload/workload_gen.h"

namespace cardbench {
namespace {

double QError(double estimate, double truth) {
  const double e = std::max(estimate, 1.0);
  const double t = std::max(truth, 1.0);
  return std::max(e / t, t / e);
}

/// Shared fixture: one small STATS-like database plus exact cardinalities.
class CardEstTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    StatsGenConfig config;
    config.scale = 0.05;
    db_ = GenerateStatsDatabase(config).release();
    truecard_ = new TrueCardService(*db_);
  }
  static void TearDownTestSuite() {
    delete truecard_;
    delete db_;
  }

  static Query Parse(const std::string& sql) {
    auto q = ParseSql(sql);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    EXPECT_TRUE(ValidateQuery(*q, *db_).ok());
    return *q;
  }

  static double Truth(const Query& q) {
    auto card = truecard_->Card(q);
    EXPECT_TRUE(card.ok());
    return *card;
  }

  static Database* db_;
  static TrueCardService* truecard_;
};

Database* CardEstTest::db_ = nullptr;
TrueCardService* CardEstTest::truecard_ = nullptr;

const char* kSingleTableQueries[] = {
    "SELECT COUNT(*) FROM users WHERE users.Reputation >= 100;",
    "SELECT COUNT(*) FROM posts WHERE posts.PostTypeId = 1;",
    "SELECT COUNT(*) FROM posts WHERE posts.Score >= 10 AND posts.Score <= 500;",
    "SELECT COUNT(*) FROM votes WHERE votes.VoteTypeId = 2;",
    "SELECT COUNT(*) FROM comments WHERE comments.Score >= 1;",
    "SELECT COUNT(*) FROM badges WHERE badges.Date <= 400000;",
};

const char* kJoinQueries[] = {
    "SELECT COUNT(*) FROM users, badges WHERE users.Id = badges.UserId;",
    "SELECT COUNT(*) FROM posts, comments WHERE posts.Id = comments.PostId;",
    "SELECT COUNT(*) FROM users, posts, comments WHERE users.Id = "
    "posts.OwnerUserId AND posts.Id = comments.PostId;",
};

TEST_F(CardEstTest, TrueCardEstimatorIsExact) {
  TrueCardEstimator est(*truecard_);
  for (const char* sql : kSingleTableQueries) {
    const Query q = Parse(sql);
    EXPECT_DOUBLE_EQ(est.EstimateCard(q), Truth(q)) << sql;
  }
  for (const char* sql : kJoinQueries) {
    const Query q = Parse(sql);
    EXPECT_DOUBLE_EQ(est.EstimateCard(q), Truth(q)) << sql;
  }
}

TEST_F(CardEstTest, InjectedOverridesOneSubplan) {
  TrueCardEstimator base(*truecard_);
  const Query q = Parse(kSingleTableQueries[0]);
  InjectedCardEstimator injected(base, {{q.CanonicalKey(), 12345.0}});
  EXPECT_DOUBLE_EQ(injected.EstimateCard(q), 12345.0);
  const Query other = Parse(kSingleTableQueries[1]);
  EXPECT_DOUBLE_EQ(injected.EstimateCard(other), Truth(other));
}

TEST_F(CardEstTest, PostgresSingleTableIsNearExact) {
  // Per-column histograms with per-value counts make single-predicate
  // selectivities essentially exact — PostgreSQL's strength (§5.1).
  PostgresEstimator est(*db_);
  for (const char* sql : kSingleTableQueries) {
    const Query q = Parse(sql);
    EXPECT_LT(QError(est.EstimateCard(q), Truth(q)), 1.1) << sql;
  }
}

TEST_F(CardEstTest, PostgresPkFkJoinWithoutFiltersIsClose) {
  PostgresEstimator est(*db_);
  const Query q = Parse(kJoinQueries[0]);
  EXPECT_LT(QError(est.EstimateCard(q), Truth(q)), 2.0);
}

TEST_F(CardEstTest, PostgresMissesCorrelations) {
  // Reputation and UpVotes are strongly correlated; independence
  // multiplication must underestimate the conjunctive selectivity.
  PostgresEstimator est(*db_);
  const Query q = Parse(
      "SELECT COUNT(*) FROM users WHERE users.Reputation >= 200 AND "
      "users.UpVotes >= 20;");
  const double truth = Truth(q);
  if (truth >= 10) {
    EXPECT_LT(est.EstimateCard(q), truth * 0.9);
  }
}

TEST_F(CardEstTest, MultiHistCapturesGroupedCorrelation) {
  MultiHistEstimator est(*db_);
  PostgresEstimator pg(*db_);
  const Query q = Parse(
      "SELECT COUNT(*) FROM users WHERE users.Reputation >= 200 AND "
      "users.UpVotes >= 20;");
  const double truth = Truth(q);
  if (truth >= 10) {
    EXPECT_LT(QError(est.EstimateCard(q), truth),
              QError(pg.EstimateCard(q), truth) * 1.5);
  }
}

TEST_F(CardEstTest, UniSampleSingleTableTracksSelectivity) {
  UniSampleEstimator est(*db_, 2000);
  for (const char* sql : kSingleTableQueries) {
    const Query q = Parse(sql);
    const double truth = Truth(q);
    if (truth < 30) continue;  // sampling noise dominates tiny counts
    EXPECT_LT(QError(est.EstimateCard(q), truth), 1.8) << sql;
  }
}

TEST_F(CardEstTest, WjSampleUnfilteredJoinIsNearUnbiased) {
  WjSampleEstimator est(*db_, 4000);
  for (const char* sql : kJoinQueries) {
    const Query q = Parse(sql);
    EXPECT_LT(QError(est.EstimateCard(q), Truth(q)), 2.0) << sql;
  }
}

TEST_F(CardEstTest, PessEstNeverUnderestimates) {
  // The defining property of pessimistic estimation, checked over a swept
  // random workload.
  PessEstEstimator est(*db_);
  Rng rng(99);
  size_t checked = 0;
  for (int i = 0; i < 40; ++i) {
    auto tmpl = RandomJoinTemplate(*db_, rng, 2 + rng.NextUint64(3), true);
    if (!tmpl.ok()) continue;
    Query q = std::move(*tmpl);
    AddRandomPredicates(*db_, rng, rng.NextUint64(4), q);
    auto truth = truecard_->Card(q);
    if (!truth.ok()) continue;
    EXPECT_GE(est.EstimateCard(q), *truth * (1 - 1e-9)) << q.ToSql();
    ++checked;
  }
  EXPECT_GT(checked, 20u);
}

TEST_F(CardEstTest, PessEstExactOnSingleTables) {
  PessEstEstimator est(*db_);
  for (const char* sql : kSingleTableQueries) {
    const Query q = Parse(sql);
    EXPECT_DOUBLE_EQ(est.EstimateCard(q), std::max(1e-6, Truth(q))) << sql;
  }
}

// ---- Data-driven PGM estimators (shared fanout machinery). ----

class PgmEstimatorTest : public CardEstTest,
                         public ::testing::WithParamInterface<FanoutModelKind> {
};

INSTANTIATE_TEST_SUITE_P(
    Kinds, PgmEstimatorTest,
    ::testing::Values(FanoutModelKind::kBayesCard, FanoutModelKind::kDeepDb,
                      FanoutModelKind::kFlat),
    [](const ::testing::TestParamInfo<FanoutModelKind>& info) {
      return FanoutModelName(info.param);
    });

TEST_P(PgmEstimatorTest, SingleTableEstimatesAreAccurate) {
  FanoutModelEstimator est(*db_, GetParam());
  for (const char* sql : kSingleTableQueries) {
    const Query q = Parse(sql);
    const double truth = Truth(q);
    if (truth < 20) continue;
    EXPECT_LT(QError(est.EstimateCard(q), truth), 1.6) << sql;
  }
}

TEST_P(PgmEstimatorTest, UnfilteredJoinSizeIsNearExact) {
  // The fanout method gives the exact join size when no predicates apply:
  // |T_r| * E[F] telescopes to the true count.
  FanoutModelEstimator est(*db_, GetParam());
  for (const char* sql : kJoinQueries) {
    const Query q = Parse(sql);
    EXPECT_LT(QError(est.EstimateCard(q), Truth(q)), 1.35) << sql;
  }
}

TEST_P(PgmEstimatorTest, FilteredJoinsStayWithinModestQError) {
  FanoutModelEstimator est(*db_, GetParam());
  const Query q = Parse(
      "SELECT COUNT(*) FROM users, posts, comments WHERE users.Id = "
      "posts.OwnerUserId AND posts.Id = comments.PostId AND posts.Score >= 5 "
      "AND users.Reputation >= 50;");
  const double truth = Truth(q);
  if (truth >= 20) {
    EXPECT_LT(QError(est.EstimateCard(q), truth), 8.0);
  }
}

TEST_P(PgmEstimatorTest, FkFkJoinSupported) {
  FanoutModelEstimator est(*db_, GetParam());
  const Query q = Parse(
      "SELECT COUNT(*) FROM comments, badges WHERE comments.UserId = "
      "badges.UserId;");
  EXPECT_LT(QError(est.EstimateCard(q), Truth(q)), 3.0);
}

TEST_P(PgmEstimatorTest, UpdateTracksInsertedRows) {
  // Build on the stale half, then insert the rest and refresh: the
  // single-table estimate must follow the new row count.
  StatsGenConfig config;
  config.scale = 0.05;
  auto full = GenerateStatsDatabase(config);
  TimeSplit split = SplitDatabaseByTime(*full, StatsTimestampColumn, 0.5);
  FanoutModelEstimator est(*split.stale, GetParam());

  const Query q = Parse("SELECT COUNT(*) FROM votes;");
  const double before = est.EstimateCard(q);
  ASSERT_TRUE(ApplyInsertions(*split.stale, split.insertions).ok());
  ASSERT_TRUE(est.Update(InsertionBatch{}).ok());
  const double after = est.EstimateCard(q);
  const double full_rows =
      static_cast<double>(full->TableOrDie("votes").num_rows());
  EXPECT_GT(after, before);
  EXPECT_LT(QError(after, full_rows), 1.05);
}

TEST_F(CardEstTest, FanoutAblationDegradesJoinAccuracy) {
  // With the fanout method disabled, BayesCard falls back to join
  // uniformity: on the skewed FK-FK join its estimate must degrade
  // relative to the fanout-based one (the DESIGN.md ablation).
  FanoutModelEstimator est(*db_, FanoutModelKind::kBayesCard);
  const Query q = Parse(
      "SELECT COUNT(*) FROM comments, badges WHERE comments.UserId = "
      "badges.UserId;");
  const double truth = Truth(q);
  const double with_fanout = QError(est.EstimateCard(q), truth);
  est.set_use_fanout_join(false);
  const double without = QError(est.EstimateCard(q), truth);
  EXPECT_GT(without, with_fanout);
  // Single-table estimates are unaffected by the switch.
  const Query single = Parse(kSingleTableQueries[0]);
  const double a = est.EstimateCard(single);
  est.set_use_fanout_join(true);
  EXPECT_DOUBLE_EQ(est.EstimateCard(single), a);
}

TEST_F(CardEstTest, SpnOptionsControlModelGranularity) {
  // A stricter independence threshold forces more sum/product structure,
  // never less; the resulting model should not shrink.
  SpnOptions loose;
  loose.independence_threshold = 0.6;
  SpnOptions strict;
  strict.independence_threshold = 0.1;
  FanoutModelEstimator coarse(*db_, FanoutModelKind::kDeepDb, 48, loose);
  FanoutModelEstimator fine(*db_, FanoutModelKind::kDeepDb, 48, strict);
  EXPECT_GE(fine.ModelBytes(), coarse.ModelBytes());
}

TEST_F(CardEstTest, ModelSizeScalingFollowsArchitecture) {
  // The Figure-3 ordering (BayesCard smallest) is a scaling property: BN
  // CPTs are O(#columns * bins^2) regardless of row count, while FLAT's
  // multi-leaves grow with the number of distinct joint bin tuples, i.e.
  // with data size. Verify the scaling behaviour directly.
  StatsGenConfig big_config;
  big_config.scale = 0.2;
  auto big_db = GenerateStatsDatabase(big_config);

  FanoutModelEstimator bn_small(*db_, FanoutModelKind::kBayesCard);
  FanoutModelEstimator bn_big(*big_db, FanoutModelKind::kBayesCard);
  FanoutModelEstimator fspn_small(*db_, FanoutModelKind::kFlat);
  FanoutModelEstimator fspn_big(*big_db, FanoutModelKind::kFlat);

  const double bn_growth = static_cast<double>(bn_big.ModelBytes()) /
                           static_cast<double>(bn_small.ModelBytes());
  const double fspn_growth = static_cast<double>(fspn_big.ModelBytes()) /
                             static_cast<double>(fspn_small.ModelBytes());
  // BN growth comes only from bin-domain saturation and levels off; FLAT's
  // joint leaves keep growing with the data.
  EXPECT_LT(bn_growth, fspn_growth);
  EXPECT_GT(fspn_growth, 1.5);
  EXPECT_GT(bn_small.TrainSeconds(), 0.0);
}

TEST(SpnScopeTest, ColumnsPastBit63StillReachTheirLeaves) {
  // Scope words give every column at or above 63 one shared bit. A factor
  // on any column of a 70-column table must still reach that column's
  // leaf or multi-leaf: a zero factor zeroes the expectation, and with no
  // factor at all every node idles at 1. Columns 60 and up repeat one
  // value, so FLAT's learner groups them into multi-leaves.
  constexpr size_t kCols = 70;
  Database db("wide");
  Table* table = db.AddTable("t").value();
  for (size_t c = 0; c < kCols; ++c) {
    ASSERT_TRUE(
        table->AddColumn(StrFormat("c%zu", c), ColumnKind::kNumeric).ok());
  }
  Rng rng(7);
  for (int r = 0; r < 300; ++r) {
    std::vector<std::optional<Value>> row;
    for (size_t c = 0; c < kCols; ++c) {
      row.push_back(c > 60 ? row[60]
                           : std::optional<Value>(
                                 static_cast<Value>(rng.NextUint64(5))));
    }
    ASSERT_TRUE(table->AppendRow(row).ok());
  }
  const ExtendedTable ext(db, "t", 8);
  ASSERT_EQ(ext.num_columns(), kCols);
  for (bool multi_leaf : {false, true}) {
    const SpnModel model(ext, SpnOptions(), multi_leaf);
    std::vector<const double*> factor_of_col(kCols, nullptr);
    EXPECT_EQ(model.ExpectProduct(factor_of_col), 1.0);
    for (size_t c : {0, 62, 63, 64, 69}) {
      const std::vector<double> zero(ext.BinDomains()[c], 0.0);
      factor_of_col.assign(kCols, nullptr);
      factor_of_col[c] = zero.data();
      EXPECT_EQ(model.ExpectProduct(factor_of_col), 0.0)
          << "column " << c << (multi_leaf ? " (FLAT)" : " (DeepDB)");
    }
  }
}

}  // namespace
}  // namespace cardbench
