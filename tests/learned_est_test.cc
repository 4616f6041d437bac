#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "cardest/autoregressive_est.h"
#include "cardest/foj_sampler.h"
#include "cardest/lw_est.h"
#include "cardest/mscn_est.h"
#include "cardest/registry.h"
#include "datagen/imdb_gen.h"
#include "datagen/stats_gen.h"
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

class LearnedEstTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    StatsGenConfig config;
    config.scale = 0.04;
    db_ = GenerateStatsDatabase(config).release();
    truecard_ = new TrueCardService(*db_);
    auto training = GenerateTrainingQueries(*db_, *truecard_, 500, 77);
    ASSERT_TRUE(training.ok());
    training_ = new std::vector<TrainingQuery>(std::move(*training));
  }
  static void TearDownTestSuite() {
    delete training_;
    delete truecard_;
    delete db_;
  }

  static Query Parse(const std::string& sql) {
    auto q = ParseSql(sql);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return *q;
  }

  static Database* db_;
  static TrueCardService* truecard_;
  static std::vector<TrainingQuery>* training_;
};

Database* LearnedEstTest::db_ = nullptr;
TrueCardService* LearnedEstTest::truecard_ = nullptr;
std::vector<TrainingQuery>* LearnedEstTest::training_ = nullptr;

double MedianTrainingQError(CardinalityEstimator& est,
                            const std::vector<TrainingQuery>& training) {
  std::vector<double> qerrors;
  for (size_t i = 0; i < training.size(); i += 3) {
    qerrors.push_back(
        QError(est.EstimateCard(training[i].query), training[i].cardinality));
  }
  std::nth_element(qerrors.begin(), qerrors.begin() + qerrors.size() / 2,
                   qerrors.end());
  return qerrors[qerrors.size() / 2];
}

TEST_F(LearnedEstTest, MscnFitsItsTrainingDistribution) {
  MscnOptions options;
  options.epochs = 15;
  MscnEstimator est(*db_, *training_, options);
  EXPECT_LT(MedianTrainingQError(est, *training_), 6.0);
  EXPECT_GT(est.ModelBytes(), 1000u);
  EXPECT_GT(est.TrainSeconds(), 0.0);
}

TEST_F(LearnedEstTest, LwNnFitsItsTrainingDistribution) {
  LwNnOptions options;
  options.epochs = 30;
  LwNnEstimator est(*db_, *training_, options);
  EXPECT_LT(MedianTrainingQError(est, *training_), 6.0);
}

TEST_F(LearnedEstTest, LwXgbFitsItsTrainingDistribution) {
  LwXgbEstimator est(*db_, *training_);
  EXPECT_LT(MedianTrainingQError(est, *training_), 4.0);
}

TEST_F(LearnedEstTest, QueryDrivenMethodsDoNotSupportUpdate) {
  // O9: query-driven models would need a fresh executed workload.
  LwXgbEstimator est(*db_, *training_);
  EXPECT_EQ(est.Update(InsertionBatch{}).code(), StatusCode::kUnsupported);
}

TEST_F(LearnedEstTest, FojSamplerInvariants) {
  FojSampler sampler(*db_);
  EXPECT_EQ(sampler.bfs_order().size(), db_->num_tables());
  EXPECT_EQ(sampler.edges().size(), db_->num_tables() - 1);
  EXPECT_GT(sampler.foj_size(), 0.0);

  // Sampled tuples must be join-consistent: whenever parent and child are
  // both present, their join keys match.
  Rng rng(31);
  for (int i = 0; i < 200; ++i) {
    const auto tuple = sampler.SampleTuple(rng);
    EXPECT_GE(tuple[0], 0);  // root always present
    for (const auto& edge : sampler.edges()) {
      const int64_t prow = tuple[edge.parent_idx];
      const int64_t crow = tuple[edge.child_idx];
      if (prow < 0) {
        EXPECT_LT(crow, 0);  // absent parent -> absent subtree
      }
      if (prow < 0 || crow < 0) continue;
      const Table& parent =
          db_->TableOrDie(sampler.bfs_order()[edge.parent_idx]);
      const Table& child =
          db_->TableOrDie(sampler.bfs_order()[edge.child_idx]);
      const Column& pk = parent.ColumnByName(edge.parent_col);
      const Column& ck = child.ColumnByName(edge.child_col);
      ASSERT_TRUE(pk.IsValid(static_cast<size_t>(prow)));
      ASSERT_TRUE(ck.IsValid(static_cast<size_t>(crow)));
      EXPECT_EQ(pk.Get(static_cast<size_t>(prow)),
                ck.Get(static_cast<size_t>(crow)));
    }
  }
}

TEST_F(LearnedEstTest, FojSamplerUpwardTimesWeightCountsTuples) {
  // Sum over any table of U_t(r) * w_t(r) equals |FOJ| restricted to
  // tuples where t is present; for the root it is exactly |FOJ|.
  FojSampler sampler(*db_);
  const Table& root = db_->TableOrDie(sampler.bfs_order()[0]);
  double total = 0;
  for (size_t row = 0; row < root.num_rows(); ++row) {
    total += sampler.Upward(0, static_cast<uint32_t>(row)) *
             sampler.SubtreeWeight(0, static_cast<uint32_t>(row));
  }
  EXPECT_NEAR(total, sampler.foj_size(), sampler.foj_size() * 1e-9);
}

TEST_F(LearnedEstTest, NeuroCardSingleTableReasonable) {
  ArOptions options;
  options.training_samples = 4000;
  options.epochs = 8;
  options.hidden_units = 64;
  options.progressive_samples = 128;
  AutoregressiveEstimator est(*db_, ArTraining::kData, nullptr, options);

  const Query q = Parse("SELECT COUNT(*) FROM posts WHERE posts.PostTypeId = 1;");
  auto truth = truecard_->Card(q);
  ASSERT_TRUE(truth.ok());
  EXPECT_LT(QError(est.EstimateCard(q), *truth), 8.0);
}

TEST_F(LearnedEstTest, NeuroCardJoinsWellOnEasyStarSchema) {
  // The paper's O3: NeuroCard is competitive on the simple IMDB star
  // schema but falls apart on STATS. Verify the "works when the FOJ is
  // learnable" half on the IMDB-like database.
  ImdbGenConfig config;
  config.scale = 0.03;
  auto imdb = GenerateImdbDatabase(config);
  TrueCardService svc(*imdb);
  ArOptions options;
  options.training_samples = 4000;
  options.epochs = 8;
  options.hidden_units = 64;
  options.progressive_samples = 128;
  AutoregressiveEstimator est(*imdb, ArTraining::kData, nullptr, options);

  const Query q = Parse(
      "SELECT COUNT(*) FROM title, movie_keyword WHERE title.id = "
      "movie_keyword.movie_id;");
  auto truth = svc.Card(q);
  ASSERT_TRUE(truth.ok());
  EXPECT_LT(QError(est.EstimateCard(q), *truth), 12.0);
}

TEST_F(LearnedEstTest, NeuroCardStaysFiniteOnHardStatsJoins) {
  // On STATS the paper measures catastrophic NeuroCard Q-Errors (median
  // 951, 99th percentile 6e8 — Table 7); the contract here is only that
  // estimates are finite and positive so the optimizer can proceed.
  ArOptions options;
  options.training_samples = 2000;
  options.epochs = 3;
  options.hidden_units = 48;
  options.progressive_samples = 64;
  AutoregressiveEstimator est(*db_, ArTraining::kData, nullptr, options);

  const Query q = Parse(
      "SELECT COUNT(*) FROM users, badges WHERE users.Id = badges.UserId;");
  const double estimate = est.EstimateCard(q);
  EXPECT_GT(estimate, 0.0);
  EXPECT_TRUE(std::isfinite(estimate));
}

TEST_F(LearnedEstTest, NeuroCardFallsBackOffTree) {
  ArOptions options;
  options.training_samples = 1000;
  options.epochs = 2;
  options.hidden_units = 48;
  options.progressive_samples = 64;
  AutoregressiveEstimator est(*db_, ArTraining::kData, nullptr, options);
  // FK-FK shortcut join that cannot lie on the spanning tree.
  const Query q = Parse(
      "SELECT COUNT(*) FROM comments, badges WHERE comments.UserId = "
      "badges.UserId;");
  const double estimate = est.EstimateCard(q);
  EXPECT_GE(estimate, 1.0);
  EXPECT_TRUE(std::isfinite(estimate));
}

TEST_F(LearnedEstTest, RegistryBuildsEveryEstimator) {
  EstimatorConfig config;
  config.fast = true;
  for (const auto& name : AllEstimatorNames()) {
    auto est = MakeEstimator(name, *db_, *truecard_, training_, config);
    ASSERT_TRUE(est.ok()) << name << ": " << est.status().ToString();
    EXPECT_EQ((*est)->name(), name);
    const Query q = Parse(
        "SELECT COUNT(*) FROM users, badges WHERE users.Id = badges.UserId "
        "AND users.Reputation >= 5;");
    const double estimate = (*est)->EstimateCard(q);
    EXPECT_GT(estimate, 0.0) << name;
    EXPECT_TRUE(std::isfinite(estimate)) << name;
  }
}

TEST_F(LearnedEstTest, RegistryRejectsUnknownName) {
  EXPECT_FALSE(MakeEstimator("Nonsense", *db_, *truecard_, nullptr).ok());
}

TEST_F(LearnedEstTest, QueryDrivenWithoutTrainingRejected) {
  EXPECT_FALSE(MakeEstimator("MSCN", *db_, *truecard_, nullptr).ok());
}

}  // namespace
}  // namespace cardbench
