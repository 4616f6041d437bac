#include <gtest/gtest.h>

#include "cardest/postgres_est.h"
#include "cardest/truecard_est.h"
#include "datagen/stats_gen.h"
#include "exec/true_card.h"
#include "metrics/perror.h"
#include "query/parser.h"

namespace cardbench {
namespace {

class PErrorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    StatsGenConfig config;
    config.scale = 0.05;
    db_ = GenerateStatsDatabase(config).release();
    truecard_ = new TrueCardService(*db_);
    optimizer_ = new Optimizer(*db_);
  }
  static void TearDownTestSuite() {
    delete optimizer_;
    delete truecard_;
    delete db_;
  }

  static Query FourWay() {
    return *ParseSql(
        "SELECT COUNT(*) FROM users, posts, comments, badges WHERE users.Id "
        "= posts.OwnerUserId AND posts.Id = comments.PostId AND users.Id = "
        "badges.UserId AND posts.Score >= 5;");
  }

  static Database* db_;
  static TrueCardService* truecard_;
  static Optimizer* optimizer_;
};

Database* PErrorTest::db_ = nullptr;
TrueCardService* PErrorTest::truecard_ = nullptr;
Optimizer* PErrorTest::optimizer_ = nullptr;

TEST_F(PErrorTest, OracleScoresExactlyOne) {
  const QueryGraph graph(FourWay(), *db_);
  auto cards = truecard_->AllSubplanCards(graph);
  ASSERT_TRUE(cards.ok());
  PErrorCalculator calc(*optimizer_, graph, *cards);
  EXPECT_GT(calc.true_plan_cost(), 0.0);

  TrueCardEstimator oracle(*truecard_);
  auto p_error = calc.Evaluate(oracle);
  ASSERT_TRUE(p_error.ok());
  EXPECT_NEAR(*p_error, 1.0, 1e-9);
}

TEST_F(PErrorTest, RealEstimatorNeverBeatsTheOraclePlan) {
  const QueryGraph graph(FourWay(), *db_);
  auto cards = truecard_->AllSubplanCards(graph);
  ASSERT_TRUE(cards.ok());
  PErrorCalculator calc(*optimizer_, graph, *cards);

  PostgresEstimator pg(*db_);
  auto p_error = calc.Evaluate(pg);
  ASSERT_TRUE(p_error.ok());
  // With a self-consistent cost model the oracle plan is optimal, so every
  // other plan recosts at >= 1.
  EXPECT_GE(*p_error, 1.0 - 1e-9);
}

TEST_F(PErrorTest, WorsePlansScoreHigher) {
  // A constant estimator that inverts the size ordering of sub-plans
  // produces a plan that cannot beat the oracle's.
  class InvertingEstimator : public CardinalityEstimator {
   public:
    explicit InvertingEstimator(
        const std::unordered_map<uint64_t, double>& cards)
        : cards_(cards) {}
    std::string name() const override { return "inverting"; }
    double EstimateCard(const QueryGraph&, uint64_t mask) const override {
      auto it = cards_.find(mask);
      const double truth = it == cards_.end() ? 1.0 : it->second;
      return 1e7 / std::max(truth, 1.0);  // big becomes small & vice versa
    }

   private:
    const std::unordered_map<uint64_t, double>& cards_;
  };

  const QueryGraph graph(FourWay(), *db_);
  auto cards = truecard_->AllSubplanCards(graph);
  ASSERT_TRUE(cards.ok());
  PErrorCalculator calc(*optimizer_, graph, *cards);

  InvertingEstimator bad(*cards);
  auto bad_p = calc.Evaluate(bad);
  ASSERT_TRUE(bad_p.ok());

  PostgresEstimator pg(*db_);
  auto pg_p = calc.Evaluate(pg);
  ASSERT_TRUE(pg_p.ok());
  EXPECT_GE(*bad_p, *pg_p * 0.999);  // adversarial >= sane estimator
  EXPECT_GT(*bad_p, 1.0);
}

}  // namespace
}  // namespace cardbench
