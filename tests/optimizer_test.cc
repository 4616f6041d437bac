#include <gtest/gtest.h>

#include "datagen/stats_gen.h"
#include "exec/executor.h"
#include "exec/true_card.h"
#include "optimizer/optimizer.h"
#include "query/parser.h"

namespace cardbench {
namespace {

/// Oracle estimator: answers every sub-plan query with its exact
/// cardinality (the paper's TrueCard baseline).
class PerfectEstimator : public CardinalityEstimator {
 public:
  explicit PerfectEstimator(TrueCardService& svc) : svc_(svc) {}
  std::string name() const override { return "TrueCard"; }
  double EstimateCard(const QueryGraph& graph, uint64_t mask) const override {
    auto card = svc_.Card(graph, mask);
    return card.ok() ? *card : 1.0;
  }

 private:
  TrueCardService& svc_;
};

/// Pathological estimator: a constant answer for everything.
class ConstEstimator : public CardinalityEstimator {
 public:
  explicit ConstEstimator(double value) : value_(value) {}
  std::string name() const override { return "Const"; }
  double EstimateCard(const QueryGraph&, uint64_t) const override {
    return value_;
  }

 private:
  double value_;
};

class OptimizerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    StatsGenConfig config;
    config.scale = 0.05;
    db_ = GenerateStatsDatabase(config).release();
    svc_ = new TrueCardService(*db_);
  }
  static void TearDownTestSuite() {
    delete svc_;
    delete db_;
  }

  static Query Parse(const std::string& sql) {
    auto q = ParseSql(sql);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return *q;
  }

  static Database* db_;
  static TrueCardService* svc_;
};

Database* OptimizerTest::db_ = nullptr;
TrueCardService* OptimizerTest::svc_ = nullptr;

const char* kFourWayQuery =
    "SELECT COUNT(*) FROM users, posts, comments, badges WHERE "
    "users.Id = posts.OwnerUserId AND posts.Id = comments.PostId AND "
    "users.Id = badges.UserId AND posts.Score >= 5 AND users.Reputation >= 30;";

TEST_F(OptimizerTest, PlanCoversAllTables) {
  const Query q = Parse(kFourWayQuery);
  Optimizer opt(*db_);
  PerfectEstimator est(*svc_);
  auto result = opt.Plan(q, est);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->plan->NumTables(), 4u);
  EXPECT_EQ(result->plan->table_mask, q.FullMask());
}

TEST_F(OptimizerTest, EstimatesEveryConnectedSubplan) {
  const Query q = Parse(kFourWayQuery);
  Optimizer opt(*db_);
  PerfectEstimator est(*svc_);
  auto result = opt.Plan(q, est);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_estimates, EnumerateConnectedSubsets(q).size());
  EXPECT_EQ(result->injected_cards.size(), result->num_estimates);
  EXPECT_GE(result->planning_seconds, result->estimation_seconds);
}

TEST_F(OptimizerTest, AnyPlanShapeComputesTheSameCount) {
  // Plans from wildly different estimators must all produce the true count:
  // estimation quality affects speed, never correctness.
  const Query q = Parse(kFourWayQuery);
  Optimizer opt(*db_);
  TrueCardService reference(*db_);
  auto expected = reference.Card(q);
  ASSERT_TRUE(expected.ok());

  Executor exec(*db_);
  for (double v : {1.0, 1000.0, 1e9}) {
    ConstEstimator est(v);
    auto result = opt.Plan(q, est);
    ASSERT_TRUE(result.ok());
    auto count = exec.ExecuteCount(*result->plan);
    ASSERT_TRUE(count.ok());
    ASSERT_FALSE(count->timed_out);
    EXPECT_DOUBLE_EQ(static_cast<double>(count->count), *expected)
        << "const estimate " << v << " produced plan:\n"
        << result->plan->Explain(*db_);
  }
  PerfectEstimator perfect(*svc_);
  auto result = opt.Plan(q, perfect);
  ASSERT_TRUE(result.ok());
  auto count = exec.ExecuteCount(*result->plan);
  ASSERT_TRUE(count.ok());
  EXPECT_DOUBLE_EQ(static_cast<double>(count->count), *expected);
}

TEST_F(OptimizerTest, RecostWithOwnCardsReproducesPlanCost) {
  const Query q = Parse(kFourWayQuery);
  Optimizer opt(*db_);
  PerfectEstimator est(*svc_);
  auto result = opt.Plan(q, est);
  ASSERT_TRUE(result.ok());
  const double recost =
      opt.RecostWithCards(*result->plan, result->injected_cards);
  EXPECT_NEAR(recost, result->plan->estimated_cost,
              1e-6 * result->plan->estimated_cost);
}

TEST_F(OptimizerTest, TruePlanIsNoWorseUnderTrueCost) {
  // P-Error >= 1 by construction: the plan picked with true cardinalities
  // must cost no more than plans picked with wrong cardinalities when both
  // are costed under true cardinalities.
  const Query q = Parse(kFourWayQuery);
  Optimizer opt(*db_);
  auto true_cards = svc_->AllSubplanCards(QueryGraph(q, *db_));
  ASSERT_TRUE(true_cards.ok());

  PerfectEstimator perfect(*svc_);
  auto true_plan = opt.Plan(q, perfect);
  ASSERT_TRUE(true_plan.ok());
  const double best_cost =
      opt.RecostWithCards(*true_plan->plan, *true_cards);

  for (double v : {1.0, 1e6}) {
    ConstEstimator bad(v);
    auto bad_plan = opt.Plan(q, bad);
    ASSERT_TRUE(bad_plan.ok());
    const double bad_cost = opt.RecostWithCards(*bad_plan->plan, *true_cards);
    EXPECT_GE(bad_cost, best_cost * (1 - 1e-9));
  }
}

TEST_F(OptimizerTest, SingleTablePlansAreScans) {
  const Query q =
      Parse("SELECT COUNT(*) FROM users WHERE users.Reputation >= 100;");
  Optimizer opt(*db_);
  PerfectEstimator est(*svc_);
  auto result = opt.Plan(q, est);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->plan->IsScan());
  EXPECT_EQ(result->plan->scan_method, ScanMethod::kSeqScan);
}

TEST_F(OptimizerTest, EstimateMagnitudeChangesThePlan) {
  // Cardinality estimates steer the physical plan (paper O6): with the
  // in-memory-calibrated cost model the choice that flips between tiny and
  // huge constant estimates is the probe direction / join shape, visible
  // in the EXPLAIN text.
  const Query q = Parse(
      "SELECT COUNT(*) FROM posts, comments WHERE posts.Id = "
      "comments.PostId;");
  Optimizer opt(*db_);
  ConstEstimator tiny(2.0);
  ConstEstimator huge(5e7);
  auto small_plan = opt.Plan(q, tiny);
  auto big_plan = opt.Plan(q, huge);
  ASSERT_TRUE(small_plan.ok());
  ASSERT_TRUE(big_plan.ok());
  EXPECT_NE(small_plan->plan->Explain(*db_), big_plan->plan->Explain(*db_));
}

TEST_F(OptimizerTest, ExplainMentionsMethodsAndTables) {
  const Query q = Parse(kFourWayQuery);
  Optimizer opt(*db_);
  PerfectEstimator est(*svc_);
  auto result = opt.Plan(q, est);
  ASSERT_TRUE(result.ok());
  const std::string text = result->plan->Explain(*db_);
  EXPECT_NE(text.find("users"), std::string::npos);
  EXPECT_NE(text.find("Join"), std::string::npos);
  EXPECT_NE(text.find("rows="), std::string::npos);
}

}  // namespace
}  // namespace cardbench
