// Property-based sweeps over randomized queries: the executor agrees with
// a brute-force evaluator, every estimator-induced plan computes the exact
// count, and the fanout join method telescopes exactly on every schema
// relation. Parameterized over seeds/relations via TEST_P.

#include <gtest/gtest.h>

#include <functional>

#include "cardest/fanout_estimator.h"
#include "cardest/registry.h"
#include "datagen/stats_gen.h"
#include "exec/executor.h"
#include "exec/true_card.h"
#include "metrics/metrics.h"
#include "optimizer/optimizer.h"
#include "workload/workload_gen.h"

namespace cardbench {
namespace {

/// Exponential-time reference evaluator (tiny data only).
uint64_t BruteForceCount(const Database& db, const Query& q) {
  std::vector<const Table*> tables;
  for (const auto& name : q.tables) tables.push_back(db.FindTable(name));
  std::vector<size_t> rows(q.tables.size());
  uint64_t count = 0;
  std::function<void(size_t)> recurse = [&](size_t t) {
    if (t == q.tables.size()) {
      ++count;
      return;
    }
    const Table& table = *tables[t];
    for (size_t row = 0; row < table.num_rows(); ++row) {
      bool pass = true;
      for (const auto& pred : q.predicates) {
        if (pred.table != q.tables[t]) continue;
        const Column& col = table.ColumnByName(pred.column);
        if (!col.IsValid(row) ||
            !EvalCompare(col.Get(row), pred.op, pred.value)) {
          pass = false;
          break;
        }
      }
      if (!pass) continue;
      rows[t] = row;
      for (const auto& edge : q.joins) {
        const size_t li = static_cast<size_t>(q.TableIndex(edge.left_table));
        const size_t ri = static_cast<size_t>(q.TableIndex(edge.right_table));
        if (std::max(li, ri) != t) continue;
        const Column& lcol = tables[li]->ColumnByName(edge.left_column);
        const Column& rcol = tables[ri]->ColumnByName(edge.right_column);
        if (!lcol.IsValid(rows[li]) || !rcol.IsValid(rows[ri]) ||
            lcol.Get(rows[li]) != rcol.Get(rows[ri])) {
          pass = false;
          break;
        }
      }
      if (pass) recurse(t + 1);
    }
  };
  recurse(0);
  return count;
}

class PropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  static void SetUpTestSuite() {
    StatsGenConfig config;
    config.scale = 0.01;
    db_ = GenerateStatsDatabase(config).release();
    truecard_ = new TrueCardService(*db_);
  }
  static void TearDownTestSuite() {
    delete truecard_;
    delete db_;
  }
  static Database* db_;
  static TrueCardService* truecard_;
};

Database* PropertyTest::db_ = nullptr;
TrueCardService* PropertyTest::truecard_ = nullptr;

TEST_P(PropertyTest, ExecutorAgreesWithBruteForceOnRandomQueries) {
  Rng rng(GetParam());
  for (int i = 0; i < 6; ++i) {
    auto tmpl = RandomJoinTemplate(*db_, rng, 2 + rng.NextUint64(2), true);
    ASSERT_TRUE(tmpl.ok());
    Query q = std::move(*tmpl);
    AddRandomPredicates(*db_, rng, rng.NextUint64(4), q);
    auto card = truecard_->Card(q);
    ASSERT_TRUE(card.ok());
    EXPECT_EQ(static_cast<uint64_t>(*card), BruteForceCount(*db_, q))
        << q.ToSql();
  }
}

TEST_P(PropertyTest, EveryEstimatorPlanComputesTheExactCount) {
  // Estimates steer the plan shape; the answer must never change.
  Rng rng(GetParam() ^ 0xBEEF);
  Optimizer optimizer(*db_);
  Executor executor(*db_);
  EstimatorConfig fast;
  fast.fast = true;
  for (const char* name : {"PostgreSQL", "MultiHist", "UniSample", "WJSample",
                           "PessEst", "BayesCard", "DeepDB", "FLAT"}) {
    auto est = MakeEstimator(name, *db_, *truecard_, nullptr, fast);
    ASSERT_TRUE(est.ok()) << name;
    for (int i = 0; i < 3; ++i) {
      auto tmpl = RandomJoinTemplate(*db_, rng, 2 + rng.NextUint64(3), true);
      ASSERT_TRUE(tmpl.ok());
      Query q = std::move(*tmpl);
      AddRandomPredicates(*db_, rng, rng.NextUint64(5), q);
      auto truth = truecard_->Card(q);
      ASSERT_TRUE(truth.ok());
      auto plan = optimizer.Plan(q, **est);
      ASSERT_TRUE(plan.ok()) << name << ": " << q.ToSql();
      auto exec = executor.ExecuteCount(*plan->plan);
      ASSERT_TRUE(exec.ok());
      ASSERT_FALSE(exec->timed_out);
      EXPECT_DOUBLE_EQ(static_cast<double>(exec->count), *truth)
          << name << " on " << q.ToSql() << "\n"
          << plan->plan->Explain(*db_);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

/// The fanout method telescopes exactly on unfiltered PK-FK joins: sweep
/// every relation of the schema (Figure 1's 12 edges).
class FanoutExactnessTest : public ::testing::TestWithParam<size_t> {
 protected:
  static void SetUpTestSuite() {
    StatsGenConfig config;
    config.scale = 0.04;
    db_ = GenerateStatsDatabase(config).release();
    truecard_ = new TrueCardService(*db_);
    model_ = new FanoutModelEstimator(*db_, FanoutModelKind::kBayesCard);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete truecard_;
    delete db_;
  }
  static Database* db_;
  static TrueCardService* truecard_;
  static FanoutModelEstimator* model_;
};

Database* FanoutExactnessTest::db_ = nullptr;
TrueCardService* FanoutExactnessTest::truecard_ = nullptr;
FanoutModelEstimator* FanoutExactnessTest::model_ = nullptr;

TEST_P(FanoutExactnessTest, UnfilteredSchemaJoinIsNearExact) {
  const JoinRelation& rel = db_->join_relations().at(GetParam());
  Query q;
  q.tables = {rel.left_table, rel.right_table};
  q.joins = {{rel.left_table, rel.left_column, rel.right_table,
              rel.right_column}};
  auto truth = truecard_->Card(q);
  ASSERT_TRUE(truth.ok());
  const double estimate = model_->EstimateCard(q);
  // Laplace smoothing dominates relative error when the join is tiny.
  const double tolerance = *truth >= 50 ? 1.25 : 2.0;
  EXPECT_LT(QError(estimate, *truth), tolerance)
      << rel.ToString() << ": est " << estimate << " true " << *truth;
}

INSTANTIATE_TEST_SUITE_P(AllSchemaRelations, FanoutExactnessTest,
                         ::testing::Range<size_t>(0, 12));

}  // namespace
}  // namespace cardbench
