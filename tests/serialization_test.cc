// Estimator lifecycle suite: every Table-3 method must round-trip through
// the CBMD artifact format and the model store — train, serialize, reload,
// and produce bit-identical injected cardinalities, EXPLAIN output and
// P-Error on every workload query. Mutilated artifacts (truncation, bad
// magic, checksum flips, version skew) must be rejected and fall back to
// retraining, never mis-parse.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <sstream>
#include <string>

#include "cardest/bayescard_est.h"
#include "cardest/binner.h"
#include "cardest/model_store.h"
#include "cardest/noisy_oracle_est.h"
#include "cardest/postgres_est.h"
#include "cardest/registry.h"
#include "common/rng.h"
#include "common/serde.h"
#include "datagen/stats_gen.h"
#include "exec/true_card.h"
#include "harness/bench_env.h"
#include "metrics/metrics.h"
#include "query/parser.h"

namespace cardbench {
namespace {

Column SkewedColumn(size_t n, uint64_t seed) {
  Rng rng(seed);
  Column col("c", ColumnKind::kNumeric);
  for (size_t i = 0; i < n; ++i) {
    if (rng.NextBool(0.1)) {
      col.AppendNull();
    } else {
      col.Append(rng.NextZipf(200, 1.2));
    }
  }
  return col;
}

TEST(BinnerSerializationTest, RoundTripPreservesEverything) {
  const Column col = SkewedColumn(3000, 9);
  ColumnBinner original(col, 16);
  SectionWriter out;
  original.Serialize(out);
  SectionReader in(out.bytes());
  auto restored = ColumnBinner::Deserialize(in);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  ASSERT_EQ(restored->num_bins(), original.num_bins());
  for (uint16_t b = 0; b < original.num_bins(); ++b) {
    EXPECT_DOUBLE_EQ(restored->BinMass(b), original.BinMass(b));
    EXPECT_DOUBLE_EQ(restored->BinMean(b), original.BinMean(b));
    EXPECT_DOUBLE_EQ(restored->BinInverseMean(b), original.BinInverseMean(b));
  }
  // Selectivities and bin assignment agree on probe values.
  for (Value v : {0, 1, 5, 50, 199, 1000}) {
    EXPECT_EQ(restored->BinOf(v), original.BinOf(v)) << v;
    std::vector<Predicate> preds = {{"t", "c", CompareOp::kLe, v}};
    const auto a = original.PredicateFractions(preds);
    const auto b = restored->PredicateFractions(preds);
    for (size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
  }
}

TEST(BinnerSerializationTest, RejectsGarbage) {
  SectionReader in("not a binner at all");
  EXPECT_FALSE(ColumnBinner::Deserialize(in).ok());
}

TEST(SerdeFormatTest, RoundTripAndTagCheck) {
  ModelWriter writer("demo");
  SectionWriter& s = writer.AddSection("payload");
  s.PutU64(42);
  s.PutString("hello");
  s.PutDoubles({1.5, -2.25});
  std::stringstream stream;
  ASSERT_TRUE(writer.WriteTo(stream).ok());

  auto reader = ModelReader::Open(stream, "demo");
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto section = reader->Section("payload");
  ASSERT_TRUE(section.ok());
  EXPECT_EQ(*section->GetU64(), 42u);
  EXPECT_EQ(*section->GetString(), "hello");
  EXPECT_EQ(*section->GetDoubles(), (std::vector<double>{1.5, -2.25}));
  EXPECT_TRUE(section->AtEnd());
  EXPECT_FALSE(reader->Section("missing").ok());

  // Same bytes under the wrong expected tag are refused.
  stream.clear();
  stream.seekg(0);
  EXPECT_FALSE(ModelReader::Open(stream, "other").ok());
}

// ---------------------------------------------------------------------------
// Full-zoo round trip through the model store.
// ---------------------------------------------------------------------------

BenchFlags LifecycleFlags() {
  BenchFlags flags;
  flags.fast = true;
  flags.scale = 0.05;
  flags.max_queries = 6;
  flags.exec_timeout = 10.0;
  flags.cache_dir = ::testing::TempDir() + "/cardbench_lifecycle_cache";
  // One store per process: ctest runs each estimator's case in its own
  // process, and a shared store would let one process's cold-start wipe
  // delete another's artifacts mid-test.
  flags.model_dir = ::testing::TempDir() + "/cardbench_lifecycle_models_" +
                    std::to_string(getpid());
  flags.training_queries = 100;
  return flags;
}

class EstimatorLifecycleTest : public ::testing::TestWithParam<std::string> {
 protected:
  static void SetUpTestSuite() {
    if (env_ != nullptr) return;
    // Stale artifacts (a recycled pid) would turn the "train" leg into a
    // second load; start every suite run from a cold store.
    std::filesystem::remove_all(LifecycleFlags().model_dir);
    auto env = BenchEnv::Create(BenchDataset::kStats, LifecycleFlags());
    ASSERT_TRUE(env.ok()) << env.status().ToString();
    env_ = env->release();
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(LifecycleFlags().model_dir);
  }

  static BenchEnv* env_;
};

BenchEnv* EstimatorLifecycleTest::env_ = nullptr;

TEST_P(EstimatorLifecycleTest, StoreRoundTripIsBitIdentical) {
  const std::string name = GetParam();

  if (name == "TrueCard") {
    // The oracle has no model: nothing to persist, size zero by definition.
    auto est = env_->MakeNamedEstimator(name);
    ASSERT_TRUE(est.ok()) << est.status().ToString();
    std::stringstream sink;
    EXPECT_EQ((*est)->Serialize(sink).code(), StatusCode::kUnsupported);
    EXPECT_EQ((*est)->ModelBytes(), 0u);
    return;
  }

  ModelStoreStats first_stats;
  auto trained = env_->MakeNamedEstimator(name, &first_stats);
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  ASSERT_TRUE(std::filesystem::exists(first_stats.path))
      << name << " was not persisted to " << first_stats.path;
  EXPECT_GT((*trained)->ModelBytes(), 0u);

  ModelStoreStats second_stats;
  auto loaded = env_->MakeNamedEstimator(name, &second_stats);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(second_stats.loaded) << name << " retrained on a warm store";
  EXPECT_FALSE(second_stats.rebuilt_after_corruption);
  EXPECT_EQ((*loaded)->name(), (*trained)->name());
  // The loaded twin serializes to an artifact of the same size.
  EXPECT_EQ((*loaded)->ModelBytes(), (*trained)->ModelBytes());

  const Optimizer& opt = env_->optimizer();
  for (const auto& ctx : env_->query_contexts()) {
    // The Query overload compiles against the estimator's database, which a
    // loaded estimator must have received as well.
    EXPECT_EQ((*loaded)->EstimateCard(*ctx.query),
              (*trained)->EstimateCard(*ctx.query))
        << ctx.query->name;

    auto plan_trained = opt.Plan(*ctx.graph, **trained);
    auto plan_loaded = opt.Plan(*ctx.graph, **loaded);
    ASSERT_TRUE(plan_trained.ok()) << plan_trained.status().ToString();
    ASSERT_TRUE(plan_loaded.ok()) << plan_loaded.status().ToString();

    // Bit-identical injected cardinalities for every estimated sub-plan.
    EXPECT_EQ(plan_loaded->num_estimates, plan_trained->num_estimates);
    ASSERT_EQ(plan_loaded->injected_cards.size(),
              plan_trained->injected_cards.size());
    for (const auto& [mask, card] : plan_trained->injected_cards) {
      auto it = plan_loaded->injected_cards.find(mask);
      ASSERT_NE(it, plan_loaded->injected_cards.end())
          << ctx.query->name << " mask " << mask;
      EXPECT_EQ(it->second, card)
          << ctx.query->name << " mask " << mask << " under " << name;
    }

    // Same chosen plan and cost, hence the same EXPLAIN output.
    EXPECT_EQ(plan_loaded->plan->Explain(), plan_trained->plan->Explain())
        << ctx.query->name;
    EXPECT_EQ(plan_loaded->plan->estimated_cost,
              plan_trained->plan->estimated_cost);

    // Same P-Error: identical plans recost identically against the shared
    // true-cardinality denominator.
    const double cost_trained =
        opt.RecostWithCards(*plan_trained->plan, ctx.true_cards);
    const double cost_loaded =
        opt.RecostWithCards(*plan_loaded->plan, ctx.true_cards);
    EXPECT_EQ(cost_loaded, cost_trained) << ctx.query->name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllEstimators, EstimatorLifecycleTest,
                         ::testing::ValuesIn(AllEstimatorNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Direct stream round trips and post-load behavior.
// ---------------------------------------------------------------------------

TEST(PostgresModelSerializationTest, LoadedModelEstimatesIdentically) {
  StatsGenConfig config;
  config.scale = 0.03;
  auto db = GenerateStatsDatabase(config);
  PostgresEstimator original(*db);
  std::stringstream stream;
  ASSERT_TRUE(original.Serialize(stream).ok());

  auto loaded = PostgresEstimator::Deserialize(*db, stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  for (const char* sql : {
           "SELECT COUNT(*) FROM users WHERE users.Reputation >= 100;",
           "SELECT COUNT(*) FROM posts WHERE posts.PostTypeId = 1 AND "
           "posts.Score >= 3;",
           "SELECT COUNT(*) FROM users, badges WHERE users.Id = "
           "badges.UserId AND badges.Date >= 1000;",
       }) {
    auto q = ParseSql(sql);
    ASSERT_TRUE(q.ok());
    EXPECT_DOUBLE_EQ((*loaded)->EstimateCard(*q), original.EstimateCard(*q))
        << sql;
  }
}

TEST(PostgresModelSerializationTest, DeserializeFromEmptyStreamFails) {
  StatsGenConfig config;
  config.scale = 0.02;
  auto db = GenerateStatsDatabase(config);
  std::stringstream empty;
  auto result = PostgresEstimator::Deserialize(*db, empty);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

TEST(BayesCardSerializationTest, LoadedModelStillUpdates) {
  // The deserialized model (no row bins in memory) must survive the
  // incremental-update path: bins are recomputed lazily on Update().
  StatsGenConfig config;
  config.scale = 0.04;
  auto db = GenerateStatsDatabase(config);
  BayesCardEstimator original(*db);
  std::stringstream stream;
  ASSERT_TRUE(original.Serialize(stream).ok());
  auto loaded = BayesCardEstimator::Deserialize(*db, stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  Table& tags = db->TableOrDie("tags");
  const size_t before = tags.num_rows();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        tags.AppendRow({static_cast<Value>(before + 1 + i), 77, std::nullopt})
            .ok());
  }
  ASSERT_TRUE((*loaded)->Update().ok());
  Query q;
  q.tables = {"tags"};
  // The updated estimate tracks the new row count.
  EXPECT_NEAR((*loaded)->EstimateCard(q), static_cast<double>(before + 20),
              (before + 20) * 0.05);
}

TEST(RegistryDeserializeTest, RefusesMismatchedArtifact) {
  StatsGenConfig config;
  config.scale = 0.02;
  auto db = GenerateStatsDatabase(config);
  PostgresEstimator pg(*db);
  std::stringstream stream;
  ASSERT_TRUE(pg.Serialize(stream).ok());
  // A pgstats artifact must not deserialize as MultiHist.
  auto wrong = DeserializeEstimator("MultiHist", *db, stream);
  EXPECT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);
}

TEST(NoisyOracleTest, SigmaZeroIsExactAndDeterministic) {
  StatsGenConfig config;
  config.scale = 0.02;
  auto db = GenerateStatsDatabase(config);
  TrueCardService svc(*db);
  NoisyOracleEstimator exact(svc, 0.0);
  auto q = ParseSql("SELECT COUNT(*) FROM users WHERE users.Reputation >= 5;");
  ASSERT_TRUE(q.ok());
  const double truth = *svc.Card(*q);
  EXPECT_DOUBLE_EQ(exact.EstimateCard(*q), std::max(1.0, truth));

  // Same sub-plan, same perturbation — across calls and instances.
  NoisyOracleEstimator noisy_a(svc, 2.0);
  NoisyOracleEstimator noisy_b(svc, 2.0);
  const double first = noisy_a.EstimateCard(*q);
  EXPECT_DOUBLE_EQ(noisy_a.EstimateCard(*q), first);
  EXPECT_DOUBLE_EQ(noisy_b.EstimateCard(*q), first);
}

TEST(NoisyOracleTest, ErrorMagnitudeTracksSigma) {
  StatsGenConfig config;
  config.scale = 0.03;
  auto db = GenerateStatsDatabase(config);
  TrueCardService svc(*db);
  NoisyOracleEstimator mild(svc, 0.5);
  NoisyOracleEstimator wild(svc, 4.0);

  Rng rng(3);
  double mild_err = 0, wild_err = 0;
  size_t n = 0;
  for (const auto& table : db->table_names()) {
    Query q;
    q.tables = {table};
    const double truth = *svc.Card(q);
    mild_err += QError(mild.EstimateCard(q), truth);
    wild_err += QError(wild.EstimateCard(q), truth);
    ++n;
  }
  EXPECT_GT(wild_err / static_cast<double>(n),
            mild_err / static_cast<double>(n));
}

}  // namespace
}  // namespace cardbench
