// Tests of the online-refresh pipeline: streaming insert feed determinism,
// atomic batch validation, incremental-vs-full-retrain estimate quality,
// versioned hot-swap linearizability under concurrent load, model-version
// stamping, and pre-admission purging of expired queue entries.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cardest/insertion_batch.h"
#include "cardest/registry.h"
#include "common/str_util.h"
#include "datagen/stats_gen.h"
#include "datagen/streaming_feed.h"
#include "datagen/update_split.h"
#include "exec/true_card.h"
#include "metrics/metrics.h"
#include "query/parser.h"
#include "query/query_graph.h"
#include "service/estimation_service.h"
#include "service/request_queue.h"
#include "workload/workload_gen.h"

namespace cardbench {
namespace {

Query Parse(const std::string& sql) {
  auto q = ParseSql(sql);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return *q;
}

std::unique_ptr<Database> SmallStats(uint64_t seed = 7) {
  StatsGenConfig config;
  config.scale = 0.15;
  config.seed = seed;
  return GenerateStatsDatabase(config);
}

// ---------------------------------------------------------------------------
// StreamingInsertFeed
// ---------------------------------------------------------------------------

TEST(StreamingFeedTest, DeterministicBatchesAndVersionProgression) {
  // Two identical generations replayed through two feeds must produce the
  // same batch sequence (tables, deltas, versions) — re-runs are exact.
  auto db1 = SmallStats();
  auto db2 = SmallStats();
  TimeSplit split1 = SplitDatabaseByTime(*db1, StatsTimestampColumn, 0.5);
  TimeSplit split2 = SplitDatabaseByTime(*db2, StatsTimestampColumn, 0.5);
  StreamingInsertFeed feed1(*split1.stale, std::move(split1.insertions),
                            StatsTimestampColumn, 4);
  StreamingInsertFeed feed2(*split2.stale, std::move(split2.insertions),
                            StatsTimestampColumn, 4);
  ASSERT_EQ(feed1.num_batches(), feed2.num_batches());
  ASSERT_EQ(feed1.total_rows(), feed2.total_rows());
  ASSERT_GT(feed1.num_batches(), 1u);

  uint64_t expected_version = split1.stale->data_version();
  while (!feed1.Done()) {
    auto b1 = feed1.ApplyNext(*split1.stale);
    auto b2 = feed2.ApplyNext(*split2.stale);
    ASSERT_TRUE(b1.ok()) << b1.status().ToString();
    ASSERT_TRUE(b2.ok()) << b2.status().ToString();
    EXPECT_FALSE(b1->IsFullRefresh());
    EXPECT_GT(b1->total_inserted_rows(), 0u);
    EXPECT_EQ(b1->data_version, ++expected_version);
    EXPECT_EQ(b1->data_version, b2->data_version);
    ASSERT_EQ(b1->tables.size(), b2->tables.size());
    for (size_t i = 0; i < b1->tables.size(); ++i) {
      EXPECT_EQ(b1->tables[i].table, b2->tables[i].table);
      EXPECT_EQ(b1->tables[i].old_num_rows, b2->tables[i].old_num_rows);
      EXPECT_EQ(b1->tables[i].new_num_rows, b2->tables[i].new_num_rows);
    }
  }
  EXPECT_TRUE(feed2.Done());
  auto exhausted = feed1.ApplyNext(*split1.stale);
  EXPECT_EQ(exhausted.status().code(), StatusCode::kOutOfRange);

  // All rows arrived: the streamed copy caught up with the full data.
  for (const auto& name : db1->table_names()) {
    EXPECT_EQ(split1.stale->TableOrDie(name).num_rows(),
              db1->TableOrDie(name).num_rows())
        << name;
  }
}

TEST(StreamingFeedTest, TimestampLessTablesSplitByRowPosition) {
  // A table with no timestamp column still spreads across batches by row
  // position: row j of n lands in batch floor(j * k / n), deterministically.
  Database db("plain");
  auto table = db.AddTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->AddColumn("v", ColumnKind::kNumeric).ok());

  std::vector<TimeSplit::Insertion> insertions;
  TimeSplit::Insertion ins;
  ins.table = "t";
  for (int i = 0; i < 10; ++i) {
    ins.rows.push_back({std::optional<Value>(i)});
  }
  insertions.push_back(std::move(ins));

  StreamingInsertFeed feed(db, std::move(insertions),
                           [](const std::string&) { return std::string(); },
                           4);
  EXPECT_EQ(feed.total_rows(), 10u);
  std::vector<size_t> batch_sizes;
  while (!feed.Done()) {
    auto batch = feed.ApplyNext(db);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    batch_sizes.push_back(batch->total_inserted_rows());
  }
  // floor(j*4/10): rows 0-2 | 3-4 | 5-7 | 8-9.
  EXPECT_EQ(batch_sizes, (std::vector<size_t>{3, 2, 3, 2}));
  EXPECT_EQ(db.TableOrDie("t").num_rows(), 10u);
}

// ---------------------------------------------------------------------------
// ApplyInsertions validation
// ---------------------------------------------------------------------------

TEST(ApplyInsertionsTest, SchemaMismatchIsStructuredErrorAndAtomic) {
  Database db("d");
  auto table = db.AddTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->AddColumn("a", ColumnKind::kNumeric).ok());
  ASSERT_TRUE((*table)->AddColumn("b", ColumnKind::kNumeric).ok());
  ASSERT_TRUE((*table)->AppendRow({Value{1}, Value{2}}).ok());
  const uint64_t version_before = db.data_version();

  // Batch 1 is valid, batch 2 has a row of the wrong width: nothing may be
  // applied — not even the valid prefix — and the version must not move.
  std::vector<TimeSplit::Insertion> bad;
  bad.push_back({"t", {{Value{3}, Value{4}}}});
  bad.push_back({"t", {{Value{5}}}});  // one column short
  const Status status = ApplyInsertions(db, bad);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("t"), std::string::npos);
  EXPECT_EQ(db.TableOrDie("t").num_rows(), 1u);
  EXPECT_EQ(db.data_version(), version_before);

  std::vector<TimeSplit::Insertion> unknown;
  unknown.push_back({"nope", {{Value{1}, Value{2}}}});
  EXPECT_EQ(ApplyInsertions(db, unknown).code(), StatusCode::kNotFound);
  EXPECT_EQ(db.data_version(), version_before);

  // A valid batch still applies and bumps the version once.
  std::vector<TimeSplit::Insertion> good;
  good.push_back({"t", {{Value{3}, Value{4}}, {Value{5}, Value{6}}}});
  EXPECT_TRUE(ApplyInsertions(db, good).ok());
  EXPECT_EQ(db.TableOrDie("t").num_rows(), 3u);
  EXPECT_EQ(db.data_version(), version_before + 1);
}

// ---------------------------------------------------------------------------
// Update(batch): the batch check and the zoo's outcomes
// ---------------------------------------------------------------------------

std::string ArtifactBytes(const CardinalityEstimator& est) {
  std::ostringstream out;
  EXPECT_TRUE(est.Serialize(out).ok()) << est.name();
  return out.str();
}

struct MalformedBatch {
  std::string what;
  InsertionBatch batch;
  StatusCode code;
};

/// Batches no database state can explain, over a database whose `tags`
/// table holds `tags_rows` rows. The last two open with a well-formed
/// delta, so a model that applied a prefix before failing would change.
std::vector<MalformedBatch> MalformedBatches(size_t tags_rows) {
  auto batch_of = [](std::vector<TableDelta> tables) {
    InsertionBatch batch;
    batch.data_version = 1;
    batch.tables = std::move(tables);
    return batch;
  };
  return {
      {"reversed range",
       batch_of({{"tags", tags_rows, tags_rows - 1}}),
       StatusCode::kInvalidArgument},
      {"range past the table end",
       batch_of({{"tags", tags_rows, tags_rows + 20000}}),
       StatusCode::kInvalidArgument},
      {"unknown table",
       batch_of({{"tags", 0, tags_rows}, {"no_such_table", 0, 1}}),
       StatusCode::kNotFound},
      {"same table twice",
       batch_of({{"tags", 0, tags_rows}, {"tags", 0, tags_rows}}),
       StatusCode::kInvalidArgument},
  };
}

std::unique_ptr<Database> GoldenScaleStats() {
  StatsGenConfig config;
  config.scale = 0.05;
  return GenerateStatsDatabase(config);
}

TEST(UpdateBatchTest, MalformedBatchesAreRejectedBeforeAnyStateChanges) {
  auto db = GoldenScaleStats();
  TrueCardService cards(*db);
  const size_t tags_rows = db->TableOrDie("tags").num_rows();
  for (const std::string name : {"UniSample", "MultiHist"}) {
    auto est = MakeEstimator(name, *db, cards, nullptr);
    ASSERT_TRUE(est.ok()) << name << ": " << est.status().ToString();
    for (const MalformedBatch& bad : MalformedBatches(tags_rows)) {
      const std::string before = ArtifactBytes(**est);
      const Status status = (*est)->Update(bad.batch);
      EXPECT_EQ(status.code(), bad.code)
          << name << ": " << bad.what << ": " << status.ToString();
      EXPECT_TRUE(ArtifactBytes(**est) == before) << name << ": " << bad.what;
    }
  }
}

TEST(UpdateBatchTest, RefreshRejectsMalformedBatchesWithoutNewVersions) {
  auto db = GoldenScaleStats();
  TrueCardService cards(*db);
  EstimationService service;
  for (const std::string name : {"UniSample", "MultiHist"}) {
    auto est = MakeEstimator(name, *db, cards, nullptr);
    ASSERT_TRUE(est.ok()) << name << ": " << est.status().ToString();
    service.RegisterEstimator(std::move(*est));
  }
  for (const MalformedBatch& bad :
       MalformedBatches(db->TableOrDie("tags").num_rows())) {
    std::unordered_map<std::string, std::string> before;
    for (const std::string name : {"UniSample", "MultiHist"}) {
      before[name] = ArtifactBytes(*service.GetEstimator(name));
    }
    RefreshReport report;
    const Status status = service.Refresh(bad.batch, &report);
    EXPECT_EQ(status.code(), bad.code)
        << bad.what << ": " << status.ToString();
    for (const RefreshReport::Entry& entry : report.entries) {
      EXPECT_EQ(entry.status.code(), bad.code)
          << entry.name << ": " << bad.what << ": "
          << entry.status.ToString();
      EXPECT_FALSE(entry.full_retrain_required) << entry.name;
    }
    for (const auto& info : service.VersionInfo()) {
      EXPECT_EQ(info.model_version, 1u) << info.name << ": " << bad.what;
      EXPECT_TRUE(ArtifactBytes(*service.GetEstimator(info.name)) ==
                  before[info.name])
          << info.name << ": " << bad.what;
    }
  }
}

TEST(UpdateBatchTest, ZooOutcomesOfAFullRefresh) {
  // Data-driven models refresh from the grown data alone; the oracle, the
  // walk sampler, UAE and the query-driven models need a full retrain.
  const std::unordered_map<std::string, StatusCode> expected = {
      {"PostgreSQL", StatusCode::kOk},
      {"MultiHist", StatusCode::kOk},
      {"UniSample", StatusCode::kOk},
      {"PessEst", StatusCode::kOk},
      {"NeuroCardE", StatusCode::kOk},
      {"BayesCard", StatusCode::kOk},
      {"DeepDB", StatusCode::kOk},
      {"FLAT", StatusCode::kOk},
      {"TrueCard", StatusCode::kUnsupported},
      {"WJSample", StatusCode::kUnsupported},
      {"MSCN", StatusCode::kUnsupported},
      {"LW-XGB", StatusCode::kUnsupported},
      {"LW-NN", StatusCode::kUnsupported},
      {"UAE-Q", StatusCode::kUnsupported},
      {"UAE", StatusCode::kUnsupported},
  };
  ASSERT_EQ(AllEstimatorNames().size(), expected.size());

  auto full = GoldenScaleStats();
  TimeSplit split = SplitDatabaseByTime(*full, StatsTimestampColumn, 0.5);
  Database& db = *split.stale;
  TrueCardService cards(db);
  auto training = GenerateTrainingQueries(db, cards, 60, 11);
  ASSERT_TRUE(training.ok()) << training.status().ToString();
  EstimatorConfig config;
  config.fast = true;
  std::unordered_map<std::string, std::unique_ptr<CardinalityEstimator>> zoo;
  for (const std::string& name : AllEstimatorNames()) {
    ASSERT_EQ(expected.count(name), 1u) << name;
    auto est = MakeEstimator(name, db, cards, &*training, config);
    ASSERT_TRUE(est.ok()) << name << ": " << est.status().ToString();
    EXPECT_EQ((*est)->Update(InsertionBatch{}).code(), expected.at(name))
        << name;
    zoo[name] = std::move(*est);
  }

  // The query-driven models refresh from a batch that carries re-labeled
  // queries.
  StreamingInsertFeed feed(db, std::move(split.insertions),
                           StatsTimestampColumn, 2);
  auto batch = feed.ApplyNext(db);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  TrueCardService now(db);
  auto refresh_training = GenerateTrainingQueries(db, now, 60, 11);
  ASSERT_TRUE(refresh_training.ok());
  batch->refresh_training = &*refresh_training;
  for (const std::string name : {"MSCN", "LW-NN", "LW-XGB"}) {
    const Status status = zoo.at(name)->Update(*batch);
    EXPECT_TRUE(status.ok()) << name << ": " << status.ToString();
  }
}

// ---------------------------------------------------------------------------
// Incremental refresh quality vs full retrain
// ---------------------------------------------------------------------------

double MedianQError(const CardinalityEstimator& est,
                    const std::vector<TrainingQuery>& probes) {
  std::vector<double> qerrors;
  for (const auto& probe : probes) {
    qerrors.push_back(QError(est.EstimateCard(probe.query),
                             probe.cardinality));
  }
  return ComputePercentiles(std::move(qerrors)).p50;
}

TEST(DriftTest, IncrementalRefreshTracksFullRetrain) {
  auto full = SmallStats();
  TimeSplit split = SplitDatabaseByTime(*full, StatsTimestampColumn, 0.5);
  Database& db = *split.stale;
  TrueCardService cards(db);
  EstimatorConfig config;
  config.fast = true;

  // Training queries labeled on the stale half (pre-drift state).
  auto stale_training = GenerateTrainingQueries(db, cards, 60, 11);
  ASSERT_TRUE(stale_training.ok()) << stale_training.status().ToString();

  // Build the incremental candidates before the drift.
  std::vector<std::string> names = {"UniSample", "MultiHist", "LW-XGB",
                                    "LW-NN", "MSCN"};
  std::vector<std::unique_ptr<CardinalityEstimator>> incremental;
  for (const auto& name : names) {
    auto est = MakeEstimator(name, db, cards, &*stale_training, config);
    ASSERT_TRUE(est.ok()) << name << ": " << est.status().ToString();
    incremental.push_back(std::move(*est));
  }

  // Stream the drift in and refresh each candidate per batch.
  StreamingInsertFeed feed(db, std::move(split.insertions),
                           StatsTimestampColumn, 2);
  while (!feed.Done()) {
    auto batch = feed.ApplyNext(db);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    TrueCardService now(db);
    auto refresh_training = GenerateTrainingQueries(db, now, 60, 11);
    ASSERT_TRUE(refresh_training.ok());
    batch->refresh_training = &*refresh_training;
    for (auto& est : incremental) {
      const Status status = est->Update(*batch);
      EXPECT_TRUE(status.ok()) << est->name() << ": " << status.ToString();
    }
  }

  // Full retrains on the caught-up data, and probes labeled on it.
  TrueCardService now(db);
  auto final_training = GenerateTrainingQueries(db, now, 60, 11);
  ASSERT_TRUE(final_training.ok());
  auto probes = GenerateTrainingQueries(db, now, 40, 23);
  ASSERT_TRUE(probes.ok());
  for (size_t i = 0; i < names.size(); ++i) {
    auto retrained =
        MakeEstimator(names[i], db, now, &*final_training, config);
    ASSERT_TRUE(retrained.ok()) << names[i];
    const double inc_q = MedianQError(*incremental[i], *probes);
    const double full_q = MedianQError(**retrained, *probes);
    // Generous but meaningful bound: the incrementally refreshed model must
    // stay within a small factor of the retrain on median Q-Error (an
    // un-refreshed model drifts far beyond this at a 50% data split).
    EXPECT_LE(inc_q, 8.0 * full_q + 8.0)
        << names[i] << ": incremental " << inc_q << " vs retrain " << full_q;
  }
}

// ---------------------------------------------------------------------------
// Hot-swap linearizability and version stamping
// ---------------------------------------------------------------------------

/// The database the fakes below are built over and the requests' queries
/// are compiled against.
const Database& SchemaDb() {
  static const Database* db = SmallStats().release();
  return *db;
}

/// Deterministic estimator parameterized by a generation tag: every answer
/// is a pure function of (tag, sub-plan key), so a torn read — a response
/// mixing two generations — is detectable by exact comparison. A
/// refreshable one moves to the next generation in place on Update; the
/// others answer Unsupported (full retrain required).
class TaggedEstimator : public CardinalityEstimator {
 public:
  explicit TaggedEstimator(double tag, std::string name = "Tagged",
                           bool refreshable = false)
      : CardinalityEstimator(SchemaDb()),
        tag_(tag),
        name_(std::move(name)),
        refreshable_(refreshable) {}
  std::string name() const override { return name_; }
  using CardinalityEstimator::EstimateCard;
  double EstimateCard(const QueryGraph& graph, uint64_t mask) const override {
    return tag_ * 1e9 +
           static_cast<double>(Fnv1aHash(graph.CanonicalKey(mask)) % 1000003);
  }

 private:
  Status UpdateImpl(const InsertionBatch&) override {
    if (!refreshable_) return Status::Unsupported(name_ + " needs a retrain");
    tag_ += 1.0;
    return Status::OK();
  }

  double tag_;
  std::string name_;
  bool refreshable_;
};

std::unordered_map<uint64_t, double> ExpectedCards(double tag,
                                                   const Query& query) {
  TaggedEstimator reference(tag);
  std::unordered_map<uint64_t, double> cards;
  for (uint64_t mask : EnumerateConnectedSubsets(query)) {
    cards[mask] = mask == query.FullMask()
                      ? reference.EstimateCard(query)
                      : reference.EstimateCard(query.Induced(mask));
  }
  return cards;
}

TEST(DriftTest, HotSwapIsLinearizableUnderConcurrentLoad) {
  const Query query = Parse(
      "SELECT COUNT(*) FROM users, posts, comments WHERE users.Id = "
      "posts.OwnerUserId AND posts.Id = comments.PostId AND "
      "posts.Score >= 5;");
  const QueryGraph graph(query, SchemaDb());
  const auto v1_cards = ExpectedCards(1.0, query);
  const auto v2_cards = ExpectedCards(2.0, query);

  ServiceOptions options;
  options.num_threads = 4;
  options.queue_depth = 4096;
  EstimationService service(options);
  service.RegisterEstimator(std::make_unique<TaggedEstimator>(1.0));

  // Readers hammer the service across the swap; every response must be
  // entirely v1 or entirely v2 (no torn mix) with the matching stamped
  // model_version, and nothing may fail or be shed.
  std::atomic<bool> stop{false};
  std::atomic<size_t> v1_seen{0}, v2_seen{0};
  std::vector<std::string> errors;
  std::mutex errors_mu;
  auto reader = [&] {
    while (!stop.load()) {
      std::promise<EstimateResponse> promise;
      auto future = promise.get_future();
      EstimateRequest request;
      request.estimator = "Tagged";
      request.graph = &graph;
      const Status submitted = service.Submit(
          std::move(request),
          [&promise](EstimateResponse r) { promise.set_value(std::move(r)); });
      if (!submitted.ok()) {
        std::lock_guard<std::mutex> lock(errors_mu);
        errors.push_back("submit: " + submitted.ToString());
        return;
      }
      const EstimateResponse response = future.get();
      if (!response.status.ok()) {
        std::lock_guard<std::mutex> lock(errors_mu);
        errors.push_back("response: " + response.status.ToString());
        return;
      }
      const bool is_v1 =
          response.model_version == 1 && response.cards == v1_cards;
      const bool is_v2 =
          response.model_version == 2 && response.cards == v2_cards;
      if (is_v1) v1_seen.fetch_add(1);
      if (is_v2) v2_seen.fetch_add(1);
      if (!is_v1 && !is_v2) {
        std::lock_guard<std::mutex> lock(errors_mu);
        errors.push_back(
            "torn response at model_version " +
            std::to_string(response.model_version));
        return;
      }
    }
  };
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) readers.emplace_back(reader);

  // Let v1 serve, swap, let v2 serve.
  while (v1_seen.load() < 50 && errors.empty()) std::this_thread::yield();
  service.HotSwapEstimator(std::make_unique<TaggedEstimator>(2.0), 2, 0.5);
  while (v2_seen.load() < 50 && errors.empty()) std::this_thread::yield();
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_TRUE(errors.empty()) << errors.front();
  EXPECT_GE(v1_seen.load(), 50u);
  EXPECT_GE(v2_seen.load(), 50u);

  const auto info = service.VersionInfo();
  ASSERT_EQ(info.size(), 1u);
  EXPECT_EQ(info[0].model_version, 2u);
  EXPECT_EQ(info[0].refresh_count, 1u);
  EXPECT_DOUBLE_EQ(info[0].last_refresh_seconds, 0.5);
}

TEST(DriftTest, RefreshIsLinearizableUnderConcurrentLoad) {
  const Query query = Parse(
      "SELECT COUNT(*) FROM users, posts, comments WHERE users.Id = "
      "posts.OwnerUserId AND posts.Id = comments.PostId AND "
      "posts.Score >= 5;");
  const QueryGraph graph(query, SchemaDb());
  const auto v1_cards = ExpectedCards(1.0, query);
  const auto v2_cards = ExpectedCards(2.0, query);
  const auto frozen_cards = ExpectedCards(7.0, query);

  ServiceOptions options;
  options.num_threads = 4;
  options.queue_depth = 4096;
  EstimationService service(options);
  service.RegisterEstimator(std::make_unique<TaggedEstimator>(
      1.0, "Tagged", /*refreshable=*/true));
  service.RegisterEstimator(std::make_unique<TaggedEstimator>(7.0, "Frozen"));

  // Readers hammer the (soon cached) query on both estimators across an
  // in-place Refresh. "Tagged" refreshes to generation 2: every response
  // must be entirely v1 at model_version 1 or entirely v2 at version 2.
  // "Frozen" answers Unsupported and keeps version 1 and its answers,
  // though it too restarts from a fresh cache epoch.
  std::atomic<bool> stop{false};
  std::atomic<size_t> v1_seen{0}, v2_seen{0}, frozen_seen{0};
  std::vector<std::string> errors;
  std::mutex errors_mu;
  auto fail = [&](std::string error) {
    std::lock_guard<std::mutex> lock(errors_mu);
    errors.push_back(std::move(error));
  };
  auto reader = [&](int id) {
    for (size_t i = id; !stop.load(); ++i) {
      const bool frozen = i % 2 == 1;
      std::promise<EstimateResponse> promise;
      auto future = promise.get_future();
      EstimateRequest request;
      request.estimator = frozen ? "Frozen" : "Tagged";
      request.graph = &graph;
      const Status submitted = service.Submit(
          std::move(request),
          [&promise](EstimateResponse r) { promise.set_value(std::move(r)); });
      if (!submitted.ok()) return fail("submit: " + submitted.ToString());
      const EstimateResponse response = future.get();
      if (!response.status.ok()) {
        return fail("response: " + response.status.ToString());
      }
      if (frozen) {
        if (response.model_version != 1 || response.cards != frozen_cards) {
          return fail("frozen estimator changed at model_version " +
                      std::to_string(response.model_version));
        }
        frozen_seen.fetch_add(1);
        continue;
      }
      const bool is_v1 =
          response.model_version == 1 && response.cards == v1_cards;
      const bool is_v2 =
          response.model_version == 2 && response.cards == v2_cards;
      if (is_v1) v1_seen.fetch_add(1);
      if (is_v2) v2_seen.fetch_add(1);
      if (!is_v1 && !is_v2) {
        return fail("torn response at model_version " +
                    std::to_string(response.model_version));
      }
    }
  };
  auto no_errors = [&] {
    std::lock_guard<std::mutex> lock(errors_mu);
    return errors.empty();
  };
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) readers.emplace_back(reader, i);

  // Let v1 serve from the cache, refresh, let v2 serve from the cache.
  while (v1_seen.load() < 50 && no_errors()) std::this_thread::yield();
  RefreshReport report;
  const Status refreshed = service.Refresh(InsertionBatch{}, &report);
  const size_t frozen_before = frozen_seen.load();
  while ((v2_seen.load() < 50 || frozen_seen.load() < frozen_before + 50) &&
         no_errors()) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_TRUE(refreshed.ok()) << refreshed.ToString();
  EXPECT_TRUE(errors.empty()) << errors.front();
  EXPECT_GE(v1_seen.load(), 50u);
  EXPECT_GE(v2_seen.load(), 50u);
  ASSERT_EQ(report.entries.size(), 2u);
  for (const RefreshReport::Entry& entry : report.entries) {
    EXPECT_EQ(entry.full_retrain_required, entry.name == "Frozen")
        << entry.name;
  }
  for (const auto& info : service.VersionInfo()) {
    EXPECT_EQ(info.model_version, info.name == "Frozen" ? 1u : 2u)
        << info.name;
  }
  // The estimates cached before the refresh were not served after it.
  const EstimateCacheStats stats = service.cache_stats();
  EXPECT_GE(stats.misses, 4 * graph.connected_subsets().size());
}

TEST(DriftTest, ResponsesStampTheServingModelVersion) {
  EstimationService service;
  service.RegisterEstimator(std::make_unique<TaggedEstimator>(1.0));
  const Query query =
      Parse("SELECT COUNT(*) FROM users WHERE users.Reputation >= 100;");
  const QueryGraph graph(query, SchemaDb());

  auto cards = service.EstimateQuerySync("Tagged", graph);
  ASSERT_TRUE(cards.ok());

  std::promise<EstimateResponse> promise;
  auto future = promise.get_future();
  EstimateRequest request;
  request.estimator = "Tagged";
  request.graph = &graph;
  ASSERT_TRUE(service
                  .Submit(std::move(request),
                          [&promise](EstimateResponse r) {
                            promise.set_value(std::move(r));
                          })
                  .ok());
  EXPECT_EQ(future.get().model_version, 1u);

  service.HotSwapEstimator(std::make_unique<TaggedEstimator>(2.0), 7);
  std::promise<EstimateResponse> promise2;
  auto future2 = promise2.get_future();
  EstimateRequest request2;
  request2.estimator = "Tagged";
  request2.graph = &graph;
  ASSERT_TRUE(service
                  .Submit(std::move(request2),
                          [&promise2](EstimateResponse r) {
                            promise2.set_value(std::move(r));
                          })
                  .ok());
  EXPECT_EQ(future2.get().model_version, 7u);
}

// ---------------------------------------------------------------------------
// Expired-entry purge at admission
// ---------------------------------------------------------------------------

TEST(RequestQueueTest, TryPushPurgeExpiredEvictsDeadEntriesFirst) {
  RequestQueue<int> queue(2);
  ASSERT_TRUE(queue.TryPush(1));
  ASSERT_TRUE(queue.TryPush(2));
  ASSERT_FALSE(queue.TryPush(3));  // full

  // Nothing expired: the push must still fail and purge nothing.
  std::vector<int> purged;
  EXPECT_FALSE(queue.TryPushPurgeExpired(
      3, [](int) { return false; }, &purged));
  EXPECT_TRUE(purged.empty());

  // Odd entries expired: they are purged into the caller's vector and the
  // new item is admitted.
  EXPECT_TRUE(queue.TryPushPurgeExpired(
      3, [](int v) { return v % 2 == 1; }, &purged));
  EXPECT_EQ(purged, (std::vector<int>{1}));
  EXPECT_EQ(queue.size(), 2u);  // {2, 3}

  int out = 0;
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 2);
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 3);
}

TEST(ServiceTest, ExpiredQueueEntriesDoNotBlockAdmission) {
  // One worker parks on a gate; the queue fills with already-expired
  // requests; a fresh request must still be admitted because the dead
  // entries are purged (and answered DeadlineExceeded) at submit.
  ServiceOptions options;
  options.num_threads = 1;
  options.queue_depth = 2;
  EstimationService service(options);

  class BlockingEstimator : public CardinalityEstimator {
   public:
    BlockingEstimator()
        : CardinalityEstimator(SchemaDb()),
          released_(release_.get_future().share()) {}
    std::string name() const override { return "Block"; }
    double EstimateCard(const QueryGraph&, uint64_t) const override {
      entered_.fetch_add(1);
      released_.wait();
      return 1.0;
    }
    void WaitUntilEntered() const {
      while (entered_.load() == 0) std::this_thread::yield();
    }
    void Release() const { release_.set_value(); }

   private:
    mutable std::promise<void> release_;
    std::shared_future<void> released_;
    mutable std::atomic<int> entered_{0};
  };
  auto blocker = std::make_unique<BlockingEstimator>();
  const BlockingEstimator* gate = blocker.get();
  service.RegisterEstimator(std::move(blocker));

  const Query query =
      Parse("SELECT COUNT(*) FROM users WHERE users.Reputation >= 100;");
  const QueryGraph graph(query, SchemaDb());
  auto submit = [&](double timeout) {
    auto promise = std::make_shared<std::promise<EstimateResponse>>();
    auto future = promise->get_future();
    EstimateRequest request;
    request.estimator = "Block";
    request.graph = &graph;
    request.timeout_seconds = timeout;
    const Status status = service.Submit(
        std::move(request),
        [promise](EstimateResponse r) { promise->set_value(std::move(r)); });
    return std::make_pair(status, std::move(future));
  };

  // Occupy the single worker (waiting until it is parked inside the
  // estimator, so the queue really holds what we enqueue next), then fill
  // the queue with microscopic deadlines and let them expire.
  auto [s0, f0] = submit(0.0);
  ASSERT_TRUE(s0.ok());
  gate->WaitUntilEntered();
  auto [s1, f1] = submit(1e-9);
  auto [s2, f2] = submit(1e-9);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  // The queue is nominally full, but both queued entries are expired: the
  // fresh request is admitted and the dead ones complete DeadlineExceeded.
  auto [s3, f3] = submit(0.0);
  EXPECT_TRUE(s3.ok()) << s3.ToString();
  EXPECT_EQ(f1.get().status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(f2.get().status.code(), StatusCode::kDeadlineExceeded);

  gate->Release();
  EXPECT_TRUE(f0.get().status.ok());
  EXPECT_TRUE(f3.get().status.ok());
}

}  // namespace
}  // namespace cardbench
