#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/str_util.h"
#include "datagen/stats_gen.h"
#include "query/parser.h"
#include "query/query_graph.h"
#include "service/estimation_service.h"
#include "service/load_driver.h"
#include "service/request_queue.h"

namespace cardbench {
namespace {

/// The schema the test queries name: requests carry the queries compiled
/// against it, and the fakes below are built over it.
const Database& TestDb() {
  static const Database* db = [] {
    StatsGenConfig config;
    config.scale = 0.01;
    return GenerateStatsDatabase(config).release();
  }();
  return *db;
}

/// Deterministic stand-in estimator: the estimate is a pure function of the
/// sub-plan's canonical key, so serial and concurrent runs must agree to the
/// last bit. Counts EstimateCard invocations to observe cache effectiveness.
class HashEstimator : public CardinalityEstimator {
 public:
  HashEstimator() : CardinalityEstimator(TestDb()) {}
  std::string name() const override { return "Hash"; }
  using CardinalityEstimator::EstimateCard;
  double EstimateCard(const QueryGraph& graph, uint64_t mask) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return 1.0 +
           static_cast<double>(Fnv1aHash(graph.CanonicalKey(mask)) % 1000003);
  }
  size_t calls() const { return calls_.load(); }

 private:
  mutable std::atomic<size_t> calls_{0};
};

/// Updatable estimator whose answers change with every Update — lets the
/// tests prove that a refresh actually invalidates cached estimates.
class VersionedEstimator : public CardinalityEstimator {
 public:
  VersionedEstimator() : CardinalityEstimator(TestDb()) {}
  std::string name() const override { return "Versioned"; }
  double EstimateCard(const QueryGraph&, uint64_t mask) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return 1e6 * static_cast<double>(model_version_.load()) +
           static_cast<double>(std::popcount(mask));
  }
  size_t calls() const { return calls_.load(); }
  size_t update_calls() const { return update_calls_; }

 private:
  Status UpdateImpl(const InsertionBatch&) override {
    model_version_.fetch_add(1);
    ++update_calls_;
    return Status::OK();
  }

  mutable std::atomic<size_t> calls_{0};
  std::atomic<uint64_t> model_version_{1};
  size_t update_calls_ = 0;
};

/// Estimator that parks inside EstimateCard until released — used to pin a
/// worker so the request queue can be filled deterministically.
class GateEstimator : public CardinalityEstimator {
 public:
  GateEstimator() : CardinalityEstimator(TestDb()) {}
  std::string name() const override { return "Gate"; }
  double EstimateCard(const QueryGraph&, uint64_t) const override {
    std::unique_lock<std::mutex> lock(mu_);
    ++entered_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
    return 42.0;
  }
  void WaitUntilEntered() const {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return entered_ > 0; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable int entered_ = 0;
  bool released_ = false;
};

Query Parse(const std::string& sql) {
  auto q = ParseSql(sql);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return *q;
}

std::vector<Query> TestQueries() {
  std::vector<Query> queries;
  queries.push_back(Parse(
      "SELECT COUNT(*) FROM users, posts, comments, badges WHERE "
      "users.Id = posts.OwnerUserId AND posts.Id = comments.PostId AND "
      "users.Id = badges.UserId AND posts.Score >= 5 AND "
      "users.Reputation >= 30;"));
  queries.push_back(Parse(
      "SELECT COUNT(*) FROM posts, comments WHERE posts.Id = "
      "comments.PostId AND comments.Score >= 1;"));
  queries.push_back(
      Parse("SELECT COUNT(*) FROM users WHERE users.Reputation >= 100;"));
  return queries;
}

/// TestQueries() compiled against TestDb(). Graphs can be neither copied
/// nor moved, so each lives behind a pointer.
std::vector<std::unique_ptr<const QueryGraph>> TestGraphs() {
  std::vector<std::unique_ptr<const QueryGraph>> graphs;
  for (const Query& q : TestQueries()) {
    graphs.push_back(std::make_unique<const QueryGraph>(q, TestDb()));
  }
  return graphs;
}

/// Serial ground truth: what one thread calling the estimator directly
/// computes for every connected sub-plan of `query`.
std::unordered_map<uint64_t, double> SerialEstimates(
    const CardinalityEstimator& estimator, const Query& query) {
  std::unordered_map<uint64_t, double> cards;
  for (uint64_t mask : EnumerateConnectedSubsets(query)) {
    cards[mask] = mask == query.FullMask()
                      ? estimator.EstimateCard(query)
                      : estimator.EstimateCard(query.Induced(mask));
  }
  return cards;
}

TEST(RequestQueueTest, TryPushRespectsCapacityAndNeverBlocks) {
  RequestQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));  // full: immediate rejection
  int out = 0;
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(queue.TryPush(3));  // space freed
  EXPECT_EQ(queue.size(), 2u);
}

TEST(RequestQueueTest, CloseDrainsPendingItemsThenReportsEmpty) {
  RequestQueue<int> queue(4);
  ASSERT_TRUE(queue.TryPush(7));
  ASSERT_TRUE(queue.TryPush(8));
  queue.Close();
  EXPECT_FALSE(queue.TryPush(9));  // closed: no new admissions
  int out = 0;
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 7);
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 8);
  EXPECT_FALSE(queue.Pop(&out));  // closed and drained
}

TEST(RequestQueueTest, ZeroCapacityClampsToOne) {
  RequestQueue<int> queue(0);
  EXPECT_EQ(queue.capacity(), 1u);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_FALSE(queue.TryPush(2));
}

TEST(EstimationServiceTest, SingleSubplanMatchesDirectEstimate) {
  EstimationService service;
  service.RegisterEstimator(std::make_unique<HashEstimator>());
  HashEstimator reference;

  const Query q = TestQueries()[1];
  const QueryGraph graph(q, TestDb());
  auto result = service.EstimateSync("Hash", graph, graph.full_mask());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, reference.EstimateCard(q));
}

TEST(EstimationServiceTest, WholeQueryCoversEveryConnectedSubplan) {
  EstimationService service;
  service.RegisterEstimator(std::make_unique<HashEstimator>());
  HashEstimator reference;

  for (const Query& q : TestQueries()) {
    auto cards = service.EstimateQuerySync("Hash", QueryGraph(q, TestDb()));
    ASSERT_TRUE(cards.ok()) << cards.status().ToString();
    const auto expected = SerialEstimates(reference, q);
    ASSERT_EQ(cards->size(), expected.size());
    for (const auto& [mask, card] : expected) {
      ASSERT_TRUE(cards->count(mask)) << "missing mask " << mask;
      EXPECT_EQ(cards->at(mask), card) << "mask " << mask;
    }
  }
}

TEST(EstimationServiceTest, UnknownEstimatorReturnsNotFound) {
  EstimationService service;
  const QueryGraph graph(TestQueries()[2], TestDb());
  auto result = service.EstimateSync("NoSuchModel", graph, graph.full_mask());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(EstimationServiceTest, SubmitAfterShutdownIsRejectedWithoutCallback) {
  EstimationService service;
  service.RegisterEstimator(std::make_unique<HashEstimator>());
  service.Shutdown();

  const QueryGraph graph(TestQueries()[2], TestDb());
  std::atomic<bool> callback_ran{false};
  Status status =
      service.Submit(EstimateRequest{"Hash", kAllSubplans, &graph},
                     [&](EstimateResponse) { callback_ran.store(true); });
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(callback_ran.load());
}

TEST(EstimationServiceTest, FullQueueRejectsWithResourceExhausted) {
  ServiceOptions options;
  options.num_threads = 1;
  options.queue_depth = 1;
  EstimationService service(options);
  auto gate = std::make_unique<GateEstimator>();
  GateEstimator* gate_ptr = gate.get();
  service.RegisterEstimator(std::move(gate));

  const QueryGraph graph(TestQueries()[2], TestDb());
  std::atomic<int> completed{0};
  auto done = [&](EstimateResponse response) {
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
    completed.fetch_add(1);
  };

  // First request occupies the single worker inside the gated EstimateCard.
  ASSERT_TRUE(service.Submit(EstimateRequest{"Gate", graph.full_mask(), &graph}, done)
                  .ok());
  gate_ptr->WaitUntilEntered();
  // Second request sits in the depth-1 queue; the third has nowhere to go.
  ASSERT_TRUE(service.Submit(EstimateRequest{"Gate", graph.full_mask(), &graph}, done)
                  .ok());
  Status overflow =
      service.Submit(EstimateRequest{"Gate", graph.full_mask(), &graph}, done);
  EXPECT_EQ(overflow.code(), StatusCode::kResourceExhausted);

  gate_ptr->Release();
  service.Shutdown();  // drains the queued request
  EXPECT_EQ(completed.load(), 2);
}

TEST(EstimationServiceTest, RejectionPayloadCarriesDepthAndRetryHint) {
  ServiceOptions options;
  options.num_threads = 1;
  options.queue_depth = 1;
  EstimationService service(options);
  auto gate = std::make_unique<GateEstimator>();
  GateEstimator* gate_ptr = gate.get();
  service.RegisterEstimator(std::move(gate));

  const QueryGraph graph(TestQueries()[2], TestDb());
  auto done = [](EstimateResponse) {};
  ASSERT_TRUE(service.Submit(EstimateRequest{"Gate", graph.full_mask(), &graph}, done)
                  .ok());
  gate_ptr->WaitUntilEntered();
  ASSERT_TRUE(service.Submit(EstimateRequest{"Gate", graph.full_mask(), &graph}, done)
                  .ok());
  Status overflow =
      service.Submit(EstimateRequest{"Gate", graph.full_mask(), &graph}, done);
  ASSERT_EQ(overflow.code(), StatusCode::kResourceExhausted);
  // The error payload is self-describing: observed depth and a backoff
  // hint, so network clients can be told when to come back.
  EXPECT_NE(overflow.message().find("depth 1/1"), std::string::npos)
      << overflow.ToString();
  EXPECT_NE(overflow.message().find("retry after"), std::string::npos);
  const double retry = service.SuggestedRetrySeconds();
  EXPECT_GE(retry, 1e-3);
  EXPECT_LE(retry, 1.0);

  gate_ptr->Release();
  service.Shutdown();  // drain the queued request while `graph` is alive
}

TEST(EstimationServiceTest, DeadlineExpiredInQueueAnswersDeadlineExceeded) {
  ServiceOptions options;
  options.num_threads = 1;
  EstimationService service(options);
  auto gate = std::make_unique<GateEstimator>();
  GateEstimator* gate_ptr = gate.get();
  service.RegisterEstimator(std::move(gate));

  const QueryGraph graph(TestQueries()[2], TestDb());
  ASSERT_TRUE(service
                  .Submit(EstimateRequest{"Gate", graph.full_mask(), &graph},
                          [](EstimateResponse response) {
                            EXPECT_TRUE(response.status.ok());
                          })
                  .ok());
  gate_ptr->WaitUntilEntered();

  // Queued behind the pinned worker with a 1ms budget: by the time a worker
  // dequeues it the deadline has passed, so it must complete with
  // DeadlineExceeded and no estimates.
  std::promise<EstimateResponse> expired_promise;
  auto expired_future = expired_promise.get_future();
  EstimateRequest deadlined{"Gate", kAllSubplans, &graph};
  deadlined.timeout_seconds = 1e-3;
  ASSERT_TRUE(service
                  .Submit(deadlined,
                          [&](EstimateResponse response) {
                            expired_promise.set_value(std::move(response));
                          })
                  .ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  gate_ptr->Release();

  const EstimateResponse response = expired_future.get();
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(response.cards.empty());
}

TEST(EstimationServiceTest, NegativeTimeoutIsRejectedUpFront) {
  EstimationService service;
  service.RegisterEstimator(std::make_unique<HashEstimator>());
  const QueryGraph graph(TestQueries()[2], TestDb());
  EstimateRequest request{"Hash", graph.full_mask(), &graph};
  request.timeout_seconds = -1.0;
  std::atomic<bool> callback_ran{false};
  Status status = service.Submit(
      request, [&](EstimateResponse) { callback_ran.store(true); });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(callback_ran.load());
}

/// Submits `request` and expects an up-front InvalidArgument rejection
/// that never runs the callback (no worker or estimator sees the request).
void ExpectRejectedUpFront(EstimationService& service,
                           const EstimateRequest& request) {
  std::atomic<bool> callback_ran{false};
  const Status status = service.Submit(
      request, [&](EstimateResponse) { callback_ran.store(true); });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_FALSE(callback_ran.load());
}

/// users(0) ⋈ posts(1) ⋈ comments(2); users and comments share no edge.
constexpr char kChainSql[] =
    "SELECT COUNT(*) FROM users, posts, comments WHERE users.Id = "
    "posts.OwnerUserId AND posts.Id = comments.PostId;";

TEST(EstimationServiceTest, RequestWithoutGraphIsRejectedUpFront) {
  EstimationService service;
  service.RegisterEstimator(std::make_unique<HashEstimator>());
  ExpectRejectedUpFront(service, EstimateRequest{"Hash", kAllSubplans});
}

TEST(EstimationServiceTest, MaskNamingAbsentTablesIsRejectedUpFront) {
  EstimationService service;
  service.RegisterEstimator(std::make_unique<HashEstimator>());
  const QueryGraph graph(Parse(kChainSql), TestDb());
  ExpectRejectedUpFront(service,
                        EstimateRequest{"Hash", (uint64_t{1} << 40) | 1,
                                        &graph});
  ExpectRejectedUpFront(service, EstimateRequest{"Hash", 0b1001, &graph});
  EXPECT_EQ(service.EstimateSync("Hash", graph, 0b1000).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EstimationServiceTest, DisconnectedMaskIsRejectedUpFront) {
  EstimationService service;
  service.RegisterEstimator(std::make_unique<HashEstimator>());
  const QueryGraph graph(Parse(kChainSql), TestDb());
  ExpectRejectedUpFront(service, EstimateRequest{"Hash", 0b101, &graph});
  EXPECT_EQ(service.EstimateSync("Hash", graph, 0b101).status().code(),
            StatusCode::kInvalidArgument);
  // Its connected neighbours are answered.
  EXPECT_TRUE(service.EstimateSync("Hash", graph, 0b011).ok());
  EXPECT_TRUE(service.EstimateSync("Hash", graph, 0b111).ok());
}

TEST(EstimationServiceTest, EightThreadHammerMatchesSerialExactly) {
  ServiceOptions options;
  options.num_threads = 8;
  options.queue_depth = 64;
  EstimationService service(options);
  service.RegisterEstimator(std::make_unique<HashEstimator>());
  HashEstimator reference;

  const std::vector<std::unique_ptr<const QueryGraph>> graphs = TestGraphs();
  std::vector<std::unordered_map<uint64_t, double>> expected;
  for (const auto& graph : graphs) {
    expected.push_back(SerialEstimates(reference, graph->query()));
  }

  constexpr size_t kClients = 8;
  constexpr size_t kIterations = 50;
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = 0; i < kIterations; ++i) {
        const size_t qi = (c + i) % graphs.size();
        auto cards = service.EstimateQuerySync("Hash", *graphs[qi]);
        if (!cards.ok()) {
          failures.fetch_add(1);
          continue;
        }
        // Byte-identical to the serial reference: exact double comparison.
        if (*cards != expected[qi]) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(EstimationServiceTest, RepeatedReplayServesFromCache) {
  EstimationService service;
  auto owned = std::make_unique<HashEstimator>();
  HashEstimator* estimator = owned.get();
  service.RegisterEstimator(std::move(owned));

  const QueryGraph graph(TestQueries()[0], TestDb());
  const size_t num_subplans = graph.connected_subsets().size();

  auto first = service.EstimateQuerySync("Hash", graph);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(estimator->calls(), num_subplans);
  EXPECT_EQ(service.cache_stats().misses, num_subplans);

  auto second = service.EstimateQuerySync("Hash", graph);
  ASSERT_TRUE(second.ok());
  // Every sub-plan was served from the cache: the model was not re-invoked.
  EXPECT_EQ(estimator->calls(), num_subplans);
  EXPECT_EQ(service.cache_stats().hits, num_subplans);
  EXPECT_EQ(*first, *second);
}

TEST(EstimationServiceTest, DataUpdateInvalidatesCacheAndRefreshesModel) {
  EstimationService service;
  auto owned = std::make_unique<VersionedEstimator>();
  VersionedEstimator* estimator = owned.get();
  service.RegisterEstimator(std::move(owned));

  const QueryGraph graph(TestQueries()[1], TestDb());
  const size_t num_subplans = graph.connected_subsets().size();

  auto before = service.EstimateQuerySync("Versioned", graph);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(estimator->calls(), num_subplans);

  ASSERT_TRUE(service.Refresh(InsertionBatch{}).ok());
  EXPECT_EQ(estimator->update_calls(), 1u);

  auto after = service.EstimateQuerySync("Versioned", graph);
  ASSERT_TRUE(after.ok());
  // Stale entries were not served: the refresh advanced the model version,
  // so the pre-update entries (keyed to the old version) are unreachable
  // and every sub-plan was re-estimated against the refreshed model.
  EXPECT_EQ(estimator->calls(), 2 * num_subplans);
  EXPECT_EQ(service.cache_stats().misses, 2 * num_subplans);
  for (const auto& [mask, card] : *before) {
    EXPECT_NE(after->at(mask), card) << "mask " << mask;
  }
}

TEST(LoadDriverTest, ClosedLoopReplayReportsThroughputAndCacheDelta) {
  ServiceOptions options;
  options.num_threads = 4;
  EstimationService service(options);
  service.RegisterEstimator(std::make_unique<HashEstimator>());

  const std::vector<std::unique_ptr<const QueryGraph>> graphs = TestGraphs();
  std::vector<const QueryGraph*> pointers;
  for (const auto& graph : graphs) pointers.push_back(graph.get());
  LoadDriver driver(service, pointers);

  LoadOptions load;
  load.estimator = "Hash";
  load.concurrency = 4;
  load.replays = 3;
  auto report = driver.Run(load);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(report->requests, graphs.size() * load.replays);
  EXPECT_GT(report->QueriesPerSecond(), 0.0);
  EXPECT_GE(report->latency.p99, report->latency.p50);
  // Replays 2 and 3 hit the sub-plan cache.
  EXPECT_GT(report->cache.hits, 0u);
  EXPECT_GT(report->cache.HitRate(), 0.0);
}

/// Backend whose every request takes 2 ms.
class SlowBackend : public EstimateBackend {
 public:
  size_t num_queries() const override { return 20; }
  Status Validate(const std::string&) override { return Status::OK(); }
  BackendCallResult EstimateQuery(const std::string&, size_t,
                                  double) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    BackendCallResult result;
    result.estimates = 1;
    return result;
  }
  EstimateCacheStats cache_stats() const override { return {}; }
};

TEST(LoadDriverTest, OpenLoopLatencyCountsScheduleDelay) {
  // One client offered 1000 req/s of 2 ms requests falls 1 ms further
  // behind schedule per request: request i is due at i ms but completes
  // near 2(i + 1) ms, so the late requests' latency from their due time
  // approaches 20 ms.
  SlowBackend backend;
  LoadDriver driver(backend);
  LoadOptions load;
  load.estimator = "Slow";
  load.concurrency = 1;
  load.offered_qps = 1000.0;
  auto report = driver.Run(load);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->requests, 20u);
  EXPECT_GE(report->latency.p99, 10e-3);
}

TEST(LoadDriverTest, UnknownEstimatorFailsFast) {
  EstimationService service;
  const QueryGraph graph(TestQueries()[2], TestDb());
  LoadDriver driver(service, {&graph});
  LoadOptions load;
  load.estimator = "NoSuchModel";
  auto report = driver.Run(load);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace cardbench
