#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/str_util.h"
#include "datagen/stats_gen.h"
#include "query/parser.h"
#include "query/query_graph.h"
#include "service/estimate_cache.h"
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

/// Estimator whose every estimate sleeps a fixed time, the shape of a model
/// served out of process: workers overlap the waits without competing for
/// a CPU.
class SleepEstimator : public CardinalityEstimator {
 public:
  explicit SleepEstimator(std::chrono::milliseconds delay)
      : CardinalityEstimator(TestDb()), delay_(delay) {}
  std::string name() const override { return "Sleep"; }
  double EstimateCard(const QueryGraph&, uint64_t) const override {
    std::this_thread::sleep_for(delay_);
    return 1.0;
  }

 private:
  std::chrono::milliseconds delay_;
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

SubplanCacheKey CacheKey(uint64_t fingerprint) {
  return SubplanCacheKey{/*epoch=*/1, fingerprint, /*subplan_mask=*/1};
}

TEST(SubplanEstimateCacheTest, EvictsLeastRecentlyUsedEntry) {
  SubplanEstimateCache cache(/*capacity=*/2, /*num_shards=*/1);
  cache.Insert(CacheKey(1), 10.0);
  cache.Insert(CacheKey(2), 20.0);
  double estimate = 0.0;
  ASSERT_TRUE(cache.Lookup(CacheKey(1), &estimate));  // 2 is now the LRU
  cache.Insert(CacheKey(3), 30.0);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.Lookup(CacheKey(2), &estimate));
  ASSERT_TRUE(cache.Lookup(CacheKey(1), &estimate));
  EXPECT_EQ(estimate, 10.0);
  ASSERT_TRUE(cache.Lookup(CacheKey(3), &estimate));
  EXPECT_EQ(estimate, 30.0);

  // The batch fill evicts in the same order: 3 was touched last, so 4
  // pushes out 1.
  cache.InsertBatch({CacheKey(4)}, {40.0});
  EXPECT_EQ(cache.stats().evictions, 2u);
  std::vector<double> estimates;
  std::vector<bool> hit;
  EXPECT_EQ(cache.LookupBatch({CacheKey(1), CacheKey(3), CacheKey(4)},
                              &estimates, &hit),
            2u);
  EXPECT_EQ(hit, (std::vector<bool>{false, true, true}));
  EXPECT_EQ(estimates[2], 40.0);
}

TEST(SubplanEstimateCacheTest, BoundsEveryShardAndCountsEvictions) {
  // 10 entries over 4 shards is 2 per shard: the bound is per shard, so
  // the cache holds 8 once every shard has overflowed.
  SubplanEstimateCache cache(/*capacity=*/10, /*num_shards=*/4);
  EXPECT_EQ(cache.capacity(), 8u);
  constexpr uint64_t kKeys = 100;
  for (uint64_t i = 0; i < kKeys; ++i) cache.Insert(CacheKey(i), 1.0);
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_EQ(cache.stats().evictions, kKeys - 8);
  // Re-inserting a resident key refreshes it in place: no eviction.
  double estimate = 0.0;
  const uint64_t resident = kKeys - 1;
  ASSERT_TRUE(cache.Lookup(CacheKey(resident), &estimate));
  cache.Insert(CacheKey(resident), 2.0);
  EXPECT_EQ(cache.stats().evictions, kKeys - 8);
  ASSERT_TRUE(cache.Lookup(CacheKey(resident), &estimate));
  EXPECT_EQ(estimate, 2.0);
}

/// The cache's specification at one shard: an exact LRU over a recency
/// list (front = most recently used) and a map into it, with the same
/// counters.
class ReferenceLru {
 public:
  explicit ReferenceLru(size_t capacity) : capacity_(capacity) {}

  bool Lookup(const SubplanCacheKey& key, double* estimate) {
    if (!Touch(key, estimate)) {
      ++stats_.misses;
      return false;
    }
    ++stats_.hits;
    return true;
  }

  void Insert(const SubplanCacheKey& key, double estimate) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = estimate;
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.emplace_front(key, estimate);
    index_[key] = lru_.begin();
    if (lru_.size() > capacity_) {
      index_.erase(lru_.back().first);
      lru_.pop_back();
      ++stats_.evictions;
    }
  }

  /// SubplanEstimateCache::LookupAll: touches keys in order up to the
  /// first absent one, counting hits only when none is absent.
  bool LookupAll(const std::vector<SubplanCacheKey>& keys,
                 std::vector<double>* estimates) {
    estimates->assign(keys.size(), 0.0);
    for (size_t i = 0; i < keys.size(); ++i) {
      if (!Touch(keys[i], &(*estimates)[i])) return false;
    }
    stats_.hits += keys.size();
    return true;
  }

  size_t size() const { return lru_.size(); }
  const EstimateCacheStats& stats() const { return stats_; }

 private:
  struct KeyHash {
    size_t operator()(const SubplanCacheKey& key) const {
      return key.epoch * 31 + key.fingerprint * 7 + key.subplan_mask;
    }
  };
  using Lru = std::list<std::pair<SubplanCacheKey, double>>;

  bool Touch(const SubplanCacheKey& key, double* estimate) {
    auto it = index_.find(key);
    if (it == index_.end()) return false;
    lru_.splice(lru_.begin(), lru_, it->second);
    *estimate = it->second->second;
    return true;
  }

  size_t capacity_;
  Lru lru_;
  std::unordered_map<SubplanCacheKey, Lru::iterator, KeyHash> index_;
  EstimateCacheStats stats_;
};

TEST(SubplanEstimateCacheTest, MatchesReferenceLruOnRandomOperations) {
  // Seeded random Insert/Lookup/InsertBatch/LookupBatch/LookupAll streams
  // at one shard, where the cache must be exactly the reference LRU. Keys
  // come from a pool about twice the capacity (hits, misses and evictions
  // all happen), batches run past the cache's 64-key runs, and keys may
  // repeat within a batch.
  for (const size_t capacity : {1, 2, 7, 64, 1000}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    std::mt19937_64 rng(20261019 + capacity);
    std::vector<SubplanCacheKey> pool;
    for (size_t k = 0; k < 2 * capacity + 5; ++k) {
      pool.push_back(SubplanCacheKey{1 + rng() % 3, rng() % 64, rng() % 8});
    }
    auto any_key = [&] { return pool[rng() % pool.size()]; };
    SubplanEstimateCache cache(capacity, /*num_shards=*/1);
    ReferenceLru reference(capacity);
    for (int step = 0; step < 4000; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const int op = static_cast<int>(rng() % 5);
      std::vector<SubplanCacheKey> keys(op < 2 ? 1 : 1 + rng() % 80);
      for (SubplanCacheKey& key : keys) key = any_key();
      if (op == 0) {
        const double estimate = static_cast<double>(rng() % 1000);
        cache.Insert(keys[0], estimate);
        reference.Insert(keys[0], estimate);
      } else if (op == 1) {
        double got = -1.0, want = -1.0;
        ASSERT_EQ(cache.Lookup(keys[0], &got),
                  reference.Lookup(keys[0], &want));
        ASSERT_EQ(got, want);
      } else if (op == 2) {
        std::vector<double> estimates(keys.size());
        for (double& e : estimates) e = static_cast<double>(rng() % 1000);
        cache.InsertBatch(keys, estimates);
        for (size_t i = 0; i < keys.size(); ++i) {
          reference.Insert(keys[i], estimates[i]);
        }
      } else if (op == 3) {
        std::vector<double> got;
        std::vector<bool> hit;
        const size_t hits = cache.LookupBatch(keys, &got, &hit);
        size_t want_hits = 0;
        for (size_t i = 0; i < keys.size(); ++i) {
          double want = 0.0;
          const bool want_hit = reference.Lookup(keys[i], &want);
          want_hits += want_hit ? 1 : 0;
          ASSERT_EQ(hit[i], want_hit) << "key " << i;
          ASSERT_EQ(got[i], want) << "key " << i;
        }
        ASSERT_EQ(hits, want_hits);
      } else {
        std::vector<double> got(keys.size()), want;
        const bool all = cache.LookupAll(keys, got.data());
        ASSERT_EQ(all, reference.LookupAll(keys, &want));
        if (all) {
          ASSERT_EQ(got, want);
        }
      }
      ASSERT_EQ(cache.size(), reference.size());
      ASSERT_EQ(cache.stats().hits, reference.stats().hits);
      ASSERT_EQ(cache.stats().misses, reference.stats().misses);
      ASSERT_EQ(cache.stats().evictions, reference.stats().evictions);
    }
  }
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
  const QueryGraph cached(TestQueries()[0], TestDb());
  ASSERT_TRUE(service.EstimateQuerySync("Hash", cached).ok());
  service.Shutdown();

  // Uncached and fully cached requests alike.
  const QueryGraph graph(TestQueries()[2], TestDb());
  for (const QueryGraph* g : {&graph, &cached}) {
    std::atomic<bool> callback_ran{false};
    Status status =
        service.Submit(EstimateRequest{"Hash", kAllSubplans, g},
                       [&](EstimateResponse) { callback_ran.store(true); });
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
    EXPECT_FALSE(callback_ran.load());
  }
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

/// A service with one worker, a "Hash" estimator and a "Gate" one whose
/// first request pins the worker inside EstimateCard until Release.
struct PinnedWorker {
  PinnedWorker() : service(Options()) {
    auto owned_gate = std::make_unique<GateEstimator>();
    gate = owned_gate.get();
    service.RegisterEstimator(std::move(owned_gate));
    auto owned_hash = std::make_unique<HashEstimator>();
    hash = owned_hash.get();
    service.RegisterEstimator(std::move(owned_hash));
  }
  ~PinnedWorker() {
    gate->Release();
    service.Shutdown();
  }

  static ServiceOptions Options() {
    ServiceOptions options;
    options.num_threads = 1;
    return options;
  }

  void Pin() {
    ASSERT_TRUE(service
                    .Submit(EstimateRequest{"Gate", gated.full_mask(), &gated},
                            [](EstimateResponse) {})
                    .ok());
    gate->WaitUntilEntered();
  }

  const QueryGraph gated{TestQueries()[2], TestDb()};
  EstimationService service;
  GateEstimator* gate = nullptr;
  HashEstimator* hash = nullptr;
};

/// What a callback saw: its thread and the response.
using Completion = std::pair<std::thread::id, EstimateResponse>;

Status SubmitRecording(EstimationService& service, EstimateRequest request,
                       std::promise<Completion>* completion) {
  return service.Submit(
      std::move(request), [completion](EstimateResponse response) {
        completion->set_value(
            Completion{std::this_thread::get_id(), std::move(response)});
      });
}

TEST(EstimationServiceTest, CachedRequestCompletesOnTheCallingThread) {
  // Declared before the service: a request that queued would reach them
  // when the service drains.
  const QueryGraph graph(TestQueries()[0], TestDb());
  std::promise<Completion> completion;
  std::future<Completion> done = completion.get_future();
  PinnedWorker pinned;
  const size_t num_subplans = graph.connected_subsets().size();
  auto warm = pinned.service.EstimateQuerySync("Hash", graph);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  pinned.Pin();

  // Every sub-plan is cached: the callback has run, on this thread, before
  // Submit returns, although the only worker is blocked.
  ASSERT_TRUE(SubmitRecording(pinned.service,
                              EstimateRequest{"Hash", kAllSubplans, &graph},
                              &completion)
                  .ok());
  ASSERT_EQ(done.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const auto [thread, response] = done.get();
  EXPECT_EQ(thread, std::this_thread::get_id());
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.cards, *warm);
  EXPECT_EQ(response.cache_hits, num_subplans);
  EXPECT_EQ(response.cache_misses, 0u);
  EXPECT_EQ(response.model_version, 1u);
  EXPECT_EQ(pinned.hash->calls(), num_subplans);
  EXPECT_EQ(pinned.service.queue_size(), 0u);
}

TEST(EstimationServiceTest, PartlyCachedRequestQueues) {
  const QueryGraph graph(TestQueries()[0], TestDb());
  std::promise<Completion> completion;
  std::future<Completion> done = completion.get_future();
  PinnedWorker pinned;
  const size_t num_subplans = graph.connected_subsets().size();
  ASSERT_TRUE(pinned.service.EstimateSync("Hash", graph, 1).ok());
  pinned.Pin();

  // One sub-plan of the whole query is cached: the request waits in the
  // queue for the blocked worker and completes there.
  ASSERT_TRUE(SubmitRecording(pinned.service,
                              EstimateRequest{"Hash", kAllSubplans, &graph},
                              &completion)
                  .ok());
  EXPECT_EQ(done.wait_for(std::chrono::milliseconds(20)),
            std::future_status::timeout);
  EXPECT_EQ(pinned.service.queue_size(), 1u);
  pinned.gate->Release();
  const auto [thread, response] = done.get();
  EXPECT_NE(thread, std::this_thread::get_id());
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.cards.size(), num_subplans);
  EXPECT_EQ(response.cache_hits, 1u);
  EXPECT_EQ(response.cache_misses, num_subplans - 1);
}

TEST(EstimationServiceTest, CacheStatsCountEachSubplanOnce) {
  EstimationService service;
  auto owned = std::make_unique<HashEstimator>();
  HashEstimator* estimator = owned.get();
  service.RegisterEstimator(std::move(owned));
  const QueryGraph graph(TestQueries()[0], TestDb());
  const uint64_t n = graph.connected_subsets().size();
  ASSERT_GT(n, 2u);

  // A miss through the queue.
  ASSERT_TRUE(service.EstimateSync("Hash", graph, 1).ok());
  EXPECT_EQ(service.cache_stats().hits, 0u);
  EXPECT_EQ(service.cache_stats().misses, 1u);
  // A partly cached request is probed on the calling thread, then queued
  // and probed again by the worker: still one hit and n - 1 misses.
  ASSERT_TRUE(service.EstimateQuerySync("Hash", graph).ok());
  EXPECT_EQ(service.cache_stats().hits, 1u);
  EXPECT_EQ(service.cache_stats().misses, n);
  // A fully cached request, answered on the calling thread: n hits.
  ASSERT_TRUE(service.EstimateQuerySync("Hash", graph).ok());
  EXPECT_EQ(service.cache_stats().hits, 1 + n);
  EXPECT_EQ(service.cache_stats().misses, n);
  // And a single cached mask: one more hit.
  ASSERT_TRUE(service.EstimateSync("Hash", graph, 1).ok());
  EXPECT_EQ(service.cache_stats().hits, 2 + n);
  EXPECT_EQ(service.cache_stats().misses, n);
  EXPECT_EQ(estimator->calls(), n);
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

TEST(EstimationServiceTest, WorkersAnswerRequestsConcurrently) {
  // Eight requests for different queries (so none is a cache hit) of one
  // 50 ms estimate each take 400 ms one at a time; eight workers overlap
  // the sleeps and finish in about 50 ms. The waits are sleeps, not CPU
  // work, so a loaded host delays them little; the bound of half the
  // serial sum leaves room for that.
  constexpr auto kDelay = std::chrono::milliseconds(50);
  constexpr size_t kRequests = 8;
  ServiceOptions options;
  options.num_threads = kRequests;
  EstimationService service(options);
  service.RegisterEstimator(std::make_unique<SleepEstimator>(kDelay));
  std::vector<std::unique_ptr<const QueryGraph>> graphs;
  for (size_t i = 0; i < kRequests; ++i) {
    graphs.push_back(std::make_unique<const QueryGraph>(
        Parse(StrFormat("SELECT COUNT(*) FROM users WHERE "
                        "users.Reputation >= %zu;",
                        i)),
        TestDb()));
  }

  std::mutex mu;
  std::condition_variable cv;
  size_t done = 0;
  size_t ok = 0;
  const auto start = std::chrono::steady_clock::now();
  for (const auto& graph : graphs) {
    ASSERT_TRUE(service
                    .Submit(EstimateRequest{"Sleep", graph->full_mask(),
                                            graph.get()},
                            [&](EstimateResponse response) {
                              std::lock_guard<std::mutex> lock(mu);
                              ++done;
                              if (response.status.ok()) ++ok;
                              cv.notify_all();
                            })
                    .ok());
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done == kRequests; });
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(ok, kRequests);
  EXPECT_LT(elapsed, kRequests * kDelay / 2);
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
  ServiceEstimateBackend backend(service, pointers);
  LoadDriver driver(backend);

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
  BackendCallResult EstimateQuery(const std::string&, size_t) override {
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
  ServiceEstimateBackend backend(service, {&graph});
  LoadDriver driver(backend);
  LoadOptions load;
  load.estimator = "NoSuchModel";
  auto report = driver.Run(load);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace cardbench
