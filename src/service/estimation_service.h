#ifndef CARDBENCH_SERVICE_ESTIMATION_SERVICE_H_
#define CARDBENCH_SERVICE_ESTIMATION_SERVICE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cardest/estimator.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "query/query_graph.h"
#include "service/estimate_cache.h"
#include "service/request_queue.h"

namespace cardbench {

/// Sizing knobs of the serving layer.
struct ServiceOptions {
  /// Worker threads answering estimation requests.
  size_t num_threads = 4;
  /// Bound of the request queue; Submit rejects with ResourceExhausted
  /// beyond it (never blocks the caller).
  size_t queue_depth = 256;
};

/// In `subplan_mask`, requests estimation of every connected sub-plan of
/// the query (the optimizer's full sub-plan query space, §4.2).
inline constexpr uint64_t kAllSubplans = 0;

/// One estimation request: which estimator, which compiled query, which
/// sub-plan(s). `graph` is borrowed — it must outlive the request's
/// completion. The service dispatches through the estimators' mask-based
/// overload and keys the cache on the graph's precomputed fingerprint, so
/// the serving path materializes no sub-query and hashes no query string.
struct EstimateRequest {
  std::string estimator;
  /// kAllSubplans, or one connected sub-plan of `graph` (Submit rejects a
  /// mask naming absent tables or a disconnected one).
  uint64_t subplan_mask = kAllSubplans;
  const QueryGraph* graph = nullptr;
  /// Per-request wall-clock budget in seconds, measured from Submit; 0
  /// disables it. A request whose deadline expires — in the queue or
  /// between estimation batches — completes with DeadlineExceeded instead
  /// of its estimates: workers check the clock when they dequeue and again
  /// between bounded estimation slices, so an expired request never holds a
  /// worker longer than one slice (the serving-layer analogue of the
  /// executor's budget cut-off).
  double timeout_seconds = 0.0;
};

/// The answer. For a single-mask request `cards` has one entry; for
/// kAllSubplans one entry per connected sub-plan, bitmask-keyed exactly
/// like BenchEnv::QueryContext::true_cards.
struct EstimateResponse {
  Status status;
  std::unordered_map<uint64_t, double> cards;
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  /// Version of the model that answered (every card in one response comes
  /// from a single version — the registry snapshot is taken once per
  /// request, so a hot-swap mid-request can never mix versions).
  uint64_t model_version = 0;
};

using EstimateCallback = std::function<void(EstimateResponse)>;

/// Outcome of one Refresh pass, per estimator.
struct RefreshReport {
  struct Entry {
    std::string name;
    Status status;
    /// The estimator has no path to absorb this batch in place; the caller
    /// should schedule a full retrain + HotSwapEstimator.
    bool full_retrain_required = false;
    double seconds = 0.0;
    uint64_t model_version = 0;
  };
  std::vector<Entry> entries;
};

/// Notified after every model-version change (incremental refresh or
/// hot-swap): estimator name, new model version, refresh wall-clock
/// seconds. Invoked outside the registry lock, possibly concurrently.
using RefreshListener =
    std::function<void(const std::string&, uint64_t, double)>;

/// The concurrent cardinality-estimation serving layer: owns trained
/// estimator instances and answers estimation requests, memoizing sub-plan
/// estimates in a sharded, epoch-keyed LRU cache (65536 entries over 16
/// shards). A request whose every sub-plan is cached is answered by Submit
/// on the calling thread; any other goes through a bounded request queue to
/// a fixed-size worker pool.
///
///   callers --Submit--+--every sub-plan cached--> done() on the caller
///                     |        (SubplanEstimateCache::LookupAll)
///                     +--TryPush--> RequestQueue --Pop--> ThreadPool workers
///                                                  |  SubplanEstimateCache
///                                                  +--CardinalityEstimator::EstimateCards (const, shared)
///
/// Concurrency contract: estimators are shared across workers and accessed
/// only through the const, thread-safe estimation path (see the contract
/// in cardest/estimator.h). Refresh is the one exclusive operation: it
/// quiesces workers and cache answers with a writer lock, runs the
/// estimators' Update, and gives every estimator a fresh cache epoch, so
/// estimates cached before it can never be served afterwards.
class EstimationService {
 public:
  explicit EstimationService(ServiceOptions options = ServiceOptions());
  ~EstimationService();

  EstimationService(const EstimationService&) = delete;
  EstimationService& operator=(const EstimationService&) = delete;

  /// Registers `estimator` under its name() at model version 1, with a
  /// fresh cache epoch. Replaces an existing registration of the same name.
  void RegisterEstimator(std::unique_ptr<CardinalityEstimator> estimator);

  /// Registered estimator lookup (nullptr if absent). The pointer stays
  /// valid until the service is destroyed (hot-swapped versions are
  /// retired, not destroyed).
  const CardinalityEstimator* GetEstimator(const std::string& name) const;

  /// Atomically replaces the model serving `estimator->name()` with a new
  /// version. Readers never block: each in-flight request holds a
  /// snapshot of exactly one (model, version, cache epoch), and the new
  /// version gets a fresh epoch, so concurrent estimates are always
  /// answered entirely by the old or entirely by the new model — never a
  /// torn mix. The retired
  /// version stays alive until service destruction. `refresh_seconds` is
  /// the wall-clock the caller spent producing the new version (full
  /// retrain time), reported through the refresh listener and VersionInfo.
  void HotSwapEstimator(std::unique_ptr<CardinalityEstimator> estimator,
                        uint64_t model_version, double refresh_seconds = 0.0);

  /// Quiesces serving and applies `batch` to every registered estimator
  /// through CardinalityEstimator::Update; a full-refresh batch
  /// (InsertionBatch{}) is the data-update hook. Per-estimator outcomes
  /// land in `report` (if given): success advances the estimator's model
  /// version to max(current+1, batch.data_version); Unsupported marks
  /// full_retrain_required instead of failing the pass. Whatever its
  /// outcome, every estimator then answers from a fresh cache epoch. Returns
  /// the first other error (a malformed batch fails every estimator before
  /// any model changes), after attempting every estimator.
  Status Refresh(const InsertionBatch& batch, RefreshReport* report = nullptr);

  /// Per-estimator lifecycle snapshot (registration order not guaranteed).
  struct EstimatorVersionInfo {
    std::string name;
    uint64_t model_version = 0;
    uint64_t refresh_count = 0;
    /// Wall-clock seconds of the most recent refresh / swap build.
    double last_refresh_seconds = 0.0;
    /// Age of the live version: seconds since it was installed.
    double staleness_seconds = 0.0;
    bool full_retrain_required = false;
  };
  std::vector<EstimatorVersionInfo> VersionInfo() const;

  /// Installs the model-version-change listener (pass nullptr to clear).
  void SetRefreshListener(RefreshListener listener);

  /// Answers `request` through `done`, exactly once when it returns OK.
  /// When every requested sub-plan is in the cache, `done` runs on the
  /// calling thread before Submit returns (no queue slot taken, so this
  /// holds even when the queue is full); a running Refresh sends the
  /// request to the queue instead of blocking the caller. Otherwise the
  /// request is enqueued and `done` runs on a worker thread when it
  /// completes (including with a non-OK response status, e.g. unknown
  /// estimator). `done` must therefore not take a lock its caller holds
  /// around Submit. Returns — without invoking `done` — InvalidArgument for
  /// a malformed request (no graph, negative timeout, a sub-plan mask
  /// naming tables absent from the graph or not connected), and
  /// ResourceExhausted when the queue is full or the service is shut down.
  Status Submit(EstimateRequest request, EstimateCallback done);

  /// Blocking single sub-plan estimate (convenience over Submit).
  Result<double> EstimateSync(const std::string& estimator,
                              const QueryGraph& graph, uint64_t subplan_mask);

  /// Blocking whole-query estimate: every connected sub-plan, one request.
  Result<std::unordered_map<uint64_t, double>> EstimateQuerySync(
      const std::string& estimator, const QueryGraph& graph);

  EstimateCacheStats cache_stats() const { return cache_.stats(); }
  const SubplanEstimateCache& cache() const { return cache_; }
  size_t num_threads() const { return pool_.num_threads(); }
  size_t queue_capacity() const { return queue_.capacity(); }

  /// Requests currently waiting for a worker (point-in-time gauge).
  size_t queue_size() const { return queue_.size(); }

  /// Mean worker-side processing time over the service lifetime, seconds
  /// (0 until the first queued request completes; requests answered from
  /// the cache inside Submit are not counted).
  double avg_process_seconds() const;

  /// Backoff hint attached to queue-full rejections: the time one full
  /// queue drain is expected to take at the current processing rate,
  /// clamped to [1ms, 1s]. Callers that retry sooner will mostly re-collide
  /// with the same full queue.
  double SuggestedRetrySeconds() const;

  /// Stops admission (cached answers included), drains queued requests
  /// (their callbacks still run) and joins the workers. Idempotent; the
  /// destructor calls it.
  void Shutdown();

 private:
  using Clock = std::chrono::steady_clock;

  struct WorkItem {
    EstimateRequest request;
    EstimateCallback done;
    /// Absolute deadline stamped at Submit (Clock::time_point::max() when
    /// the request carries no timeout).
    Clock::time_point deadline = Clock::time_point::max();
  };

  /// One entry of the versioned registry: the live model, its version, its
  /// cache epoch and refresh bookkeeping. Swaps replace `estimator` (the
  /// old shared_ptr is retired); refreshes mutate the object in place under
  /// the update_mu_ writer lock. Both then Advance.
  struct RegisteredEstimator {
    std::shared_ptr<CardinalityEstimator> estimator;
    uint64_t model_version = 1;
    /// Cache-key epoch of what `estimator` answers now; see
    /// SubplanCacheKey.
    uint64_t epoch = 0;
    uint64_t refresh_count = 0;
    double last_refresh_seconds = 0.0;
    Clock::time_point installed_at;
    bool full_retrain_required = false;

    /// Records a new live version that took `seconds` to produce. Versions
    /// only move forward, even when `version` is smaller (a replayed old
    /// artifact still becomes a new epoch).
    void Advance(uint64_t version, double seconds) {
      model_version = std::max(model_version + 1, version);
      refresh_count += 1;
      last_refresh_seconds = seconds;
      installed_at = Clock::now();
      full_retrain_required = false;
    }
  };

  /// Submits `request` and blocks until its response; a rejection or a
  /// non-OK response comes back as the error.
  Result<EstimateResponse> SubmitSync(EstimateRequest request);
  void WorkerLoop();
  /// Runs `done` on this thread and returns true when every sub-plan of
  /// `request` is cached; false (nothing run, nothing counted) otherwise.
  bool AnswerFromCache(const EstimateRequest& request,
                       const EstimateCallback& done);
  EstimateResponse Process(const EstimateRequest& request,
                           Clock::time_point deadline);
  /// One coherent (model, version, cache epoch) view for a whole request.
  std::shared_ptr<CardinalityEstimator> Snapshot(const std::string& name,
                                                 uint64_t* model_version,
                                                 uint64_t* epoch) const;
  void NotifyRefresh(const std::string& name, uint64_t model_version,
                     double seconds);

  SubplanEstimateCache cache_;
  RequestQueue<WorkItem> queue_;

  /// Lifetime processing-time counters feeding avg_process_seconds().
  std::atomic<uint64_t> processed_requests_{0};
  std::atomic<uint64_t> processed_nanos_{0};

  /// Readers: workers serving estimates and Submit answering from the
  /// cache (through a try-lock). Writer: Refresh (in-place model mutation
  /// needs exclusive access; hot-swaps don't — they only retire a pointer).
  std::shared_mutex update_mu_;
  /// Set by Shutdown: Submit stops answering from the cache.
  std::atomic<bool> shut_down_{false};

  mutable std::shared_mutex registry_mu_;
  std::unordered_map<std::string, RegisteredEstimator> estimators_;
  /// The last cache epoch handed out (guarded by registry_mu_).
  uint64_t last_epoch_ = 0;
  /// Hot-swapped-out models, kept alive so GetEstimator pointers obtained
  /// before a swap stay valid for the service's lifetime.
  std::vector<std::shared_ptr<CardinalityEstimator>> retired_;

  std::mutex listener_mu_;
  RefreshListener refresh_listener_;

  ThreadPool pool_;  // last member: workers must die before queue/registry
};

}  // namespace cardbench

#endif  // CARDBENCH_SERVICE_ESTIMATION_SERVICE_H_
