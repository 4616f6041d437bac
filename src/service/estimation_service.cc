#include "service/estimation_service.h"

#include <algorithm>
#include <future>
#include <span>
#include <utility>

#include "common/str_util.h"

namespace cardbench {
namespace {

/// Masks estimated between two deadline checks of a deadlined request.
/// Small enough that an expired request releases its worker quickly, large
/// enough that batch-native estimators still amortize featurization.
constexpr size_t kDeadlineCheckStride = 8;

/// Sub-plan estimate cache entries, split evenly across the shards.
constexpr size_t kSubplanCacheCapacity = 65536;
constexpr size_t kSubplanCacheShards = 16;

/// The sub-plans a request asks for: one mask, or every connected subset.
std::span<const uint64_t> RequestedMasks(const EstimateRequest& request) {
  if (request.subplan_mask == kAllSubplans) {
    return request.graph->connected_subsets();
  }
  return {&request.subplan_mask, 1};
}

/// One cache key per mask, written into `keys`.
void MakeKeys(uint64_t epoch, const QueryGraph& graph,
              std::span<const uint64_t> masks,
              std::vector<SubplanCacheKey>* keys) {
  keys->clear();
  keys->reserve(masks.size());
  for (uint64_t mask : masks) {
    keys->push_back(SubplanCacheKey{epoch, graph.fingerprint(), mask});
  }
}

}  // namespace

EstimationService::EstimationService(ServiceOptions options)
    : cache_(kSubplanCacheCapacity, kSubplanCacheShards),
      queue_(options.queue_depth),
      pool_(options.num_threads) {
  // Each pool thread runs one long-lived drain loop; the pool is sized to
  // options.num_threads so every worker owns exactly one loop.
  for (size_t i = 0; i < pool_.num_threads(); ++i) {
    (void)pool_.Submit([this] { WorkerLoop(); });
  }
}

EstimationService::~EstimationService() { Shutdown(); }

void EstimationService::RegisterEstimator(
    std::unique_ptr<CardinalityEstimator> estimator) {
  const std::string name = estimator->name();
  std::unique_lock<std::shared_mutex> lock(registry_mu_);
  RegisteredEstimator& entry = estimators_[name];
  if (entry.estimator != nullptr) retired_.push_back(entry.estimator);
  entry.estimator = std::move(estimator);
  entry.model_version = 1;
  entry.epoch = ++last_epoch_;
  entry.installed_at = Clock::now();
}

const CardinalityEstimator* EstimationService::GetEstimator(
    const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(registry_mu_);
  auto it = estimators_.find(name);
  return it == estimators_.end() ? nullptr : it->second.estimator.get();
}

std::shared_ptr<CardinalityEstimator> EstimationService::Snapshot(
    const std::string& name, uint64_t* model_version, uint64_t* epoch) const {
  std::shared_lock<std::shared_mutex> lock(registry_mu_);
  auto it = estimators_.find(name);
  if (it == estimators_.end()) return nullptr;
  *model_version = it->second.model_version;
  *epoch = it->second.epoch;
  return it->second.estimator;
}

void EstimationService::HotSwapEstimator(
    std::unique_ptr<CardinalityEstimator> estimator, uint64_t model_version,
    double refresh_seconds) {
  const std::string name = estimator->name();
  {
    std::unique_lock<std::shared_mutex> lock(registry_mu_);
    RegisteredEstimator& entry = estimators_[name];
    if (entry.estimator != nullptr) retired_.push_back(entry.estimator);
    entry.estimator = std::move(estimator);
    entry.Advance(model_version, refresh_seconds);
    entry.epoch = ++last_epoch_;
    model_version = entry.model_version;
  }
  // No cache flush and no quiesce: the new version has a fresh epoch, so it
  // misses into fresh entries while in-flight requests finish against their
  // snapshot of the old one.
  NotifyRefresh(name, model_version, refresh_seconds);
}

Status EstimationService::Refresh(const InsertionBatch& batch,
                                  RefreshReport* report) {
  // Writer lock: Update mutates models in place, which needs every
  // in-flight estimate quiesced.
  std::unique_lock<std::shared_mutex> quiesce(update_mu_);
  Status first_error = Status::OK();
  struct Refreshed {
    std::string name;
    uint64_t model_version;
    double seconds;
  };
  std::vector<Refreshed> refreshed;
  {
    std::unique_lock<std::shared_mutex> lock(registry_mu_);
    for (auto& [name, entry] : estimators_) {
      RefreshReport::Entry out;
      out.name = name;
      const Clock::time_point start = Clock::now();
      Status status = entry.estimator->Update(batch);
      out.seconds =
          std::chrono::duration<double>(Clock::now() - start).count();
      out.status = status;
      if (status.ok()) {
        entry.Advance(batch.data_version, out.seconds);
        refreshed.push_back(Refreshed{name, entry.model_version, out.seconds});
      } else if (status.code() == StatusCode::kUnsupported) {
        // Not an error: the model simply has no in-place path for this
        // batch — it serves on, flagged stale until a full retrain swap.
        out.full_retrain_required = true;
        entry.full_retrain_required = true;
      } else if (first_error.ok()) {
        first_error = status;
      }
      out.model_version = entry.model_version;
      // A fresh epoch whatever the outcome, so nothing cached before this
      // refresh is served after it: estimates from a model in an unknown
      // state are strictly worse than recomputed ones.
      entry.epoch = ++last_epoch_;
      if (report != nullptr) report->entries.push_back(std::move(out));
    }
  }
  for (const Refreshed& r : refreshed) {
    NotifyRefresh(r.name, r.model_version, r.seconds);
  }
  return first_error;
}

std::vector<EstimationService::EstimatorVersionInfo>
EstimationService::VersionInfo() const {
  std::vector<EstimatorVersionInfo> out;
  const Clock::time_point now = Clock::now();
  std::shared_lock<std::shared_mutex> lock(registry_mu_);
  out.reserve(estimators_.size());
  for (const auto& [name, entry] : estimators_) {
    EstimatorVersionInfo info;
    info.name = name;
    info.model_version = entry.model_version;
    info.refresh_count = entry.refresh_count;
    info.last_refresh_seconds = entry.last_refresh_seconds;
    info.staleness_seconds =
        std::chrono::duration<double>(now - entry.installed_at).count();
    info.full_retrain_required = entry.full_retrain_required;
    out.push_back(std::move(info));
  }
  return out;
}

void EstimationService::SetRefreshListener(RefreshListener listener) {
  std::lock_guard<std::mutex> lock(listener_mu_);
  refresh_listener_ = std::move(listener);
}

void EstimationService::NotifyRefresh(const std::string& name,
                                      uint64_t model_version, double seconds) {
  RefreshListener listener;
  {
    std::lock_guard<std::mutex> lock(listener_mu_);
    listener = refresh_listener_;
  }
  if (listener) listener(name, model_version, seconds);
}

Status EstimationService::Submit(EstimateRequest request,
                                 EstimateCallback done) {
  if (request.graph == nullptr) {
    return Status::InvalidArgument("EstimateRequest needs a graph");
  }
  if (request.timeout_seconds < 0.0) {
    return Status::InvalidArgument("negative EstimateRequest timeout");
  }
  const uint64_t mask = request.subplan_mask;
  if (mask != kAllSubplans) {
    if ((mask & request.graph->full_mask()) != mask) {
      return Status::InvalidArgument("subplan mask selects absent tables");
    }
    if (!request.graph->IsConnected(mask)) {
      return Status::InvalidArgument("subplan mask is not connected");
    }
  }
  if (!shut_down_.load(std::memory_order_acquire) &&
      AnswerFromCache(request, done)) {
    return Status::OK();
  }
  WorkItem item{std::move(request), std::move(done)};
  if (item.request.timeout_seconds > 0.0) {
    item.deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(item.request.timeout_seconds));
  }
  // When the queue is full, expired work queued ahead must not hold
  // admission slots: it is purged first (and answered below, on this
  // thread — cheap, no estimator touched), then the push is retried.
  std::vector<WorkItem> purged;
  const Clock::time_point now = Clock::now();
  const bool pushed = queue_.TryPushPurgeExpired(
      std::move(item),
      [now](const WorkItem& queued) { return now > queued.deadline; },
      &purged);
  for (WorkItem& dead : purged) {
    if (!dead.done) continue;
    EstimateResponse response;
    response.status =
        Status::DeadlineExceeded("request deadline expired while queued");
    dead.done(std::move(response));
  }
  if (!pushed) {
    // Structured backpressure: the payload names the observed depth and a
    // retry-after hint, so callers (and the network protocol on top) can
    // shed load intelligently instead of blind-retrying.
    return Status::ResourceExhausted(
        StrFormat("estimation queue full (depth %zu/%zu); retry after "
                  "%.1fms",
                  queue_.size(), queue_.capacity(),
                  SuggestedRetrySeconds() * 1e3));
  }
  return Status::OK();
}

double EstimationService::avg_process_seconds() const {
  const uint64_t requests =
      processed_requests_.load(std::memory_order_relaxed);
  if (requests == 0) return 0.0;
  return static_cast<double>(
             processed_nanos_.load(std::memory_order_relaxed)) *
         1e-9 / static_cast<double>(requests);
}

double EstimationService::SuggestedRetrySeconds() const {
  const double avg = avg_process_seconds();
  const size_t workers = pool_.num_threads();
  // One full-queue drain at the observed service rate, split across the
  // worker pool; 1ms floor before any request has been timed.
  const double drain = avg * static_cast<double>(queue_.capacity()) /
                       static_cast<double>(workers > 0 ? workers : 1);
  return std::clamp(drain, 1e-3, 1.0);
}

Result<EstimateResponse> EstimationService::SubmitSync(
    EstimateRequest request) {
  std::promise<EstimateResponse> promise;
  std::future<EstimateResponse> future = promise.get_future();
  CARDBENCH_RETURN_IF_ERROR(
      Submit(std::move(request), [&promise](EstimateResponse response) {
        promise.set_value(std::move(response));
      }));
  EstimateResponse response = future.get();
  CARDBENCH_RETURN_IF_ERROR(response.status);
  return response;
}

Result<double> EstimationService::EstimateSync(const std::string& estimator,
                                               const QueryGraph& graph,
                                               uint64_t subplan_mask) {
  CARDBENCH_ASSIGN_OR_RETURN(
      const EstimateResponse response,
      SubmitSync(EstimateRequest{estimator, subplan_mask, &graph}));
  auto it = response.cards.find(subplan_mask);
  if (it == response.cards.end()) {
    return Status::Internal("estimate missing from response");
  }
  return it->second;
}

Result<std::unordered_map<uint64_t, double>>
EstimationService::EstimateQuerySync(const std::string& estimator,
                                     const QueryGraph& graph) {
  CARDBENCH_ASSIGN_OR_RETURN(
      EstimateResponse response,
      SubmitSync(EstimateRequest{estimator, kAllSubplans, &graph}));
  return std::move(response.cards);
}

void EstimationService::Shutdown() {
  shut_down_.store(true, std::memory_order_release);
  queue_.Close();
  pool_.Shutdown();
}

bool EstimationService::AnswerFromCache(const EstimateRequest& request,
                                        const EstimateCallback& done) {
  // Shared like a worker, so a Refresh cannot change models or epochs
  // under the probe; while one runs the request queues instead of waiting.
  std::shared_lock<std::shared_mutex> serving(update_mu_, std::try_to_lock);
  if (!serving.owns_lock()) return false;
  uint64_t model_version = 0;
  uint64_t epoch = 0;
  if (Snapshot(request.estimator, &model_version, &epoch) == nullptr) {
    return false;  // Process answers NotFound
  }
  // Per-thread scratch: a cached answer allocates only its response.
  thread_local std::vector<SubplanCacheKey> keys;
  thread_local std::vector<double> estimates;
  const std::span<const uint64_t> masks = RequestedMasks(request);
  MakeKeys(epoch, *request.graph, masks, &keys);
  estimates.resize(masks.size());
  if (!cache_.LookupAll(keys, estimates.data())) return false;
  serving.unlock();
  EstimateResponse response;
  response.model_version = model_version;
  response.cache_hits = masks.size();
  response.cards.reserve(masks.size());
  for (size_t i = 0; i < masks.size(); ++i) {
    response.cards.emplace(masks[i], estimates[i]);
  }
  if (done) done(std::move(response));
  return true;
}

void EstimationService::WorkerLoop() {
  WorkItem item;
  while (queue_.Pop(&item)) {
    EstimateResponse response;
    if (Clock::now() > item.deadline) {
      // Expired while queued: answer without touching an estimator, so an
      // overloaded queue sheds dead work at dequeue speed.
      response.status = Status::DeadlineExceeded(
          "request deadline expired while queued");
    } else {
      const Clock::time_point start = Clock::now();
      {
        std::shared_lock<std::shared_mutex> serving(update_mu_);
        response = Process(item.request, item.deadline);
      }
      processed_requests_.fetch_add(1, std::memory_order_relaxed);
      processed_nanos_.fetch_add(
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - start)
                  .count()),
          std::memory_order_relaxed);
    }
    if (item.done) item.done(std::move(response));
  }
}

EstimateResponse EstimationService::Process(const EstimateRequest& request,
                                            Clock::time_point deadline) {
  EstimateResponse response;
  // One snapshot for the whole request: even if a hot-swap lands mid-way,
  // every estimate (and every cache key) of this response comes from the
  // same model version.
  uint64_t model_version = 0;
  uint64_t epoch = 0;
  const std::shared_ptr<CardinalityEstimator> snapshot =
      Snapshot(request.estimator, &model_version, &epoch);
  const CardinalityEstimator* estimator = snapshot.get();
  if (estimator == nullptr) {
    response.status =
        Status::NotFound("no estimator registered as '" + request.estimator +
                         "'");
    return response;
  }
  response.model_version = model_version;
  // Every mask of the request is probed against the sharded LRU in one
  // batch (one lock acquisition per shard), only the misses go to the
  // estimator — as one EstimateCards batch — and the fresh estimates are
  // filled back in one batch.
  const QueryGraph& graph = *request.graph;
  const std::span<const uint64_t> masks = RequestedMasks(request);
  std::vector<SubplanCacheKey> keys;
  MakeKeys(epoch, graph, masks, &keys);
  std::vector<double> estimates;
  std::vector<bool> hit;
  const size_t hits = cache_.LookupBatch(keys, &estimates, &hit);
  response.cache_hits += hits;
  response.cache_misses += masks.size() - hits;
  if (hits < masks.size()) {
    std::vector<uint64_t> miss_masks;
    std::vector<size_t> miss_idx;
    miss_masks.reserve(masks.size() - hits);
    miss_idx.reserve(masks.size() - hits);
    for (size_t i = 0; i < masks.size(); ++i) {
      if (!hit[i]) {
        miss_masks.push_back(masks[i]);
        miss_idx.push_back(i);
      }
    }
    // Without a deadline the whole miss set goes to the estimator as one
    // batch (maximum GEMM/featurization amortization). With one, the batch
    // is cut into bounded slices with a clock check before each, so an
    // expired request frees its worker after at most one slice. Work
    // finished before expiry is still cached — a retry resumes, not
    // restarts.
    const bool deadlined = deadline != Clock::time_point::max();
    const size_t stride = deadlined ? kDeadlineCheckStride : miss_masks.size();
    for (size_t begin = 0; begin < miss_masks.size(); begin += stride) {
      if (deadlined && Clock::now() > deadline) {
        response.status = Status::DeadlineExceeded(StrFormat(
            "deadline expired after %zu of %zu sub-plan estimates", begin,
            miss_masks.size()));
        response.cards.clear();
        return response;
      }
      const size_t count = std::min(stride, miss_masks.size() - begin);
      const std::vector<double> fresh = estimator->EstimateCards(
          graph, std::span<const uint64_t>(miss_masks).subspan(begin, count));
      std::vector<SubplanCacheKey> slice_keys;
      slice_keys.reserve(count);
      for (size_t m = 0; m < count; ++m) {
        estimates[miss_idx[begin + m]] = fresh[m];
        slice_keys.push_back(keys[miss_idx[begin + m]]);
      }
      cache_.InsertBatch(slice_keys, fresh);
    }
  }
  for (size_t i = 0; i < masks.size(); ++i) {
    response.cards[masks[i]] = estimates[i];
  }
  return response;
}

}  // namespace cardbench
