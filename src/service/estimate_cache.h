#ifndef CARDBENCH_SERVICE_ESTIMATE_CACHE_H_
#define CARDBENCH_SERVICE_ESTIMATE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace cardbench {

/// Identity of one cached sub-plan estimate: which estimator produced it,
/// which workload query it belongs to (the QueryGraph's 64-bit fingerprint
/// — FNV-1a of the query's canonical key) and which connected table subset
/// of that query (bitmask, as used by the optimizer's DP and the Q-Error
/// analysis).
struct SubplanCacheKey {
  std::string estimator;
  uint64_t fingerprint = 0;
  uint64_t subplan_mask = 0;
  /// Version of the model that produced the estimate. Hot-swapping a model
  /// bumps this in every new key, so entries computed by the retired
  /// version can never be served for the new one (and vice versa) — the
  /// cache stays linearizable across swaps without a global flush.
  uint64_t model_version = 0;

  bool operator==(const SubplanCacheKey& other) const {
    return subplan_mask == other.subplan_mask &&
           fingerprint == other.fingerprint &&
           model_version == other.model_version &&
           estimator == other.estimator;
  }
};

/// Monotonic counters describing cache effectiveness; the load driver
/// reports hit rate from a before/after delta.
struct EstimateCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t invalidated_hits = 0;  ///< lookups that found a stale-version entry

  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Sharded LRU cache for sub-plan cardinality estimates.
///
/// Concurrency: keys hash onto `num_shards` independent shards, each with
/// its own mutex, LRU list and map — concurrent lookups from the service's
/// worker pool contend only when they collide on a shard.
///
/// Invalidation: the cache carries a data version (an atomic counter).
/// Every entry records the version it was inserted under; BumpVersion
/// (hooked to data updates — appends, estimator retrains) makes every older
/// entry unservable in O(1), and stale entries are reclaimed lazily on
/// touch. This is what keeps `dynamic_updates`-style workloads correct: an
/// estimate computed before an insert batch is never served after it.
class SubplanEstimateCache {
 public:
  /// `capacity` is the total entry budget, split evenly across
  /// `num_shards` shards (each shard holds at least one entry).
  explicit SubplanEstimateCache(size_t capacity, size_t num_shards = 16);

  /// Returns true and writes the estimate if present and current-version.
  bool Lookup(const SubplanCacheKey& key, double* estimate);

  /// Inserts (or refreshes) the estimate under the current version.
  void Insert(const SubplanCacheKey& key, double estimate);

  /// Batch probe: fills hit[i]/estimates[i] for every key, grouping keys by
  /// shard so each shard's mutex is taken at most once per call (instead of
  /// once per key). Per-key semantics (LRU touch, lazy stale reclaim,
  /// stats) are identical to Lookup. Returns the number of hits.
  size_t LookupBatch(const std::vector<SubplanCacheKey>& keys,
                     std::vector<double>* estimates, std::vector<bool>* hit);

  /// Batch fill: Insert for every (key, estimate) pair, one shard lock
  /// acquisition per touched shard.
  void InsertBatch(const std::vector<SubplanCacheKey>& keys,
                   const std::vector<double>& estimates);

  /// Invalidates every entry inserted before this call.
  void BumpVersion() { version_.fetch_add(1, std::memory_order_acq_rel); }

  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  EstimateCacheStats stats() const;

  /// Current live entries across shards (stale entries count until lazily
  /// reclaimed).
  size_t size() const;

  size_t capacity() const { return per_shard_capacity_ * shards_.size(); }

 private:
  struct Entry {
    SubplanCacheKey key;
    double estimate = 0.0;
    uint64_t version = 0;
  };
  struct KeyHash {
    size_t operator()(const SubplanCacheKey& key) const;
  };
  struct Shard {
    std::mutex mu;
    /// Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<SubplanCacheKey, std::list<Entry>::iterator, KeyHash> map;
  };

  Shard& ShardFor(const SubplanCacheKey& key);

  size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> version_{1};

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> invalidated_hits_{0};
};

}  // namespace cardbench

#endif  // CARDBENCH_SERVICE_ESTIMATE_CACHE_H_
