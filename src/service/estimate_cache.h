#ifndef CARDBENCH_SERVICE_ESTIMATE_CACHE_H_
#define CARDBENCH_SERVICE_ESTIMATE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

namespace cardbench {

/// Identity of one cached sub-plan estimate: the serving epoch of the model
/// that produced it, the workload query (the QueryGraph's 64-bit
/// fingerprint — FNV-1a of the query's canonical key) and the connected
/// table subset of that query (bitmask, as used by the optimizer's DP and
/// the Q-Error analysis).
///
/// An epoch names one state of one registered model for the lifetime of
/// the EstimationService: the service hands out a fresh one, from a single
/// service-wide counter, whenever a registration, hot-swap or refresh may
/// change what an estimator answers. A key therefore needs neither the
/// estimator's name nor its model version, and the entries of a replaced
/// model become unreachable at once and age out under LRU.
struct SubplanCacheKey {
  uint64_t epoch = 0;
  uint64_t fingerprint = 0;
  uint64_t subplan_mask = 0;

  bool operator==(const SubplanCacheKey&) const = default;
};

/// Monotonic counters describing cache effectiveness; the load driver
/// reports hit rate from a before/after delta.
struct EstimateCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;

  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Sharded LRU cache for sub-plan cardinality estimates that allocates
/// nothing after construction.
///
/// Keys hash onto `num_shards` independent shards, each behind its own
/// mutex, so concurrent lookups contend only when they collide on a shard.
/// A shard is a fixed array of entries threaded on an index-linked LRU
/// list (front = most recently used) plus an open-addressing index of
/// (hash, entry) slots with linear probing and backward-shift deletion,
/// sized to at least twice the entries. Eviction is exact LRU per shard:
/// inserting into a full shard reuses its least recently used entry.
class SubplanEstimateCache {
 public:
  /// `capacity` is the total entry budget, split evenly across
  /// `num_shards` shards (each shard holds at least one entry).
  explicit SubplanEstimateCache(size_t capacity, size_t num_shards = 16);
  ~SubplanEstimateCache();

  SubplanEstimateCache(const SubplanEstimateCache&) = delete;
  SubplanEstimateCache& operator=(const SubplanEstimateCache&) = delete;

  /// Returns true and writes the estimate if present (and marks it most
  /// recently used).
  bool Lookup(const SubplanCacheKey& key, double* estimate);

  /// Inserts the estimate, or refreshes a resident one in place.
  void Insert(const SubplanCacheKey& key, double estimate);

  /// Batch probe: fills hit[i]/estimates[i] for every key. Keys are taken
  /// shard by shard, so each shard's mutex is taken once per run of up to
  /// 64 keys instead of once per key; per-key semantics (LRU touch, stats)
  /// are those of Lookup. Returns the number of hits.
  size_t LookupBatch(const std::vector<SubplanCacheKey>& keys,
                     std::vector<double>* estimates, std::vector<bool>* hit);

  /// Batch fill: Insert for every (key, estimate) pair, grouped by shard
  /// like LookupBatch.
  void InsertBatch(const std::vector<SubplanCacheKey>& keys,
                   const std::vector<double>& estimates);

  /// All-or-nothing probe: when every key is present, writes the estimates
  /// (estimates[i] for keys[i]), counts one hit per key and returns true.
  /// Otherwise returns false at the first absent key and counts nothing, so
  /// a caller that then takes the LookupBatch path counts each key once.
  /// Keys found before the miss are marked most recently used either way.
  bool LookupAll(std::span<const SubplanCacheKey> keys, double* estimates);

  EstimateCacheStats stats() const;

  /// Current entries across shards.
  size_t size() const;

  size_t capacity() const { return per_shard_capacity_ * num_shards_; }

 private:
  class Shard;

  /// Runs `fn(shard, i, hash)` for every key, grouped by shard under the
  /// shard's lock and in key order within a shard. Stops, returning false,
  /// as soon as `fn` does.
  template <typename Fn>
  bool ForEachByShard(std::span<const SubplanCacheKey> keys, Fn&& fn);
  size_t ShardOf(uint64_t hash) const;

  size_t per_shard_capacity_;
  size_t num_shards_;
  std::unique_ptr<Shard[]> shards_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace cardbench

#endif  // CARDBENCH_SERVICE_ESTIMATE_CACHE_H_
