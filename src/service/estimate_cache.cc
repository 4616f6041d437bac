#include "service/estimate_cache.h"

#include <algorithm>
#include <bit>
#include <mutex>

#include "common/hash.h"

namespace cardbench {
namespace {

/// Full-width hash of a key: the index slot takes the low 32 bits, the
/// shard the high 32, so the two choices are independent.
uint64_t HashKey(const SubplanCacheKey& key) {
  return HashMix64(key.fingerprint ^
                   HashMix64(key.subplan_mask +
                             key.epoch * 0x9E3779B97F4A7C15ULL));
}

}  // namespace

class alignas(64) SubplanEstimateCache::Shard {
 public:
  void Init(size_t capacity) {
    capacity_ = capacity;
    entries_ = std::make_unique<Entry[]>(capacity);
    const size_t slots = std::bit_ceil(2 * capacity);
    slots_ = std::make_unique<Slot[]>(slots);
    slot_mask_ = slots - 1;
  }

  /// Writes the estimate of `key` and marks it most recently used; false
  /// when absent.
  bool Find(const SubplanCacheKey& key, uint64_t hash, double* estimate) {
    const Slot slot = slots_[Probe(key, static_cast<uint32_t>(hash))];
    if (slot.entry == 0) return false;
    Touch(slot.entry - 1);
    *estimate = entries_[slot.entry - 1].estimate;
    return true;
  }

  /// Inserts or refreshes `key`; returns true when that evicted the least
  /// recently used entry.
  bool Put(const SubplanCacheKey& key, uint64_t hash, double estimate) {
    const uint32_t h = static_cast<uint32_t>(hash);
    size_t s = Probe(key, h);
    if (slots_[s].entry != 0) {
      const uint32_t e = slots_[s].entry - 1;
      entries_[e].estimate = estimate;
      Touch(e);
      return false;
    }
    uint32_t e = static_cast<uint32_t>(size_);
    const bool evict = size_ == capacity_;
    if (evict) {
      e = tail_;
      Unlink(e);
      const SubplanCacheKey& old = entries_[e].key;
      EraseSlot(Probe(old, static_cast<uint32_t>(HashKey(old))));
      s = Probe(key, h);  // the backward shift may have moved the hole
    } else {
      ++size_;
    }
    entries_[e].key = key;
    entries_[e].estimate = estimate;
    PushFront(e);
    slots_[s] = Slot{h, e + 1};
    return evict;
  }

  size_t size() const { return size_; }

  std::mutex mu;

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  struct Entry {
    SubplanCacheKey key;
    double estimate;
    uint32_t prev;  ///< towards the most recently used end
    uint32_t next;
  };
  /// An index slot: the low 32 bits of the key's hash (which also give its
  /// home slot) and its entry + 1; entry 0 marks an empty slot.
  struct Slot {
    uint32_t hash = 0;
    uint32_t entry = 0;
  };

  /// The slot holding `key`, or the empty slot that ends its probe run.
  /// Entries are read only on a full 32-bit hash match.
  size_t Probe(const SubplanCacheKey& key, uint32_t h) const {
    for (size_t s = h & slot_mask_;; s = (s + 1) & slot_mask_) {
      const Slot slot = slots_[s];
      if (slot.entry == 0 ||
          (slot.hash == h && entries_[slot.entry - 1].key == key)) {
        return s;
      }
    }
  }

  /// Empties slot `i`, moving later slots of its probe run back so that no
  /// probe run is cut short (no tombstones).
  void EraseSlot(size_t i) {
    for (size_t j = (i + 1) & slot_mask_; slots_[j].entry != 0;
         j = (j + 1) & slot_mask_) {
      const size_t home = slots_[j].hash & slot_mask_;
      // The slot at j stays unless its home lies cyclically outside (i, j].
      const bool stays = i <= j ? (i < home && home <= j)
                                : (i < home || home <= j);
      if (!stays) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    slots_[i] = Slot{};
  }

  void Touch(uint32_t e) {
    if (e == head_) return;
    Unlink(e);
    PushFront(e);
  }

  void Unlink(uint32_t e) {
    const Entry& entry = entries_[e];
    if (entry.prev != kNil) {
      entries_[entry.prev].next = entry.next;
    } else {
      head_ = entry.next;
    }
    if (entry.next != kNil) {
      entries_[entry.next].prev = entry.prev;
    } else {
      tail_ = entry.prev;
    }
  }

  void PushFront(uint32_t e) {
    entries_[e].prev = kNil;
    entries_[e].next = head_;
    if (head_ != kNil) {
      entries_[head_].prev = e;
    } else {
      tail_ = e;
    }
    head_ = e;
  }

  std::unique_ptr<Entry[]> entries_;
  std::unique_ptr<Slot[]> slots_;
  size_t capacity_ = 0;
  size_t slot_mask_ = 0;
  size_t size_ = 0;
  uint32_t head_ = kNil;  ///< most recently used
  uint32_t tail_ = kNil;  ///< least recently used: the next to evict
};

SubplanEstimateCache::SubplanEstimateCache(size_t capacity, size_t num_shards)
    : num_shards_(std::max<size_t>(1, num_shards)) {
  per_shard_capacity_ = std::max<size_t>(1, capacity / num_shards_);
  shards_ = std::make_unique<Shard[]>(num_shards_);
  for (size_t s = 0; s < num_shards_; ++s) {
    shards_[s].Init(per_shard_capacity_);
  }
}

SubplanEstimateCache::~SubplanEstimateCache() = default;

size_t SubplanEstimateCache::ShardOf(uint64_t hash) const {
  return static_cast<size_t>(((hash >> 32) * num_shards_) >> 32);
}

template <typename Fn>
bool SubplanEstimateCache::ForEachByShard(
    std::span<const SubplanCacheKey> keys, Fn&& fn) {
  // Runs of up to 64 keys: their hashes and shards fit on the stack and a
  // 64-bit mask tracks which keys are still to visit.
  constexpr size_t kRun = 64;
  uint64_t hashes[kRun];
  uint32_t shard_of[kRun];
  for (size_t base = 0; base < keys.size(); base += kRun) {
    const size_t n = std::min(kRun, keys.size() - base);
    for (size_t i = 0; i < n; ++i) {
      hashes[i] = HashKey(keys[base + i]);
      shard_of[i] = static_cast<uint32_t>(ShardOf(hashes[i]));
    }
    uint64_t pending = n == kRun ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
    while (pending != 0) {
      const uint32_t s = shard_of[std::countr_zero(pending)];
      Shard& shard = shards_[s];
      std::lock_guard<std::mutex> lock(shard.mu);
      for (uint64_t rest = pending; rest != 0; rest &= rest - 1) {
        const int i = std::countr_zero(rest);
        if (shard_of[i] != s) continue;
        pending &= ~(uint64_t{1} << i);
        if (!fn(shard, base + i, hashes[i])) return false;
      }
    }
  }
  return true;
}

bool SubplanEstimateCache::Lookup(const SubplanCacheKey& key, double* estimate) {
  if (LookupAll({&key, 1}, estimate)) return true;
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void SubplanEstimateCache::Insert(const SubplanCacheKey& key, double estimate) {
  ForEachByShard({&key, 1}, [&](Shard& shard, size_t, uint64_t hash) {
    if (shard.Put(key, hash, estimate)) {
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
  });
}

size_t SubplanEstimateCache::LookupBatch(
    const std::vector<SubplanCacheKey>& keys, std::vector<double>* estimates,
    std::vector<bool>* hit) {
  estimates->assign(keys.size(), 0.0);
  hit->assign(keys.size(), false);
  size_t hits = 0;
  ForEachByShard(keys, [&](Shard& shard, size_t i, uint64_t hash) {
    if (shard.Find(keys[i], hash, &(*estimates)[i])) {
      (*hit)[i] = true;
      ++hits;
    }
    return true;
  });
  if (hits) hits_.fetch_add(hits, std::memory_order_relaxed);
  if (hits < keys.size()) {
    misses_.fetch_add(keys.size() - hits, std::memory_order_relaxed);
  }
  return hits;
}

void SubplanEstimateCache::InsertBatch(
    const std::vector<SubplanCacheKey>& keys,
    const std::vector<double>& estimates) {
  uint64_t evictions = 0;
  ForEachByShard(keys, [&](Shard& shard, size_t i, uint64_t hash) {
    evictions += shard.Put(keys[i], hash, estimates[i]) ? 1 : 0;
    return true;
  });
  if (evictions) evictions_.fetch_add(evictions, std::memory_order_relaxed);
}

bool SubplanEstimateCache::LookupAll(std::span<const SubplanCacheKey> keys,
                                     double* estimates) {
  const bool all =
      ForEachByShard(keys, [&](Shard& shard, size_t i, uint64_t hash) {
        return shard.Find(keys[i], hash, &estimates[i]);
      });
  if (all) hits_.fetch_add(keys.size(), std::memory_order_relaxed);
  return all;
}

EstimateCacheStats SubplanEstimateCache::stats() const {
  EstimateCacheStats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  return out;
}

size_t SubplanEstimateCache::size() const {
  size_t total = 0;
  for (size_t s = 0; s < num_shards_; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mu);
    total += shards_[s].size();
  }
  return total;
}

}  // namespace cardbench
