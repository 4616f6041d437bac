#ifndef CARDBENCH_EXEC_JOIN_HASH_H_
#define CARDBENCH_EXEC_JOIN_HASH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/arena.h"
#include "common/hash.h"
#include "storage/tag_probe.h"
#include "storage/value.h"

namespace cardbench {

/// Build tuples per build morsel — matches the executor's scan morsel
/// granularity so one morsel's gather touches the same working set a scan
/// morsel does.
inline constexpr size_t kBuildMorselRows = size_t{1} << 14;

/// Software-prefetch lookahead, in keys / build entries, of the join's
/// build loops and of its probe callers (the executor's probe morsels and
/// bench_micro_join): while entry i walks the table, the home slot of entry
/// i + kJoinPrefetchDistance is already on its way up the cache hierarchy.
inline constexpr size_t kJoinPrefetchDistance = 8;

/// The executor's hash-join table:
///
///  - **Radix-partitioned build** (configurable fan-out 2^radix_bits):
///    build keys are materialized once, then distributed with a classic
///    2-pass histogram + scatter keyed on the low hash bits. Per-morsel
///    histograms merged into global offsets make the scatter morsel-
///    parallel yet write each partition's entries in ascending build-tuple
///    order regardless of thread count.
///  - **Unique-key open addressing + contiguous postings** per partition:
///    the linear-probe table (load factor <= 1/2, sized by the *distinct*
///    key count) holds one 16-byte slot per distinct key — the key plus an
///    (offset, count) run descriptor into a contiguous build-row postings
///    array. Duplicates never lengthen probe chains, a count-only probe is
///    O(1) after the slot lookup (read `count`), and match enumeration
///    streams one cache-friendly postings run laid out in ascending
///    build-row order, so results do not depend on fan-out or threads.
///  - **1-byte tag vectors**: a slot's tag is 1 + the top 7 hash bits
///    (never the empty marker 0). Probes scan tags 16 at a time through the
///    storage tag-probe kernel and only touch the slot array on tag hits —
///    a bloom-style early reject that keeps misses inside one cache line.
///  - **Arena-backed storage**: every array comes from the building
///    thread's ThreadLocalArena inside an ArenaFrame held by the table, so
///    steady-state joins allocate zero heap; the frame unwinds when the
///    table is destroyed.
///  - **Software prefetch**: the build insert loops prefetch the home
///    slots kJoinPrefetchDistance entries ahead; probe-side callers are
///    expected to do the same through Prefetch() (the executor's batched
///    probe morsels do).
///
/// Thread-safety: Build() must be called once, from the owning thread (it
/// borrows that thread's arena); the probe API is const and safe for any
/// number of concurrent readers afterwards.
struct JoinHashConfig {
  /// log2 of the partition fan-out. 0 = a single table (no partitioning).
  /// Clamped to kMaxRadixBits.
  size_t radix_bits = 4;
  /// Granularity of the batched key gathers feeding the build.
  size_t batch_size = 1024;

  static constexpr size_t kMaxRadixBits = 12;
};

/// Batched key access of the build input: fills keys[0, hi-lo) and
/// valid[0, hi-lo) for build tuples [lo, hi). Called from build morsel
/// workers (possibly concurrently for disjoint ranges); implementations
/// must be safe for that.
class JoinKeySource {
 public:
  virtual ~JoinKeySource() = default;
  virtual void GatherKeys(size_t lo, size_t hi, Value* keys,
                          uint8_t* valid) const = 0;
};

/// Fans `fn(m)` over m in [0, count) and returns after all complete.
/// The executor passes its morsel pool; a null runner means serial.
using JoinMorselRunner =
    std::function<void(size_t count, const std::function<void(size_t)>& fn)>;

/// Returns false when execution must unwind (wall-clock budget exhausted).
/// Called every few-thousand processed rows from build loops.
using JoinBudgetCheck = std::function<bool()>;

/// Position of `hash`'s partition in the fan-out: the low radix bits.
/// Slot-within-partition uses the next bits and the tag the top bits, so
/// the three derivations never correlate.
inline uint8_t TagOfHash(uint64_t hash) {
  return static_cast<uint8_t>(hash >> 56) | 0x80u;
}

/// The shared key hash of the join layer (see common/hash.h).
inline uint64_t JoinKeyHash(Value v) {
  return HashMix64(static_cast<uint64_t>(v));
}

class JoinHashTable {
 public:
  JoinHashTable() = default;
  JoinHashTable(const JoinHashTable&) = delete;
  JoinHashTable& operator=(const JoinHashTable&) = delete;

  /// Builds the table over `num_tuples` build tuples. Returns false when
  /// the budget tripped mid-build (the table is then unusable and the
  /// caller must unwind). NULL keys (valid == 0) are skipped: they join
  /// nothing.
  bool Build(const JoinKeySource& source, size_t num_tuples,
             const JoinHashConfig& config, const JoinMorselRunner& runner,
             const JoinBudgetCheck& budget_check);

  /// Non-NULL entries inserted.
  size_t num_entries() const { return num_entries_; }

  /// Partition count actually used (after clamping radix_bits).
  size_t fanout() const { return size_t{1} << radix_bits_; }

  /// Prefetches the tag/slot lines a probe of `hash` will touch first.
  /// Probe loops call this kJoinPrefetchDistance keys ahead.
  inline void Prefetch(uint64_t hash) const {
    const Partition& p = parts_[hash & fanout_mask_];
    const size_t slot = (hash >> radix_bits_) & p.cap_mask;
    // Locality 3 = prefetcht0: pull all the way into L1 — the demand loads
    // follow within kJoinPrefetchDistance probes, and a t2 prefetch would
    // still leave them paying the L2 round trip.
    __builtin_prefetch(p.tags + slot, 0, 3);
    __builtin_prefetch(p.slots + slot, 0, 3);
  }

  /// Invokes `fn(build_row)` for every build entry whose key equals `key`,
  /// in ascending build-row order. `fn` returns false to abort the walk
  /// (emit-cap exhaustion); ForEachMatch then returns false too.
  /// `hash` must be JoinKeyHash(key).
  template <typename Fn>
  inline bool ForEachMatch(Value key, uint64_t hash, Fn&& fn) const {
    const Slot* s = FindSlot(key, hash);
    if (s == nullptr) return true;
    const Partition& p = parts_[hash & fanout_mask_];
    const uint32_t* rows = p.rows + s->offset;
    for (uint32_t j = 0; j < s->count; ++j) {
      if (!fn(rows[j])) return false;
    }
    return true;
  }

  /// Number of build entries whose key equals `key` (the count-only fast
  /// path: no extra-edge evaluation, no emission). O(1) past the slot
  /// lookup — the run descriptor carries the duplication count.
  inline uint64_t CountMatches(Value key, uint64_t hash) const {
    const Slot* s = FindSlot(key, hash);
    return s == nullptr ? 0 : s->count;
  }

 private:
  /// One distinct key's run descriptor: `count` postings starting at
  /// `offset` in the partition's rows array, ascending build-row order.
  struct Slot {
    Value key;
    uint32_t offset;
    uint32_t count;
  };

  /// One partition's unique-key open-addressing table. `tags` has
  /// cap_mask + 1 slots plus kTagGroupWidth - 1 mirror bytes (copies of the
  /// first tags) so a 16-wide group load at any slot stays in bounds across
  /// the wrap. `rows` holds the partition's postings, grouped per key.
  struct Partition {
    uint8_t* tags = nullptr;
    Slot* slots = nullptr;
    uint32_t* rows = nullptr;
    size_t cap_mask = 0;
  };

  /// The slot holding `key`, or nullptr if absent. Scans tags 16 at a time;
  /// keys are unique, so the first key hit ends the walk.
  inline const Slot* FindSlot(Value key, uint64_t hash) const {
    const Partition& p = parts_[hash & fanout_mask_];
    const uint8_t tag = TagOfHash(hash);
    size_t group = (hash >> radix_bits_) & p.cap_mask;
    while (true) {
      uint32_t match = TagMatchMask16(p.tags + group, tag);
      const uint32_t empty = TagEmptyMask16(p.tags + group);
      if (empty != 0) {
        // The chain ends at the first empty slot; later bits of this group
        // are other keys' territory (no equal key can live past the chain
        // end in insert-only linear probing).
        match &= (empty & (~empty + 1u)) - 1u;
      }
      while (match != 0) {
        const size_t idx =
            (group + static_cast<size_t>(__builtin_ctz(match))) & p.cap_mask;
        if (p.slots[idx].key == key) return &p.slots[idx];
        match &= match - 1;
      }
      if (empty != 0) return nullptr;
      group = (group + kTagGroupWidth) & p.cap_mask;
    }
  }

  /// Holds the partition arrays; opened by Build() on the building
  /// thread's arena.
  std::optional<ArenaFrame> frame_;

  std::vector<Partition> parts_;
  size_t radix_bits_ = 0;
  uint64_t fanout_mask_ = 0;
  size_t num_entries_ = 0;
};

}  // namespace cardbench

#endif  // CARDBENCH_EXEC_JOIN_HASH_H_
