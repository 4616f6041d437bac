#ifndef CARDBENCH_STORAGE_INDEX_H_
#define CARDBENCH_STORAGE_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/hash.h"
#include "storage/column.h"

namespace cardbench {

/// Growable linear-probe table from key to a count: one slot per distinct
/// key at load factor <= 1/2, doubled when a new key would pass it. `SlotT`
/// has a Value `key` and an unsigned `count`; count == 0 marks an empty
/// slot. HashIndex counts each value's rows here before laying out its
/// postings; the executor's count-only root hash join aggregates its build
/// side here instead of building postings.
template <typename SlotT>
class KeyCountTable {
 public:
  using Count = decltype(SlotT::count);

  KeyCountTable() : slots_(kMinSlots), mask_(kMinSlots - 1) {}

  /// Adds `n` (> 0) to the count of `key`.
  void Add(Value key, Count n = 1) {
    size_t slot = SlotOf(key);
    if (slots_[slot].count == 0) {
      if (2 * (num_distinct_ + 1) > slots_.size()) {
        Grow();
        slot = SlotOf(key);
      }
      slots_[slot].key = key;
      ++num_distinct_;
    }
    slots_[slot].count += n;
  }

  /// The count of `key`; 0 if it was never added.
  Count Get(Value key) const { return slots_[SlotOf(key)].count; }

  /// Adds every count of `other` to this table.
  void Merge(const KeyCountTable& other) {
    for (const SlotT& s : other.slots_) {
      if (s.count != 0) Add(s.key, s.count);
    }
  }

  /// Index of the slot holding `key`, or of the empty slot ending its probe
  /// chain (load <= 1/2 guarantees one).
  size_t SlotOf(Value key) const {
    size_t slot = HomeSlot(key);
    while (slots_[slot].count != 0 && slots_[slot].key != key) {
      slot = (slot + 1) & mask_;
    }
    return slot;
  }

  /// Prefetches the slot SlotOf(key) starts its walk at. Locality 3
  /// (prefetcht0) pulls it all the way into L1: the demand load follows
  /// within a few probes, and a t2 prefetch would still leave it paying the
  /// L2 round trip.
  void Prefetch(Value key) const {
    __builtin_prefetch(slots_.data() + HomeSlot(key), 0, 3);
  }

  size_t num_distinct() const { return num_distinct_; }

  /// The slot array, in probe order. Callers may rewrite payload fields
  /// other than `key` and `count`.
  std::vector<SlotT>& slots() { return slots_; }
  const std::vector<SlotT>& slots() const { return slots_; }

 private:
  /// Slots of a table with no (or few) keys; a power of two.
  static constexpr size_t kMinSlots = 16;

  size_t HomeSlot(Value key) const {
    return HashMix64(static_cast<uint64_t>(key)) & mask_;
  }

  /// Doubles the slot array and re-inserts every occupied slot.
  void Grow() {
    std::vector<SlotT> old(2 * slots_.size());
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    for (const SlotT& s : old) {
      if (s.count != 0) slots_[SlotOf(s.key)] = s;
    }
  }

  std::vector<SlotT> slots_;
  size_t mask_;
  size_t num_distinct_ = 0;
};

/// Lookahead, in keys, of batched HashIndex probes (the executor's hash
/// join and bench_micro_join): while probe i walks the table, the home slot
/// of probe i + kIndexPrefetchDistance is already on its way up the cache
/// hierarchy.
inline constexpr size_t kIndexPrefetchDistance = 8;

/// Hash index from key to the ascending list of row ids holding it. NULLs
/// are not indexed (SQL equi-join semantics: NULL joins nothing). Built
/// over a base-table column for index scans, index-nested-loop joins,
/// wander-join sampling and fanout-column construction, and over a hash
/// join's gathered build keys, where a row id is a build tuple's position.
///
/// One KeyCountTable of (key, offset, count) slots, one per distinct key,
/// at load factor <= 1/2, over one contiguous postings array holding each
/// key's rows as a run in ascending row order. A lookup hashes the key
/// with the shared finalizer (common/hash.h), walks to its slot and returns
/// the run as a span: no per-key allocation, and no pointer chase between
/// the slot and its rows.
class HashIndex {
 public:
  /// Builds the index over rows [0, keys.size()) in two passes: row i holds
  /// keys[i], or NULL where valid[i] == 0. `valid` has keys.size() entries.
  HashIndex(std::span<const Value> keys, std::span<const uint8_t> valid);

  /// Builds the index over `column`'s rows.
  explicit HashIndex(const Column& column)
      : HashIndex(column.values(), column.validity()) {}

  /// Row ids whose value equals `v`, ascending (empty if none). The span
  /// stays valid for the index's lifetime.
  std::span<const uint32_t> Lookup(Value v) const {
    const Slot& s = counts_.slots()[counts_.SlotOf(v)];
    if (s.count == 0) return {};
    return {rows_.data() + s.offset, s.count};
  }

  /// Pulls the slot a Lookup(v) starts at into L1. Batched probes call
  /// this kIndexPrefetchDistance keys ahead.
  void Prefetch(Value v) const { counts_.Prefetch(v); }

  /// Number of distinct indexed values.
  size_t num_distinct() const { return counts_.num_distinct(); }

  /// Total indexed (non-NULL) entries.
  size_t num_entries() const { return rows_.size(); }

  /// Calls `fn(value, row_ids)` once per distinct indexed value, e.g. for
  /// degree statistics. The order is unspecified; callers must be
  /// order-insensitive.
  template <typename Fn>
  void ForEachKey(Fn&& fn) const {
    for (const Slot& s : counts_.slots()) {
      if (s.count != 0) {
        fn(s.key, std::span<const uint32_t>(rows_.data() + s.offset, s.count));
      }
    }
  }

 private:
  /// One distinct value's run: `count` row ids starting at `offset` in
  /// rows_. count == 0 marks an empty slot.
  struct Slot {
    Value key = 0;
    uint32_t offset = 0;
    uint32_t count = 0;
  };

  KeyCountTable<Slot> counts_;
  std::vector<uint32_t> rows_;
};

}  // namespace cardbench

#endif  // CARDBENCH_STORAGE_INDEX_H_
