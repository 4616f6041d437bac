#ifndef CARDBENCH_STORAGE_INDEX_H_
#define CARDBENCH_STORAGE_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/hash.h"
#include "storage/column.h"

namespace cardbench {

/// Hash index from column value to the ascending list of row ids holding
/// it. NULLs are not indexed (SQL equi-join semantics: NULL joins nothing).
/// Used by index scans, index-nested-loop joins, wander-join sampling and
/// fanout-column construction.
///
/// The layout is the join hash table's (exec/join_hash.h) without its
/// partitions and tags: one linear-probe array of (key, offset, count)
/// slots, one per distinct value, at load factor <= 1/2, over one
/// contiguous postings array holding each value's rows as a run in
/// ascending row order. A lookup hashes the key with the shared finalizer
/// (common/hash.h), walks to its slot and returns the run as a span: no
/// per-key allocation, and no pointer chase between the slot and its rows.
class HashIndex {
 public:
  /// Builds the index over `column` in two passes.
  explicit HashIndex(const Column& column);

  /// Row ids whose value equals `v`, ascending (empty if none). The span
  /// stays valid for the index's lifetime.
  std::span<const uint32_t> Lookup(Value v) const {
    const Slot& s = slots_[SlotOf(v)];
    if (s.count == 0) return {};
    return {rows_.data() + s.offset, s.count};
  }

  /// Number of distinct indexed values.
  size_t num_distinct() const { return num_distinct_; }

  /// Total indexed (non-NULL) entries.
  size_t num_entries() const { return rows_.size(); }

  /// Calls `fn(value, row_ids)` once per distinct indexed value, e.g. for
  /// degree statistics. The order is unspecified; callers must be
  /// order-insensitive.
  template <typename Fn>
  void ForEachKey(Fn&& fn) const {
    for (const Slot& s : slots_) {
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

  /// Index of the slot holding `v`, or of the empty slot ending its probe
  /// chain (load <= 1/2 guarantees one).
  size_t SlotOf(Value v) const {
    size_t slot = HashMix64(static_cast<uint64_t>(v)) & mask_;
    while (slots_[slot].count != 0 && slots_[slot].key != v) {
      slot = (slot + 1) & mask_;
    }
    return slot;
  }

  /// Doubles the slot array and re-inserts every occupied slot.
  void Grow();

  std::vector<Slot> slots_;
  std::vector<uint32_t> rows_;
  size_t mask_ = 0;
  size_t num_distinct_ = 0;
};

}  // namespace cardbench

#endif  // CARDBENCH_STORAGE_INDEX_H_
