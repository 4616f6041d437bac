#ifndef CARDBENCH_STORAGE_INDEX_H_
#define CARDBENCH_STORAGE_INDEX_H_

#include <algorithm>
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
  size_t SlotOf(Value key) const { return SlotOf(key, HomeSlot(key)); }

  /// SlotOf(key) from its home slot, `home` == HomeSlot(key): a batched
  /// probe hashes each key once, for the prefetch and the lookup.
  size_t SlotOf(Value key, size_t home) const {
    size_t slot = home;
    while (slots_[slot].count != 0 && slots_[slot].key != key) {
      slot = (slot + 1) & mask_;
    }
    return slot;
  }

  /// The slot SlotOf(key) starts its walk at.
  size_t HomeSlot(Value key) const {
    return HashMix64(static_cast<uint64_t>(key)) & mask_;
  }

  /// Prefetches the slot `home`. Locality 3 (prefetcht0) pulls it all the
  /// way into L1: the demand load follows within a few probes, and a t2
  /// prefetch would still leave it paying the L2 round trip.
  void Prefetch(size_t home) const {
    __builtin_prefetch(slots_.data() + home, 0, 3);
  }

  size_t num_distinct() const { return num_distinct_; }

  /// The slot array, in probe order. Callers may rewrite payload fields
  /// other than `key` and `count`.
  std::vector<SlotT>& slots() { return slots_; }
  const std::vector<SlotT>& slots() const { return slots_; }

 private:
  /// Slots of a table with no (or few) keys; a power of two.
  static constexpr size_t kMinSlots = 16;

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

/// The last lookup of a stream of probes into one HashIndex: a key equal to
/// `key` reuses `run` instead of walking the table again. Fan-out joins
/// repeat their upstream components, so consecutive probe keys are often
/// equal. A lookup is a function of the key alone, so a memo stays exact
/// across batches and morsels for as long as its index lives.
struct RunMemo {
  bool set = false;
  Value key = 0;
  std::span<const uint32_t> run;
};

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
    return Lookup(v, counts_.HomeSlot(v));
  }

  /// Lookup(v) from its home slot, `home` == KeyCountTable::HomeSlot(v).
  std::span<const uint32_t> Lookup(Value v, size_t home) const {
    const Slot& s = counts_.slots()[counts_.SlotOf(v, home)];
    if (s.count == 0) return {};
    return {rows_.data() + s.offset, s.count};
  }

  /// Lookup(v) through `memo`: v equal to the memo's key reuses its run;
  /// any other v is looked up and becomes the memo.
  std::span<const uint32_t> Lookup(Value v, RunMemo& memo) const {
    if (!memo.set || v != memo.key) memo = {true, v, Lookup(v)};
    return memo.run;
  }

  /// The batched probe loop of the executor's hash join and of
  /// bench_micro_join: calls `fn(i, run)` with the run of each non-NULL
  /// keys[i] (valid[i] != 0), i ascending in [0, n), and stops at the
  /// first call that returns false; returns whether none did. Each key is
  /// hashed once: its home slot is prefetched kIndexPrefetchDistance keys
  /// ahead of its lookup and looked up from there. A key equal to the one
  /// before it is neither hashed nor prefetched, and a key equal to
  /// `memo`'s (the last key looked up, in this call or an earlier one)
  /// reuses its run; the memo ends holding the last key's.
  template <typename Fn>
  bool ProbeBatch(const Value* keys, const uint8_t* valid, size_t n,
                  RunMemo& memo, Fn&& fn) const {
    constexpr size_t kAhead = kIndexPrefetchDistance;
    size_t homes[kAhead] = {};
    // A key that repeats its valid predecessor finds that key in the memo
    // when its turn comes, so its home slot is never read.
    auto prefetch = [&](size_t j) {
      if (valid[j] == 0 ||
          (j > 0 && valid[j - 1] != 0 && keys[j] == keys[j - 1])) {
        return;
      }
      homes[j % kAhead] = counts_.HomeSlot(keys[j]);
      counts_.Prefetch(homes[j % kAhead]);
    };
    for (size_t j = 0; j < std::min(kAhead, n); ++j) prefetch(j);
    RunMemo last = memo;  // a local, so `fn`'s stores cannot alias it
    bool ok = true;
    for (size_t i = 0; i < n && ok; ++i) {
      const size_t home = homes[i % kAhead];
      if (i + kAhead < n) prefetch(i + kAhead);
      if (valid[i] == 0) continue;
      if (!last.set || keys[i] != last.key) {
        last = {true, keys[i], Lookup(keys[i], home)};
      }
      ok = fn(i, last.run);
    }
    memo = last;
    return ok;
  }

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
