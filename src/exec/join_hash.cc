#include "exec/join_hash.h"

#include <algorithm>
#include <atomic>
#include <cstring>

namespace cardbench {

namespace {

/// Inserts between budget checks inside the partition-insert loop (the only
/// build loop whose per-task size is unbounded by the morsel split).
constexpr size_t kInsertBudgetInterval = size_t{1} << 14;

size_t NextPow2(size_t x) {
  if (x <= 1) return 1;
  return size_t{1} << (64 - static_cast<size_t>(__builtin_clzll(x - 1)));
}

}  // namespace

bool JoinHashTable::Build(const JoinKeySource& source, size_t num_tuples,
                          const JoinHashConfig& config,
                          const JoinMorselRunner& runner,
                          const JoinBudgetCheck& budget_check) {
  radix_bits_ = std::min(config.radix_bits, JoinHashConfig::kMaxRadixBits);
  const size_t fanout = size_t{1} << radix_bits_;
  fanout_mask_ = fanout - 1;
  Arena& arena = frame_.emplace(ThreadLocalArena()).arena();
  parts_.assign(fanout, Partition{});

  const size_t num_morsels =
      (num_tuples + kBuildMorselRows - 1) / kBuildMorselRows;

  // Build scratch is heap-owned and freed when Build returns: keeping it in
  // the arena would pin ~37 bytes/row behind the (later-allocated, hence
  // unrewindable) partition arrays for the table's whole probe lifetime.
  std::vector<Value> keys(num_tuples);
  std::vector<uint8_t> valid(num_tuples);
  std::vector<uint64_t> hashes(num_tuples);
  std::vector<uint64_t> hist(num_morsels * fanout, 0);

  std::atomic<bool> aborted{false};
  auto run = [&](size_t count, const std::function<void(size_t)>& fn) {
    if (runner) {
      runner(count, fn);
    } else {
      for (size_t m = 0; m < count; ++m) fn(m);
    }
  };
  auto check_budget = [&]() {
    if (budget_check && !budget_check()) {
      aborted.store(true, std::memory_order_relaxed);
    }
  };

  // Phase 1 (morsel-parallel): gather keys, hash, count per-(morsel,
  // partition) histograms. Each morsel owns disjoint ranges of every array.
  const size_t gather_chunk = std::max<size_t>(config.batch_size, 1);
  run(num_morsels, [&](size_t m) {
    if (aborted.load(std::memory_order_relaxed)) return;
    const size_t lo = m * kBuildMorselRows;
    const size_t hi = std::min(lo + kBuildMorselRows, num_tuples);
    for (size_t c = lo; c < hi; c += gather_chunk) {
      source.GatherKeys(c, std::min(c + gather_chunk, hi), keys.data() + c,
                        valid.data() + c);
    }
    uint64_t* h = hist.data() + m * fanout;
    for (size_t i = lo; i < hi; ++i) {
      if (valid[i] == 0) continue;
      const uint64_t hash = JoinKeyHash(keys[i]);
      hashes[i] = hash;
      ++h[hash & fanout_mask_];
    }
    check_budget();
  });
  if (aborted.load(std::memory_order_relaxed)) return false;

  // Partition bases, then each (morsel, partition)'s scatter cursor:
  // partition-major bases with morsel-major cursors inside a partition, so
  // the scatter below writes every partition's entries in ascending build-
  // row order no matter how morsels interleave across threads. That order
  // is what makes the table's match enumeration ascending in build row.
  std::vector<uint64_t> part_start(fanout + 1, 0);
  for (size_t p = 0; p < fanout; ++p) {
    uint64_t total = 0;
    for (size_t m = 0; m < num_morsels; ++m) total += hist[m * fanout + p];
    part_start[p + 1] = part_start[p] + total;
  }
  num_entries_ = part_start[fanout];

  std::vector<uint64_t> cursors(num_morsels * fanout);
  for (size_t p = 0; p < fanout; ++p) {
    uint64_t cursor = part_start[p];
    for (size_t m = 0; m < num_morsels; ++m) {
      cursors[m * fanout + p] = cursor;
      cursor += hist[m * fanout + p];
    }
  }

  // Phase 2 (morsel-parallel): scatter entries into partition-contiguous
  // order. Cursor ranges are disjoint per (morsel, partition), so no writes
  // race.
  std::vector<uint64_t> ent_hash(num_entries_);
  std::vector<Value> ent_key(num_entries_);
  std::vector<uint32_t> ent_row(num_entries_);
  run(num_morsels, [&](size_t m) {
    if (aborted.load(std::memory_order_relaxed)) return;
    const size_t lo = m * kBuildMorselRows;
    const size_t hi = std::min(lo + kBuildMorselRows, num_tuples);
    uint64_t* cursor = cursors.data() + m * fanout;
    for (size_t i = lo; i < hi; ++i) {
      if (valid[i] == 0) continue;
      const uint64_t idx = cursor[hashes[i] & fanout_mask_]++;
      ent_hash[idx] = hashes[i];
      ent_key[idx] = keys[i];
      ent_row[idx] = static_cast<uint32_t>(i);
    }
    check_budget();
  });
  if (aborted.load(std::memory_order_relaxed)) return false;

  // Phase 3a (partition-parallel): dedupe each partition through a scratch
  // linear-probe count table sized for the all-unique worst case. `count`
  // doubles as the occupancy marker; `base` becomes the postings cursor in
  // phase 3b. Processing entries in scatter (ascending build row) order
  // keeps everything downstream deterministic.
  struct TempSlot {
    Value key;
    uint32_t count;
    uint32_t base;
  };
  constexpr size_t dist = kJoinPrefetchDistance;
  std::vector<std::vector<TempSlot>> temps(fanout);
  std::vector<size_t> distinct(fanout, 0);
  run(fanout, [&](size_t p) {
    if (aborted.load(std::memory_order_relaxed)) return;
    const uint64_t base = part_start[p];
    const uint64_t n = part_start[p + 1] - base;
    const size_t tcap = std::max(kTagGroupWidth, NextPow2(2 * n));
    const size_t tmask = tcap - 1;
    std::vector<TempSlot>& temp = temps[p];
    temp.assign(tcap, TempSlot{0, 0, 0});
    size_t d = 0;
    for (uint64_t i = 0; i < n; ++i) {
      if (i + dist < n) {
        __builtin_prefetch(
            temp.data() + ((ent_hash[base + i + dist] >> radix_bits_) & tmask),
            1, 1);
      }
      const Value key = ent_key[base + i];
      size_t slot = (ent_hash[base + i] >> radix_bits_) & tmask;
      while (temp[slot].count != 0 && temp[slot].key != key) {
        slot = (slot + 1) & tmask;
      }
      if (temp[slot].count == 0) {
        temp[slot].key = key;
        ++d;
      }
      ++temp[slot].count;
      if ((i + 1) % kInsertBudgetInterval == 0) {
        check_budget();
        if (aborted.load(std::memory_order_relaxed)) return;
      }
    }
    distinct[p] = d;
    check_budget();
  });
  if (aborted.load(std::memory_order_relaxed)) return false;

  // Partition tables, sized by the *distinct* key count (capacity 2x
  // distinct rounded to a power of two: load factor <= 1/2 bounds probe
  // chains and guarantees empties terminate every walk). Duplication
  // shrinks the randomly-probed footprint instead of lengthening chains.
  // Allocated serially on the owning thread — arenas are thread-local.
  for (size_t p = 0; p < fanout; ++p) {
    const size_t n = part_start[p + 1] - part_start[p];
    const size_t cap = std::max(kTagGroupWidth, NextPow2(2 * distinct[p]));
    Partition& part = parts_[p];
    part.cap_mask = cap - 1;
    part.tags = arena.AllocateArray<uint8_t>(cap + kTagGroupWidth - 1);
    part.slots = arena.AllocateArray<Slot>(cap);
    part.rows = arena.AllocateArray<uint32_t>(std::max<size_t>(n, 1));
    std::memset(part.tags, kEmptyTag, cap + kTagGroupWidth - 1);
  }

  // Phase 3b (partition-parallel): insert each distinct key with its
  // postings run descriptor, then place the postings. Scratch-table order
  // fixes the slot insertion order and the scatter order fixes each run's
  // (ascending build row) order, so the result is thread-count-invariant.
  run(fanout, [&](size_t p) {
    if (aborted.load(std::memory_order_relaxed)) return;
    Partition& part = parts_[p];
    const uint64_t base = part_start[p];
    const uint64_t n = part_start[p + 1] - base;
    const size_t tmask = temps[p].size() - 1;
    TempSlot* temp = temps[p].data();

    uint32_t cursor = 0;
    for (size_t t = 0; t <= tmask; ++t) {
      TempSlot& ts = temp[t];
      if (ts.count == 0) continue;
      const uint64_t hash = JoinKeyHash(ts.key);
      size_t slot = (hash >> radix_bits_) & part.cap_mask;
      while (part.tags[slot] != kEmptyTag) slot = (slot + 1) & part.cap_mask;
      part.tags[slot] = TagOfHash(hash);
      if (slot < kTagGroupWidth - 1) {
        // Keep the wrap-mirror coherent: group loads at the end of the
        // array read these copies of the first 15 tags.
        part.tags[part.cap_mask + 1 + slot] = part.tags[slot];
      }
      part.slots[slot] = Slot{ts.key, cursor, ts.count};
      ts.base = cursor;
      cursor += ts.count;
    }
    check_budget();
    if (aborted.load(std::memory_order_relaxed)) return;

    for (uint64_t i = 0; i < n; ++i) {
      if (i + dist < n) {
        __builtin_prefetch(
            temp + ((ent_hash[base + i + dist] >> radix_bits_) & tmask), 1, 1);
      }
      const Value key = ent_key[base + i];
      size_t slot = (ent_hash[base + i] >> radix_bits_) & tmask;
      // The walk path from the home slot was fully occupied by the end of
      // phase 3a, so skipping non-matching slots terminates at the key.
      while (temp[slot].count == 0 || temp[slot].key != key) {
        slot = (slot + 1) & tmask;
      }
      part.rows[temp[slot].base++] = ent_row[base + i];
      if ((i + 1) % kInsertBudgetInterval == 0) {
        check_budget();
        if (aborted.load(std::memory_order_relaxed)) return;
      }
    }
    check_budget();
  });
  return !aborted.load(std::memory_order_relaxed);
}

}  // namespace cardbench
