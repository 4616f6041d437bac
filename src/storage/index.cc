#include "storage/index.h"

namespace cardbench {

namespace {

/// Slots of an index with no (or few) distinct values; a power of two.
constexpr size_t kMinSlots = 16;

}  // namespace

HashIndex::HashIndex(const Column& column)
    : slots_(kMinSlots), mask_(kMinSlots - 1) {
  // Pass 1: count each distinct value's rows, doubling the table whenever
  // a new value would push it past half load.
  size_t entries = 0;
  for (size_t row = 0; row < column.size(); ++row) {
    if (!column.IsValid(row)) continue;
    const Value v = column.Get(row);
    size_t slot = SlotOf(v);
    if (slots_[slot].count == 0) {
      if (2 * (num_distinct_ + 1) > slots_.size()) {
        Grow();
        slot = SlotOf(v);
      }
      slots_[slot].key = v;
      ++num_distinct_;
    }
    ++slots_[slot].count;
    ++entries;
  }

  // Lay the runs out in slot order, then fill them walking the column
  // backwards: each slot's offset starts one past its run's end and steps
  // down, so every run ends up in ascending row order with its offset at
  // the run's start.
  uint32_t end = 0;
  for (Slot& s : slots_) {
    end += s.count;
    s.offset = end;
  }
  rows_.resize(entries);
  for (size_t row = column.size(); row-- > 0;) {
    if (!column.IsValid(row)) continue;
    rows_[--slots_[SlotOf(column.Get(row))].offset] =
        static_cast<uint32_t>(row);
  }
}

void HashIndex::Grow() {
  std::vector<Slot> old(2 * slots_.size());
  old.swap(slots_);
  mask_ = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.count != 0) slots_[SlotOf(s.key)] = s;
  }
}

}  // namespace cardbench
