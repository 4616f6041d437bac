#include "storage/index.h"

namespace cardbench {

HashIndex::HashIndex(const Column& column) {
  // Pass 1: count each distinct value's rows.
  size_t entries = 0;
  for (size_t row = 0; row < column.size(); ++row) {
    if (!column.IsValid(row)) continue;
    counts_.Add(column.Get(row));
    ++entries;
  }

  // Lay the runs out in slot order, then fill them walking the column
  // backwards: each slot's offset starts one past its run's end and steps
  // down, so every run ends up in ascending row order with its offset at
  // the run's start.
  std::vector<Slot>& slots = counts_.slots();
  uint32_t end = 0;
  for (Slot& s : slots) {
    end += s.count;
    s.offset = end;
  }
  rows_.resize(entries);
  for (size_t row = column.size(); row-- > 0;) {
    if (!column.IsValid(row)) continue;
    rows_[--slots[counts_.SlotOf(column.Get(row))].offset] =
        static_cast<uint32_t>(row);
  }
}

}  // namespace cardbench
