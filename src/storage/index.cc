#include "storage/index.h"

#include "common/logging.h"

namespace cardbench {

HashIndex::HashIndex(std::span<const Value> keys,
                     std::span<const uint8_t> valid) {
  CARDBENCH_CHECK(keys.size() == valid.size(),
                  "HashIndex over %zu keys with %zu validity flags",
                  keys.size(), valid.size());
  // Pass 1: count each distinct key's rows.
  size_t entries = 0;
  for (size_t row = 0; row < keys.size(); ++row) {
    if (valid[row] == 0) continue;
    counts_.Add(keys[row]);
    ++entries;
  }

  // Lay the runs out in slot order, then fill them walking the rows
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
  for (size_t row = keys.size(); row-- > 0;) {
    if (valid[row] == 0) continue;
    rows_[--slots[counts_.SlotOf(keys[row])].offset] =
        static_cast<uint32_t>(row);
  }
}

}  // namespace cardbench
