#ifndef CARDBENCH_EXEC_ROW_BATCH_H_
#define CARDBENCH_EXEC_ROW_BATCH_H_

#include <cstdint>
#include <vector>

namespace cardbench {

/// A fixed-capacity unit of vectorized work: a selection vector of row ids
/// (base-table rows for scans, input-tuple indexes for joins). Operators
/// produce and consume RowBatches of at most ExecOptions::batch_size
/// entries; the batch boundaries are an implementation detail and never
/// affect results.
struct RowBatch {
  std::vector<uint32_t> sel;

  size_t size() const { return sel.size(); }
  bool empty() const { return sel.empty(); }
  void Clear() { sel.clear(); }
  void Reserve(size_t n) { sel.reserve(n); }
};

}  // namespace cardbench

#endif  // CARDBENCH_EXEC_ROW_BATCH_H_
