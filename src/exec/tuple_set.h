#ifndef CARDBENCH_EXEC_TUPLE_SET_H_
#define CARDBENCH_EXEC_TUPLE_SET_H_

#include <cstdint>
#include <vector>

namespace cardbench {

/// Intermediate result of plan execution: a bag of composite tuples, each a
/// fixed-arity vector of base-table row ids, stored flat in row-major order.
/// Keeping only row ids (late materialization) means joins can access any
/// column of any constituent table without copying payloads.
struct TupleSet {
  /// Catalog ids of the constituent base tables, defining component order
  /// within each tuple.
  std::vector<int> table_ids;
  /// Row ids, row-major; size is a multiple of arity().
  std::vector<uint32_t> data;

  size_t arity() const { return table_ids.size(); }
  size_t size() const { return table_ids.empty() ? 0 : data.size() / arity(); }

  /// Row id of `component` within tuple `t`.
  uint32_t Row(size_t t, size_t component) const {
    return data[t * arity() + component];
  }
};

}  // namespace cardbench

#endif  // CARDBENCH_EXEC_TUPLE_SET_H_
