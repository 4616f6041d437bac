#ifndef CARDBENCH_STORAGE_FILTER_H_
#define CARDBENCH_STORAGE_FILTER_H_

#include <cstdint>
#include <vector>

#include "query/predicate.h"
#include "storage/table.h"

namespace cardbench {

/// One filter predicate with its column reference resolved: the shared
/// compiled form behind every predicate-evaluation loop in the repo (the
/// executor's scans, the counting plans' filtered base cardinalities, and
/// the sampling estimators). Resolving names once, at compile, keeps string
/// lookups out of per-row loops.
struct CompiledPredicate {
  const Column* column = nullptr;
  CompareOp op = CompareOp::kEq;
  /// Index of `column` within its table (-1 when bound without one); plan
  /// nodes carry it so the executor and EXPLAIN resolve by id.
  int column_id = -1;
  Value value = 0;
};

/// Resolves every predicate in `predicates` against `table`, recording each
/// column's id. All predicates must name columns of `table` (callers pass
/// one table's predicates, as QueryGraph does at compile); unknown columns
/// die.
std::vector<CompiledPredicate> CompilePredicates(
    const Table& table, const std::vector<Predicate>& predicates);

/// Scalar fallback: true iff `row` satisfies every compiled predicate
/// (NULLs never pass). For call sites that test isolated rows, such as the
/// wander join's random walks; batches of rows, index postings among them,
/// go through FilterRowsConjunction.
inline bool RowPassesCompiled(const std::vector<CompiledPredicate>& predicates,
                              uint32_t row) {
  for (const auto& p : predicates) {
    if (!p.column->IsValid(row) ||
        !EvalCompare(p.column->Get(row), p.op, p.value)) {
      return false;
    }
  }
  return true;
}

/// Appends to `*sel` the ids of rows in [begin, end) passing every compiled
/// predicate, in ascending order: the first predicate runs as a range kernel
/// producing a selection vector, the rest refine it. Returns the number of
/// rows appended. An empty conjunction admits the whole range.
size_t FilterRangeConjunction(const std::vector<CompiledPredicate>& predicates,
                              size_t begin, size_t end,
                              std::vector<uint32_t>* sel);

/// In-place refinement of the selection vector `*sel` by every compiled
/// predicate, preserving order. Returns the new size.
size_t FilterRowsConjunction(const std::vector<CompiledPredicate>& predicates,
                             std::vector<uint32_t>* sel);

/// Raw-buffer variant for arena-backed callers: refines rows[0, n) in place
/// and returns the surviving count.
size_t FilterRowsConjunction(const std::vector<CompiledPredicate>& predicates,
                             uint32_t* rows, size_t n);

/// Number of rows in [begin, end) passing every compiled predicate, without
/// materializing a selection vector.
uint64_t CountRangeConjunction(const std::vector<CompiledPredicate>& predicates,
                               size_t begin, size_t end);

}  // namespace cardbench

#endif  // CARDBENCH_STORAGE_FILTER_H_
