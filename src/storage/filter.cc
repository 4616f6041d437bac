#include "storage/filter.h"

#include <algorithm>

#include "common/arena.h"

namespace cardbench {

std::vector<CompiledPredicate> CompilePredicates(
    const Table& table, const std::vector<Predicate>& predicates) {
  std::vector<CompiledPredicate> compiled;
  compiled.reserve(predicates.size());
  for (const auto& pred : predicates) {
    compiled.push_back(
        {&table.ColumnByName(pred.column), pred.op, pred.value});
  }
  return compiled;
}

std::vector<CompiledPredicate> CompilePredicatesFor(
    const Table& table, const std::string& table_name,
    const std::vector<Predicate>& predicates) {
  std::vector<CompiledPredicate> compiled;
  for (const auto& pred : predicates) {
    if (pred.table != table_name) continue;
    compiled.push_back(
        {&table.ColumnByName(pred.column), pred.op, pred.value});
  }
  return compiled;
}

size_t FilterRangeConjunction(const std::vector<CompiledPredicate>& predicates,
                              size_t begin, size_t end,
                              std::vector<uint32_t>* sel) {
  if (begin >= end) return 0;
  const size_t base = sel->size();
  if (predicates.empty()) {
    sel->reserve(base + (end - begin));
    for (size_t row = begin; row < end; ++row) {
      sel->push_back(static_cast<uint32_t>(row));
    }
    return end - begin;
  }
  predicates[0].column->FilterRange(begin, end, predicates[0].op,
                                    predicates[0].value, sel);
  for (size_t p = 1; p < predicates.size() && sel->size() > base; ++p) {
    const size_t kept = predicates[p].column->FilterRows(
        sel->data() + base, sel->size() - base, predicates[p].op,
        predicates[p].value);
    sel->resize(base + kept);
  }
  return sel->size() - base;
}

size_t FilterRowsConjunction(const std::vector<CompiledPredicate>& predicates,
                             std::vector<uint32_t>* sel) {
  sel->resize(FilterRowsConjunction(predicates, sel->data(), sel->size()));
  return sel->size();
}

size_t FilterRowsConjunction(const std::vector<CompiledPredicate>& predicates,
                             uint32_t* rows, size_t n) {
  for (const auto& pred : predicates) {
    if (n == 0) break;
    n = pred.column->FilterRows(rows, n, pred.op, pred.value);
  }
  return n;
}

uint64_t CountRangeConjunction(const std::vector<CompiledPredicate>& predicates,
                               size_t begin, size_t end) {
  if (begin >= end) return 0;
  if (predicates.empty()) return end - begin;
  // Batched: the range kernel fills a bounded arena-backed scratch buffer,
  // the remaining predicates refine it, and only the surviving count is
  // kept. The scratch frame unwinds before returning, so steady-state
  // counting allocates zero heap.
  constexpr size_t kCountBatch = 4096;
  uint64_t count = 0;
  ArenaFrame frame(ThreadLocalArena());
  uint32_t* scratch = frame.arena().AllocateArray<uint32_t>(kCountBatch);
  for (size_t lo = begin; lo < end; lo += kCountBatch) {
    const size_t hi = std::min(end, lo + kCountBatch);
    size_t kept = predicates[0].column->FilterRangeRaw(
        lo, hi, predicates[0].op, predicates[0].value, scratch);
    for (size_t p = 1; p < predicates.size() && kept > 0; ++p) {
      kept = predicates[p].column->FilterRows(scratch, kept, predicates[p].op,
                                              predicates[p].value);
    }
    count += kept;
  }
  return count;
}

}  // namespace cardbench
