#include "exec/executor.h"

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "exec/join_hash.h"
#include "exec/row_batch.h"
#include "storage/filter.h"

namespace cardbench {

namespace {

/// Rows / iterations processed between wall-clock budget checks. Checking
/// the clock is cheap but not free; this bounds both the overhead and the
/// cut-off latency.
constexpr size_t kBudgetCheckInterval = 1 << 14;

/// Resolves a (table, column) reference against a TupleSet: which tuple
/// component and which storage column it denotes.
struct ColRef {
  const Column* column = nullptr;
  int component = -1;
};

/// View of the per-execution budget shared by all morsel workers of one
/// plan: the wall clock and the cut-off flag they publish into.
struct Budget {
  const Stopwatch* watch = nullptr;
  const ExecLimits* limits = nullptr;
  std::atomic<bool>* timed_out = nullptr;

  bool TimedOut() const {
    return timed_out->load(std::memory_order_relaxed);
  }

  /// False when the wall clock is exhausted (or another worker already
  /// tripped the budget); publishes the cut-off.
  bool CheckTime() const {
    if (TimedOut()) return false;
    if (watch->ElapsedSeconds() > limits->timeout_seconds) {
      timed_out->store(true, std::memory_order_relaxed);
      return false;
    }
    return true;
  }
};

/// Operator-wide emitted-tuple counter enforcing max_intermediate_tuples
/// across concurrent probe morsels of one materializing join.
class EmitCap {
 public:
  EmitCap(size_t cap, Budget budget) : cap_(cap), budget_(budget) {}

  /// Admits one more output tuple; false (and the shared cut-off is
  /// published) once the operator's output would exceed the cap.
  bool Admit() {
    if (emitted_.fetch_add(1, std::memory_order_relaxed) >= cap_) {
      budget_.timed_out->store(true, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

 private:
  std::atomic<uint64_t> emitted_{0};
  size_t cap_;
  Budget budget_;
};

/// Gather buffers for one morsel's batched join-key access, allocated once
/// at the morsel's batch capacity from the calling thread's arena (the
/// frame unwinds when the morsel ends, so steady-state probing allocates
/// zero heap). `rows[i]` is the base-table row of input tuple i of the
/// batch, `keys[i]`/`valid[i]` the gathered key value and its non-NULL flag
/// (see Column::Gather). Must be constructed on the thread that runs the
/// morsel — it borrows that thread's arena.
class KeyScratch {
 public:
  explicit KeyScratch(size_t capacity) : frame_(ThreadLocalArena()) {
    Arena& arena = frame_.arena();
    rows = arena.AllocateArray<uint32_t>(capacity);
    keys = arena.AllocateArray<Value>(capacity);
    valid = arena.AllocateArray<uint8_t>(capacity);
    hashes = arena.AllocateArray<uint64_t>(capacity);
  }

  uint32_t* rows = nullptr;
  Value* keys = nullptr;
  uint8_t* valid = nullptr;
  /// Per-batch key hashes of the hash-join probe (computed once, then used
  /// for both the prefetch lookahead and the table walk).
  uint64_t* hashes = nullptr;

 private:
  ArenaFrame frame_;
};

int LookupId(const std::unordered_map<std::string, int>& ids,
             const std::string& table) {
  auto it = ids.find(table);
  return it == ids.end() ? -1 : it->second;
}

ColRef Resolve(const TupleSet& ts, const Database& db, int table_id,
               const std::string& table, const std::string& column) {
  ColRef ref;
  ref.component = ts.ComponentOfId(table_id);
  if (ref.component < 0) return ref;
  const Table* t = db.FindTable(table);
  if (t == nullptr) return ColRef{};
  auto idx = t->FindColumn(column);
  if (!idx.has_value()) return ColRef{};
  ref.column = &t->column(*idx);
  return ref;
}

/// Evaluates the extra (non-primary) join edges for a candidate combined
/// tuple. `refs[i]` resolves edge i's endpoints on the left/right input.
bool ExtraEdgesMatch(const std::vector<std::pair<ColRef, ColRef>>& refs,
                     const TupleSet& left, size_t ltuple, const TupleSet& right,
                     size_t rtuple) {
  for (const auto& [lref, rref] : refs) {
    const uint32_t lrow = left.Row(ltuple, static_cast<size_t>(lref.component));
    const uint32_t rrow =
        right.Row(rtuple, static_cast<size_t>(rref.component));
    if (!lref.column->IsValid(lrow) || !rref.column->IsValid(rrow)) {
      return false;
    }
    if (lref.column->Get(lrow) != rref.column->Get(rrow)) return false;
  }
  return true;
}

/// Index-nested-loop variant: the right side is a single base-table row
/// `irow` (the inner is never materialized, so every right ref binds to it).
bool ExtraEdgesMatchInner(const std::vector<std::pair<ColRef, ColRef>>& refs,
                          const TupleSet& left, size_t ltuple, uint32_t irow) {
  for (const auto& [lref, rref] : refs) {
    const uint32_t lrow = left.Row(ltuple, static_cast<size_t>(lref.component));
    if (!lref.column->IsValid(lrow) || !rref.column->IsValid(irow)) {
      return false;
    }
    if (lref.column->Get(lrow) != rref.column->Get(irow)) return false;
  }
  return true;
}

/// Primary + extra join-edge endpoints resolved on the two join inputs.
struct EdgeRefs {
  ColRef lkey;
  ColRef rkey;
  std::vector<std::pair<ColRef, ColRef>> extra;
};

Status ResolveEdges(const Database& db,
                    const std::unordered_map<std::string, int>& ids,
                    const PlanNode& plan, const TupleSet& left,
                    const TupleSet& right, EdgeRefs* out) {
  out->lkey = Resolve(left, db, LookupId(ids, plan.edge.left_table),
                      plan.edge.left_table, plan.edge.left_column);
  out->rkey = Resolve(right, db, LookupId(ids, plan.edge.right_table),
                      plan.edge.right_table, plan.edge.right_column);
  if (out->lkey.column == nullptr || out->rkey.column == nullptr) {
    out->lkey = Resolve(left, db, LookupId(ids, plan.edge.right_table),
                        plan.edge.right_table, plan.edge.right_column);
    out->rkey = Resolve(right, db, LookupId(ids, plan.edge.left_table),
                        plan.edge.left_table, plan.edge.left_column);
  }
  if (out->lkey.column == nullptr || out->rkey.column == nullptr) {
    return Status::InvalidArgument("cannot resolve join edge " +
                                   plan.edge.ToString());
  }
  for (const auto& e : plan.extra_edges) {
    ColRef l = Resolve(left, db, LookupId(ids, e.left_table), e.left_table,
                       e.left_column);
    ColRef r = Resolve(right, db, LookupId(ids, e.right_table), e.right_table,
                       e.right_column);
    if (l.column == nullptr || r.column == nullptr) {
      l = Resolve(left, db, LookupId(ids, e.right_table), e.right_table,
                  e.right_column);
      r = Resolve(right, db, LookupId(ids, e.left_table), e.left_table,
                  e.left_column);
    }
    if (l.column == nullptr || r.column == nullptr) {
      return Status::InvalidArgument("cannot resolve extra join edge " +
                                     e.ToString());
    }
    out->extra.emplace_back(l, r);
  }
  return Status::OK();
}

/// Everything an index-nested-loop probe needs, resolved once before the
/// probe loops: the inner table and index, compiled inner filters, and the
/// extra-edge endpoints (right endpoints bind to the probed inner row).
struct IndexJoinSetup {
  const Table* inner = nullptr;
  ColRef outer_ref;
  const HashIndex* index = nullptr;
  std::vector<CompiledPredicate> inner_filters;
  std::vector<std::pair<ColRef, ColRef>> extra;
};

Status SetupIndexJoin(const Database& db,
                      const std::unordered_map<std::string, int>& ids,
                      const PlanNode& plan, const TupleSet& left,
                      IndexJoinSetup* out) {
  if (!plan.right->IsScan()) {
    return Status::InvalidArgument(
        "index nested loop requires a base-table inner side");
  }
  const std::string& inner_name = plan.right->table;
  out->inner = db.FindTable(inner_name);
  if (out->inner == nullptr) return Status::NotFound("table " + inner_name);

  // Orient the primary edge: which endpoint is on the (left) outer side?
  const bool edge_left_is_outer =
      left.ComponentOfId(LookupId(ids, plan.edge.left_table)) >= 0;
  const std::string& outer_table =
      edge_left_is_outer ? plan.edge.left_table : plan.edge.right_table;
  const std::string& outer_col =
      edge_left_is_outer ? plan.edge.left_column : plan.edge.right_column;
  const std::string& inner_col =
      edge_left_is_outer ? plan.edge.right_column : plan.edge.left_column;

  out->outer_ref = Resolve(left, db, LookupId(ids, outer_table), outer_table,
                           outer_col);
  if (out->outer_ref.column == nullptr) {
    return Status::InvalidArgument("cannot resolve join key " + outer_table +
                                   "." + outer_col);
  }
  out->index =
      &out->inner->GetIndex(out->inner->ColumnIndexOrDie(inner_col));
  out->inner_filters = CompilePredicates(*out->inner, plan.right->filters);

  // Extra edges: left endpoint resolved on the outer input, right on a
  // synthetic single-component view of the inner table.
  TupleSet inner_view;
  inner_view.tables = {inner_name};
  inner_view.table_ids = {LookupId(ids, inner_name)};
  inner_view.data = {0};
  for (const auto& e : plan.extra_edges) {
    ColRef l = Resolve(left, db, LookupId(ids, e.left_table), e.left_table,
                       e.left_column);
    ColRef r = Resolve(inner_view, db, LookupId(ids, e.right_table),
                       e.right_table, e.right_column);
    if (l.column == nullptr || r.column == nullptr) {
      l = Resolve(left, db, LookupId(ids, e.right_table), e.right_table,
                  e.right_column);
      r = Resolve(inner_view, db, LookupId(ids, e.left_table), e.left_table,
                  e.left_column);
    }
    if (l.column == nullptr || r.column == nullptr) {
      return Status::InvalidArgument("cannot resolve extra join edge " +
                                     e.ToString());
    }
    out->extra.emplace_back(l, r);
  }
  return Status::OK();
}

/// Appends the rows of [lo, hi) passing `preds` to `*sel` in batches of
/// `batch_size`, checking the wall-clock budget every kBudgetCheckInterval
/// processed rows. Output is in ascending row order regardless of batching.
void ScanRange(const std::vector<CompiledPredicate>& preds, size_t lo,
               size_t hi, size_t batch_size, Budget budget,
               std::vector<uint32_t>* sel) {
  size_t since_check = 0;
  for (size_t b = lo; b < hi; b += batch_size) {
    const size_t e = std::min(hi, b + batch_size);
    if (since_check >= kBudgetCheckInterval) {
      since_check = 0;
      if (!budget.CheckTime()) return;
    }
    FilterRangeConjunction(preds, b, e, sel);
    since_check += e - b;
  }
}

/// JoinKeySource over a TupleSet's key column: batched row-id gathers
/// through Column::Gather, exactly like the probe side's key access. Called
/// from build morsel workers for disjoint ranges; the row-id scratch comes
/// from the calling worker's arena.
class TupleKeySource final : public JoinKeySource {
 public:
  TupleKeySource(const TupleSet& ts, const ColRef& key) : ts_(ts), key_(key) {}

  void GatherKeys(size_t lo, size_t hi, Value* keys,
                  uint8_t* valid) const override {
    const size_t n = hi - lo;
    ArenaFrame frame(ThreadLocalArena());
    uint32_t* rows = frame.arena().AllocateArray<uint32_t>(n);
    for (size_t t = lo; t < hi; ++t) {
      rows[t - lo] = ts_.Row(t, static_cast<size_t>(key_.component));
    }
    key_.column->Gather(rows, n, keys, valid);
  }

 private:
  const TupleSet& ts_;
  const ColRef& key_;
};

/// Probes the radix join table `ht` for the input tuples [t_lo, t_hi) of
/// `left`. With `dst` non-null, combined tuples are appended (cap-enforced)
/// in (probe tuple, ascending build row) order; otherwise matches are
/// counted into `*count_out`, reading each key's run length when there are
/// no extra edges to check. Keys are gathered and hashed a batch at a time
/// through Column::Gather, and the table lines of probe i +
/// kJoinPrefetchDistance are prefetched while probe i walks the table. The
/// budget is checked on every loop that scales with input or output size.
void RadixProbeMorsel(const TupleSet& left, const TupleSet& right,
                      const ColRef& lkey, const JoinHashTable& ht,
                      const std::vector<std::pair<ColRef, ColRef>>& extra,
                      size_t batch_size, size_t t_lo, size_t t_hi,
                      Budget budget, EmitCap* cap, std::vector<uint32_t>* dst,
                      uint64_t* count_out) {
  const size_t larity = left.arity();
  const size_t rarity = right.arity();
  KeyScratch kb(std::min(batch_size, t_hi - t_lo));
  uint64_t count = 0;
  size_t since_check = 0;
  if (!budget.CheckTime()) return;
  for (size_t b = t_lo; b < t_hi; b += batch_size) {
    const size_t e = std::min(t_hi, b + batch_size);
    if (since_check >= kBudgetCheckInterval) {
      since_check = 0;
      if (!budget.CheckTime()) return;
    }
    for (size_t t = b; t < e; ++t) {
      kb.rows[t - b] = left.Row(t, static_cast<size_t>(lkey.component));
    }
    lkey.column->Gather(kb.rows, e - b, kb.keys, kb.valid);
    const size_t n = e - b;
    for (size_t i = 0; i < n; ++i) {
      kb.hashes[i] = kb.valid[i] ? JoinKeyHash(kb.keys[i]) : 0;
    }
    for (size_t i = 0; i < std::min(kJoinPrefetchDistance, n); ++i) {
      if (kb.valid[i]) ht.Prefetch(kb.hashes[i]);
    }
    for (size_t i = 0; i < n; ++i) {
      const size_t ahead = i + kJoinPrefetchDistance;
      if (ahead < n && kb.valid[ahead]) ht.Prefetch(kb.hashes[ahead]);
      if (!kb.valid[i]) continue;
      if (dst == nullptr && extra.empty()) {
        // Count-only without post-join filters: no per-match work at all.
        const uint64_t matches = ht.CountMatches(kb.keys[i], kb.hashes[i]);
        count += matches;
        since_check += matches;
        continue;
      }
      const size_t lt = b + i;
      bool cut_off = false;
      ht.ForEachMatch(kb.keys[i], kb.hashes[i], [&](uint32_t rt) {
        if (++since_check >= kBudgetCheckInterval) {
          since_check = 0;
          if (!budget.CheckTime()) {
            cut_off = true;
            return false;
          }
        }
        if (!extra.empty() && !ExtraEdgesMatch(extra, left, lt, right, rt)) {
          return true;
        }
        if (dst != nullptr) {
          if (!cap->Admit()) {
            cut_off = true;
            return false;
          }
          for (size_t c = 0; c < larity; ++c) dst->push_back(left.Row(lt, c));
          for (size_t c = 0; c < rarity; ++c) dst->push_back(right.Row(rt, c));
        } else {
          ++count;
        }
        return true;
      });
      if (cut_off) return;
    }
    since_check += n;
  }
  if (count_out != nullptr) *count_out += count;
}

/// Index-nested-loop probe over the outer tuples [t_lo, t_hi): batched
/// outer-key gathers, inner index lookups, compiled inner filters, extra
/// edges. Budget-checked per posting-list entry batch (a huge posting list
/// must respect the wall clock).
void IndexProbeMorsel(const TupleSet& left, const IndexJoinSetup& s,
                      size_t batch_size, size_t t_lo, size_t t_hi,
                      Budget budget, EmitCap* cap, std::vector<uint32_t>* dst,
                      uint64_t* count_out) {
  const size_t arity = left.arity();
  KeyScratch kb(std::min(batch_size, t_hi - t_lo));
  uint64_t count = 0;
  size_t since_check = 0;
  if (!budget.CheckTime()) return;
  for (size_t b = t_lo; b < t_hi; b += batch_size) {
    const size_t e = std::min(t_hi, b + batch_size);
    if (since_check >= kBudgetCheckInterval) {
      since_check = 0;
      if (!budget.CheckTime()) return;
    }
    for (size_t t = b; t < e; ++t) {
      kb.rows[t - b] = left.Row(t, static_cast<size_t>(s.outer_ref.component));
    }
    s.outer_ref.column->Gather(kb.rows, e - b, kb.keys, kb.valid);
    for (size_t i = 0; i < e - b; ++i) {
      if (!kb.valid[i]) continue;
      const size_t t = b + i;
      for (uint32_t irow : s.index->Lookup(kb.keys[i])) {
        if (++since_check >= kBudgetCheckInterval) {
          since_check = 0;
          if (!budget.CheckTime()) return;
        }
        if (!s.inner_filters.empty() &&
            !RowPassesCompiled(s.inner_filters, irow)) {
          continue;
        }
        if (!s.extra.empty() && !ExtraEdgesMatchInner(s.extra, left, t, irow)) {
          continue;
        }
        if (dst != nullptr) {
          if (!cap->Admit()) return;
          for (size_t c = 0; c < arity; ++c) dst->push_back(left.Row(t, c));
          dst->push_back(irow);
        } else {
          ++count;
        }
      }
    }
    since_check += e - b;
  }
  if (count_out != nullptr) *count_out += count;
}

/// Gathers the non-NULL key of every tuple of `ts` (batched, budgeted) and
/// sorts by (key, tuple): the sorted run input of the merge join.
std::vector<std::pair<Value, uint32_t>> SortedKeys(const TupleSet& ts,
                                                   const ColRef& key,
                                                   size_t batch_size,
                                                   Budget budget) {
  std::vector<std::pair<Value, uint32_t>> keys;
  keys.reserve(ts.size());
  KeyScratch kb(std::min(batch_size, ts.size()));
  size_t since_check = 0;
  for (size_t b = 0; b < ts.size(); b += batch_size) {
    const size_t e = std::min(ts.size(), b + batch_size);
    if (since_check >= kBudgetCheckInterval) {
      since_check = 0;
      if (!budget.CheckTime()) return keys;
    }
    for (size_t t = b; t < e; ++t) {
      kb.rows[t - b] = ts.Row(t, static_cast<size_t>(key.component));
    }
    key.column->Gather(kb.rows, e - b, kb.keys, kb.valid);
    for (size_t i = 0; i < e - b; ++i) {
      if (kb.valid[i]) {
        keys.emplace_back(kb.keys[i], static_cast<uint32_t>(b + i));
      }
    }
    since_check += e - b;
  }
  if (!budget.CheckTime()) return keys;
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Merge join over sorted runs: walks equal-key runs of both inputs and
/// emits (dst mode) or counts their cross products. Serial — the sort
/// dominates merge-join cost; gathers are batched upstream.
void MergeRuns(const TupleSet& left, const TupleSet& right,
               const std::vector<std::pair<Value, uint32_t>>& lkeys,
               const std::vector<std::pair<Value, uint32_t>>& rkeys,
               const std::vector<std::pair<ColRef, ColRef>>& extra,
               Budget budget, EmitCap* cap, std::vector<uint32_t>* dst,
               uint64_t* count_out) {
  const size_t larity = left.arity();
  const size_t rarity = right.arity();
  uint64_t count = 0;
  size_t li = 0, ri = 0;
  size_t since_check = 0;
  while (li < lkeys.size() && ri < rkeys.size()) {
    if (++since_check >= kBudgetCheckInterval) {
      since_check = 0;
      if (!budget.CheckTime()) return;
    }
    if (lkeys[li].first < rkeys[ri].first) {
      ++li;
    } else if (lkeys[li].first > rkeys[ri].first) {
      ++ri;
    } else {
      const Value v = lkeys[li].first;
      size_t lend = li, rend = ri;
      while (lend < lkeys.size() && lkeys[lend].first == v) ++lend;
      while (rend < rkeys.size() && rkeys[rend].first == v) ++rend;
      if (dst == nullptr && extra.empty()) {
        count += static_cast<uint64_t>(lend - li) *
                 static_cast<uint64_t>(rend - ri);
        since_check += rend - ri;
      } else {
        for (size_t i = li; i < lend; ++i) {
          for (size_t j = ri; j < rend; ++j) {
            if (++since_check >= kBudgetCheckInterval) {
              since_check = 0;
              if (!budget.CheckTime()) return;
            }
            if (!extra.empty() &&
                !ExtraEdgesMatch(extra, left, lkeys[i].second, right,
                                 rkeys[j].second)) {
              continue;
            }
            if (dst != nullptr) {
              if (!cap->Admit()) return;
              for (size_t c = 0; c < larity; ++c) {
                dst->push_back(left.Row(lkeys[i].second, c));
              }
              for (size_t c = 0; c < rarity; ++c) {
                dst->push_back(right.Row(rkeys[j].second, c));
              }
            } else {
              ++count;
            }
          }
        }
      }
      li = lend;
      ri = rend;
    }
  }
  if (count_out != nullptr) *count_out += count;
}

}  // namespace

Executor::Executor(const Database& db, ExecLimits limits, ExecOptions options)
    : db_(db), limits_(limits), options_(options) {
  if (options_.batch_size == 0) options_.batch_size = 1;
  const auto& names = db_.table_names();
  table_ids_.reserve(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    table_ids_[names[i]] = static_cast<int>(i);
  }
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
}

int Executor::TableId(const std::string& table) const {
  auto it = table_ids_.find(table);
  return it == table_ids_.end() ? -1 : it->second;
}

void Executor::ForEachMorsel(size_t count,
                             const std::function<void(size_t)>& fn) const {
  if (pool_ == nullptr || count <= 1) {
    for (size_t m = 0; m < count; ++m) fn(m);
    return;
  }
  ParallelFor(*pool_, count, fn);
}

void Executor::RunProbeMorsels(
    size_t total, Ctx& ctx, TupleSet* out, uint64_t* count_out,
    const std::function<void(size_t, size_t, std::vector<uint32_t>*,
                             uint64_t*)>& morsel) const {
  const size_t morsel_tuples = std::max(options_.batch_size,
                                        kProbeMorselTuples);
  const size_t num_morsels =
      total == 0 ? 0 : (total + morsel_tuples - 1) / morsel_tuples;
  if (pool_ == nullptr || num_morsels <= 1) {
    if (num_morsels >= 1) {
      morsel(0, total, out != nullptr ? &out->data : nullptr, count_out);
    }
    return;
  }
  if (out != nullptr) {
    // Per-morsel output batches concatenated in morsel order: identical
    // tuple order to the serial run.
    std::vector<RowBatch> parts(num_morsels);
    ForEachMorsel(num_morsels, [&](size_t m) {
      morsel(m * morsel_tuples, std::min(total, (m + 1) * morsel_tuples),
             &parts[m].sel, nullptr);
    });
    if (ctx.TimedOut()) return;
    size_t total_size = out->data.size();
    for (const auto& part : parts) total_size += part.size();
    out->data.reserve(total_size);
    for (const auto& part : parts) {
      out->data.insert(out->data.end(), part.sel.begin(), part.sel.end());
    }
  } else {
    std::vector<uint64_t> counts(num_morsels, 0);
    ForEachMorsel(num_morsels, [&](size_t m) {
      morsel(m * morsel_tuples, std::min(total, (m + 1) * morsel_tuples),
             nullptr, &counts[m]);
    });
    for (uint64_t c : counts) *count_out += c;
  }
}

Status Executor::HashJoinDriver(const PlanNode& plan, const TupleSet& left,
                                const TupleSet& right, Ctx& ctx, TupleSet* out,
                                uint64_t* count) const {
  Budget budget{&ctx.watch, ctx.limits, &ctx.timed_out};
  EmitCap cap(ctx.limits->max_intermediate_tuples, budget);
  EmitCap* cap_ptr = out != nullptr ? &cap : nullptr;
  EdgeRefs refs;
  CARDBENCH_RETURN_IF_ERROR(
      ResolveEdges(db_, table_ids_, plan, left, right, &refs));

  // Build on the right (inner) side, probe with the left.
  TupleKeySource source(right, refs.rkey);
  JoinHashConfig config;
  config.batch_size = options_.batch_size;
  JoinHashTable ht;
  const bool built = ht.Build(
      source, right.size(), config,
      [this](size_t n, const std::function<void(size_t)>& fn) {
        ForEachMorsel(n, fn);
      },
      [&budget] { return budget.CheckTime(); });
  if (!built || ctx.TimedOut()) return Status::OK();
  RunProbeMorsels(
      left.size(), ctx, out, count,
      [&](size_t lo, size_t hi, std::vector<uint32_t>* dst, uint64_t* cnt) {
        RadixProbeMorsel(left, right, refs.lkey, ht, refs.extra,
                         options_.batch_size, lo, hi, budget, cap_ptr, dst,
                         cnt);
      });
  return Status::OK();
}

Status Executor::ExecuteScan(const PlanNode& plan, Ctx& ctx,
                             TupleSet* out) const {
  const Table* table = db_.FindTable(plan.table);
  if (table == nullptr) {
    return Status::NotFound("scan of unknown table " + plan.table);
  }
  out->tables = {plan.table};
  out->table_ids = {TableId(plan.table)};
  out->data.clear();
  Budget budget{&ctx.watch, ctx.limits, &ctx.timed_out};
  if (!budget.CheckTime()) return Status::OK();

  if (plan.scan_method == ScanMethod::kIndexScan) {
    // The first filter must be an equality served by the index.
    if (plan.filters.empty() || plan.filters[0].op != CompareOp::kEq) {
      return Status::InvalidArgument(
          "index scan requires a leading equality filter on " + plan.table);
    }
    const Predicate& key = plan.filters[0];
    const HashIndex& index =
        table->GetIndex(table->ColumnIndexOrDie(key.column));
    const std::vector<uint32_t>& postings = index.Lookup(key.value);
    const auto rest = CompilePredicates(
        *table, std::vector<Predicate>(plan.filters.begin() + 1,
                                       plan.filters.end()));
    // The posting list scales with input size: refine it in budget-checked
    // batches so a huge list cannot blow past the wall clock.
    const size_t batch = options_.batch_size;
    size_t since_check = 0;
    out->data.reserve(rest.empty() ? postings.size() : 0);
    for (size_t lo = 0; lo < postings.size(); lo += batch) {
      const size_t hi = std::min(postings.size(), lo + batch);
      if (since_check >= kBudgetCheckInterval) {
        since_check = 0;
        if (!budget.CheckTime()) return Status::OK();
      }
      const size_t base = out->data.size();
      out->data.insert(out->data.end(), postings.begin() + lo,
                       postings.begin() + hi);
      if (!rest.empty()) {
        size_t kept = hi - lo;
        for (const auto& p : rest) {
          if (kept == 0) break;
          kept = p.column->FilterRows(out->data.data() + base, kept, p.op,
                                      p.value);
        }
        out->data.resize(base + kept);
      }
      since_check += hi - lo;
    }
    return Status::OK();
  }

  const size_t n = table->num_rows();
  const auto compiled = CompilePredicates(*table, plan.filters);
  const size_t morsel_rows = std::max(options_.batch_size, kScanMorselRows);
  const size_t num_morsels = n == 0 ? 0 : (n + morsel_rows - 1) / morsel_rows;
  if (pool_ == nullptr || num_morsels <= 1) {
    for (size_t m = 0; m < num_morsels; ++m) {
      if (!budget.CheckTime()) return Status::OK();
      ScanRange(compiled, m * morsel_rows, std::min(n, (m + 1) * morsel_rows),
                options_.batch_size, budget, &out->data);
    }
    return Status::OK();
  }
  // Morsel output batches concatenated in morsel order: row ids come out
  // ascending, exactly as in the serial scan.
  std::vector<RowBatch> parts(num_morsels);
  ForEachMorsel(num_morsels, [&](size_t m) {
    if (!budget.CheckTime()) return;
    ScanRange(compiled, m * morsel_rows, std::min(n, (m + 1) * morsel_rows),
              options_.batch_size, budget, &parts[m].sel);
  });
  if (ctx.TimedOut()) return Status::OK();
  size_t total = 0;
  for (const auto& part : parts) total += part.size();
  out->data.reserve(total);
  for (const auto& part : parts) {
    out->data.insert(out->data.end(), part.sel.begin(), part.sel.end());
  }
  return Status::OK();
}

Status Executor::ExecuteJoin(const PlanNode& plan, Ctx& ctx,
                             TupleSet* out) const {
  TupleSet left;
  CARDBENCH_RETURN_IF_ERROR(ExecuteNode(*plan.left, ctx, &left));
  if (ctx.TimedOut()) return Status::OK();
  Budget budget{&ctx.watch, ctx.limits, &ctx.timed_out};
  EmitCap cap(ctx.limits->max_intermediate_tuples, budget);

  out->tables = left.tables;
  out->table_ids = left.table_ids;
  out->data.clear();

  // Index-nested-loop: the inner side is a base table accessed through its
  // join-column index; it is never materialized.
  if (plan.join_method == JoinMethod::kIndexNestLoop) {
    IndexJoinSetup setup;
    CARDBENCH_RETURN_IF_ERROR(SetupIndexJoin(db_, table_ids_, plan, left,
                                             &setup));
    out->tables.push_back(plan.right->table);
    out->table_ids.push_back(TableId(plan.right->table));
    RunProbeMorsels(
        left.size(), ctx, out, nullptr,
        [&](size_t lo, size_t hi, std::vector<uint32_t>* dst, uint64_t* cnt) {
          IndexProbeMorsel(left, setup, options_.batch_size, lo, hi, budget,
                           &cap, dst, cnt);
        });
    return Status::OK();
  }

  TupleSet right;
  CARDBENCH_RETURN_IF_ERROR(ExecuteNode(*plan.right, ctx, &right));
  if (ctx.TimedOut()) return Status::OK();
  for (size_t i = 0; i < right.tables.size(); ++i) {
    out->tables.push_back(right.tables[i]);
    out->table_ids.push_back(right.table_ids[i]);
  }

  if (plan.join_method == JoinMethod::kHashJoin) {
    return HashJoinDriver(plan, left, right, ctx, out, nullptr);
  }

  EdgeRefs refs;
  CARDBENCH_RETURN_IF_ERROR(
      ResolveEdges(db_, table_ids_, plan, left, right, &refs));

  // Merge join: sort both inputs by key (NULLs dropped), then walk equal
  // runs, emitting their cross products.
  const auto lkeys = SortedKeys(left, refs.lkey, options_.batch_size, budget);
  const auto rkeys = SortedKeys(right, refs.rkey, options_.batch_size, budget);
  if (ctx.TimedOut()) return Status::OK();
  MergeRuns(left, right, lkeys, rkeys, refs.extra, budget, &cap, &out->data,
            nullptr);
  return Status::OK();
}

Status Executor::ExecuteNode(const PlanNode& plan, Ctx& ctx,
                             TupleSet* out) const {
  const Status status =
      plan.IsScan() ? ExecuteScan(plan, ctx, out) : ExecuteJoin(plan, ctx, out);
  if (status.ok() && !ctx.TimedOut() && ctx.actual_rows != nullptr) {
    (*ctx.actual_rows)[plan.table_mask] = static_cast<double>(out->size());
  }
  return status;
}

Status Executor::CountNode(const PlanNode& plan, Ctx& ctx,
                           uint64_t* count) const {
  // The root is evaluated count-only: materialize the children, stream the
  // final join without materializing its output. For scans, count matching
  // rows directly.
  *count = 0;
  if (plan.IsScan()) {
    TupleSet out;
    CARDBENCH_RETURN_IF_ERROR(ExecuteScan(plan, ctx, &out));
    *count = out.size();
    return Status::OK();
  }
  TupleSet left;
  CARDBENCH_RETURN_IF_ERROR(ExecuteNode(*plan.left, ctx, &left));
  if (ctx.TimedOut()) return Status::OK();
  Budget budget{&ctx.watch, ctx.limits, &ctx.timed_out};

  if (plan.join_method == JoinMethod::kIndexNestLoop && plan.right->IsScan()) {
    IndexJoinSetup setup;
    CARDBENCH_RETURN_IF_ERROR(SetupIndexJoin(db_, table_ids_, plan, left,
                                             &setup));
    RunProbeMorsels(
        left.size(), ctx, nullptr, count,
        [&](size_t lo, size_t hi, std::vector<uint32_t>* dst, uint64_t* cnt) {
          IndexProbeMorsel(left, setup, options_.batch_size, lo, hi, budget,
                           nullptr, dst, cnt);
        });
    return Status::OK();
  }

  TupleSet right;
  CARDBENCH_RETURN_IF_ERROR(ExecuteNode(*plan.right, ctx, &right));
  if (ctx.TimedOut()) return Status::OK();

  // Merge-count: the counting semantics are identical across join
  // algorithms, but the root method matters for timing — merge join pays
  // the sort, hash join the build.
  if (plan.join_method == JoinMethod::kMergeJoin) {
    EdgeRefs refs;
    CARDBENCH_RETURN_IF_ERROR(
        ResolveEdges(db_, table_ids_, plan, left, right, &refs));
    const auto lkeys =
        SortedKeys(left, refs.lkey, options_.batch_size, budget);
    const auto rkeys =
        SortedKeys(right, refs.rkey, options_.batch_size, budget);
    if (ctx.TimedOut()) return Status::OK();
    MergeRuns(left, right, lkeys, rkeys, refs.extra, budget, nullptr, nullptr,
              count);
    return Status::OK();
  }

  // Hash-count: the same driver ExecuteJoin materializes through, in its
  // count-only mode (no emission, no cap, run-length fast path).
  return HashJoinDriver(plan, left, right, ctx, nullptr, count);
}

Result<ExecResult> Executor::ExecuteCount(const PlanNode& plan,
                                          bool analyze) const {
  Ctx ctx;
  ctx.limits = &limits_;
  ExecResult result;
  if (analyze) ctx.actual_rows = &result.actual_rows;
  uint64_t count = 0;
  CARDBENCH_RETURN_IF_ERROR(CountNode(plan, ctx, &count));
  result.count = count;
  result.timed_out = ctx.TimedOut();
  result.elapsed_seconds = ctx.watch.ElapsedSeconds();
  if (analyze && !result.timed_out) {
    result.actual_rows[plan.table_mask] = static_cast<double>(count);
  }
  return result;
}

Result<TupleSet> Executor::Materialize(const PlanNode& plan) const {
  Ctx ctx;
  ctx.limits = &limits_;
  TupleSet out;
  CARDBENCH_RETURN_IF_ERROR(ExecuteNode(plan, ctx, &out));
  if (ctx.TimedOut()) {
    return Status::OutOfRange("materialization exceeded execution limits");
  }
  return out;
}

}  // namespace cardbench
