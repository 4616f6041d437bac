#include "exec/executor.h"

#include <algorithm>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/str_util.h"
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
/// across concurrent probe morsels of one materializing join. Tuples are
/// admitted before they are written, so the admitted total is the
/// operator's output up to the first refusal.
class EmitCap {
 public:
  EmitCap(size_t cap, Budget budget) : cap_(cap), budget_(budget) {}

  /// Admits `n` more output tuples; false (and the shared cut-off is
  /// published) when the operator's output would exceed the cap.
  bool Admit(uint64_t n) {
    if (emitted_.fetch_add(n, std::memory_order_relaxed) + n > cap_) {
      budget_.timed_out->store(true, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  /// Tuples the cap still admits: no morsel can write more from now on.
  uint64_t Remaining() const {
    const uint64_t emitted = emitted_.load(std::memory_order_relaxed);
    return emitted >= cap_ ? 0 : cap_ - emitted;
  }

 private:
  std::atomic<uint64_t> emitted_{0};
  uint64_t cap_;
  Budget budget_;
};

/// Staged (left tuple, right tuple) pairs per cap admission of a join whose
/// output bound is not exact.
constexpr size_t kEmitStage = 1024;

/// Output of one materializing join morsel, reserved once for `capacity`
/// combined tuples before anything is written; the caller guarantees the
/// morsel emits no more, so no append regrows `dst`. With `cap` null the
/// tuples were admitted up front and are written directly. Otherwise
/// matches are staged and each stage is admitted against `cap` before it
/// is written, so the cap fails exactly when the operator's output exceeds
/// it. Borrows the calling thread's arena for the stage: construct it on
/// the thread that runs the morsel.
class JoinEmitter {
 public:
  /// `right` is null for the index-nested-loop join, whose right side of
  /// each match is one base-table row.
  JoinEmitter(const TupleSet& left, const TupleSet* right, uint64_t capacity,
              EmitCap* cap, std::vector<uint32_t>* dst)
      : left_(left),
        right_(right),
        larity_(left.arity()),
        rarity_(right == nullptr ? 1 : right->arity()),
        cap_(cap),
        dst_(dst),
        frame_(ThreadLocalArena()) {
    if (cap_ != nullptr) {
      stage_ = frame_.arena().AllocateArray<Pair>(kEmitStage);
    }
    dst_->reserve(dst_->size() + capacity * (larity_ + rarity_));
  }

  /// Emits left tuple `lt` joined with right tuple (index-NL: inner row)
  /// `rt`. False once the operator's output exceeds the cap.
  bool Emit(size_t lt, uint32_t rt) {
    if (cap_ == nullptr) {
      Write(lt, rt);
      return true;
    }
    stage_[staged_++] = Pair{lt, rt};
    return staged_ < kEmitStage || Flush();
  }

  /// Admits and writes the staged tuples; false when they exceed the cap.
  bool Flush() {
    const size_t n = staged_;
    staged_ = 0;
    if (n == 0) return true;
    if (!cap_->Admit(n)) return false;
    for (size_t i = 0; i < n; ++i) Write(stage_[i].left, stage_[i].right);
    return true;
  }

 private:
  struct Pair {
    size_t left;
    uint32_t right;
  };

  void Write(size_t lt, uint32_t rt) {
    const uint32_t* l = left_.data.data() + lt * larity_;
    for (size_t c = 0; c < larity_; ++c) dst_->push_back(l[c]);
    if (right_ == nullptr) {
      dst_->push_back(rt);
      return;
    }
    const uint32_t* r = right_->data.data() + size_t{rt} * rarity_;
    for (size_t c = 0; c < rarity_; ++c) dst_->push_back(r[c]);
  }

  const TupleSet& left_;
  const TupleSet* right_;
  size_t larity_;
  size_t rarity_;
  EmitCap* cap_;
  std::vector<uint32_t>* dst_;
  ArenaFrame frame_;
  Pair* stage_ = nullptr;
  size_t staged_ = 0;
};

/// Runs one join probe loop, `probe(emit, count, primary_only)`, in the
/// mode its caller asks for. With `dst` null it counts the matches passing
/// the join's filters into `*count`. Otherwise it sizes the output first:
/// a counting pass with `primary_only` set ignores extra edges and inner
/// filters, so its count bounds the output, exactly when `exact` (the join
/// has neither). An exact bound is admitted whole before anything is
/// written, so a join over the cap publishes the cut-off without writing a
/// tuple; an inexact one is admitted stage by stage. Either way the output
/// is reserved once, for min(bound, what the cap still admits) tuples.
template <typename Probe>
void CountOrEmit(const TupleSet& left, const TupleSet* right, bool exact,
                 Budget budget, EmitCap* cap, std::vector<uint32_t>* dst,
                 uint64_t* count, const Probe& probe) {
  if (dst == nullptr) {
    probe(nullptr, count, false);
    return;
  }
  uint64_t bound = 0;
  probe(nullptr, &bound, true);
  if (budget.TimedOut()) return;
  if (exact && !cap->Admit(bound)) return;
  const uint64_t capacity = exact ? bound : std::min(bound, cap->Remaining());
  JoinEmitter emit(left, right, capacity, exact ? nullptr : cap, dst);
  probe(&emit, nullptr, false);
  emit.Flush();
}

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

/// Index of the table `table_id` among a join input's component tables, or
/// -1.
int ComponentIndex(const std::vector<int>& table_ids, int table_id) {
  auto it = std::find(table_ids.begin(), table_ids.end(), table_id);
  return it == table_ids.end() ? -1
                               : static_cast<int>(it - table_ids.begin());
}

/// Binds the catalog column `ref` on a join input whose component tables are
/// `table_ids`. Unbound (null column) when its table is not a component or
/// either id names nothing.
ColRef Resolve(const Database& db, const std::vector<int>& table_ids,
               CatalogColumn ref) {
  const int component = ComponentIndex(table_ids, ref.table_id);
  const Column* column = db.ColumnById(ref.table_id, ref.column_id);
  if (component < 0 || column == nullptr) return ColRef{};
  return ColRef{column, component};
}

/// Checks that every filter of the scan `node` is bound to a column of the
/// node's table, so no scan loop dereferences a stray id.
Status CheckFilters(const Database& db, const PlanNode& node) {
  for (const CompiledPredicate& f : node.filters) {
    const Column* column = db.ColumnById(node.table_id, f.column_id);
    if (column == nullptr || f.column != column) {
      return Status::InvalidArgument(
          StrFormat("filter column id %d does not name a column of table %d",
                    f.column_id, node.table_id));
    }
  }
  return Status::OK();
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

/// Primary + extra join-edge endpoints bound on the two join inputs.
struct EdgeRefs {
  ColRef lkey;
  ColRef rkey;
  std::vector<std::pair<ColRef, ColRef>> extra;
};

/// Binds every join edge of `plan` across a join whose outer input has the
/// component tables `outer` and whose inner side has `inner`: the endpoint
/// on an outer table binds to the outer input, the other to the inner side.
Status ResolveEdges(const Database& db, const PlanNode& plan,
                    const std::vector<int>& outer,
                    const std::vector<int>& inner, EdgeRefs* out) {
  auto bind = [&](const PlanEdge& edge, ColRef* o, ColRef* i) {
    const bool flip = ComponentIndex(outer, edge.left.table_id) < 0;
    *o = Resolve(db, outer, flip ? edge.right : edge.left);
    *i = Resolve(db, inner, flip ? edge.left : edge.right);
    if (o->column != nullptr && i->column != nullptr) return Status::OK();
    return Status::InvalidArgument(StrFormat(
        "cannot resolve join edge (table %d, column %d) = (table %d, column "
        "%d)",
        edge.left.table_id, edge.left.column_id, edge.right.table_id,
        edge.right.column_id));
  };
  CARDBENCH_RETURN_IF_ERROR(bind(plan.edge, &out->lkey, &out->rkey));
  out->extra.resize(plan.extra_edges.size());
  for (size_t e = 0; e < plan.extra_edges.size(); ++e) {
    CARDBENCH_RETURN_IF_ERROR(bind(plan.extra_edges[e], &out->extra[e].first,
                                   &out->extra[e].second));
  }
  return Status::OK();
}

/// Everything an index-nested-loop probe needs, resolved once before the
/// probe loops: the inner table's join-column index and filters, and the
/// edge endpoints (inner endpoints bind to the probed inner row).
struct IndexJoinSetup {
  const HashIndex* index = nullptr;
  std::vector<CompiledPredicate> inner_filters;
  EdgeRefs refs;
};

/// The one check of an index-nested-loop node, whether its output is
/// counted or materialized: the inner side must be a base-table scan.
Status SetupIndexJoin(const Database& db, const PlanNode& plan,
                      const TupleSet& left, IndexJoinSetup* out) {
  const PlanNode& inner = *plan.right;
  if (!inner.IsScan()) {
    return Status::InvalidArgument(
        "index nested loop requires a base-table inner side");
  }
  const Table* table = db.TableById(inner.table_id);
  if (table == nullptr) {
    return Status::NotFound(StrFormat("table id %d", inner.table_id));
  }
  CARDBENCH_RETURN_IF_ERROR(CheckFilters(db, inner));
  CARDBENCH_RETURN_IF_ERROR(
      ResolveEdges(db, plan, left.table_ids, {inner.table_id}, &out->refs));
  const CatalogColumn key = plan.edge.left.table_id == inner.table_id
                                ? plan.edge.left
                                : plan.edge.right;
  out->index = &table->GetIndex(static_cast<size_t>(key.column_id));
  out->inner_filters = inner.filters;
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
/// `left`. With `emit` non-null, combined tuples are emitted in (probe
/// tuple, ascending build row) order; otherwise matches are counted into
/// `*count_out`, reading each key's run length when there are no extra
/// edges to check (or `primary_only` says to ignore them). Keys are
/// gathered and hashed a batch at a time through Column::Gather, and the
/// table lines of probe i + kJoinPrefetchDistance are prefetched while
/// probe i walks the table. The budget is checked on every loop that scales
/// with input or output size.
void RadixProbeMorsel(const TupleSet& left, const TupleSet& right,
                      const ColRef& lkey, const JoinHashTable& ht,
                      const std::vector<std::pair<ColRef, ColRef>>& extra,
                      size_t batch_size, size_t t_lo, size_t t_hi,
                      Budget budget, bool primary_only, JoinEmitter* emit,
                      uint64_t* count_out) {
  const bool count_runs = emit == nullptr && (primary_only || extra.empty());
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
      if (count_runs) {
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
        if (emit == nullptr) {
          ++count;
        } else if (!emit->Emit(lt, rt)) {
          cut_off = true;
          return false;
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
/// edges. Emits (outer tuple, ascending inner row) tuples into `emit`, or
/// counts into `*count_out` — adding whole posting lengths when there is
/// nothing to filter (or `primary_only` says to ignore the filters).
/// Budget-checked per posting-list entry batch (a huge posting list must
/// respect the wall clock).
void IndexProbeMorsel(const TupleSet& left, const IndexJoinSetup& s,
                      size_t batch_size, size_t t_lo, size_t t_hi,
                      Budget budget, bool primary_only, JoinEmitter* emit,
                      uint64_t* count_out) {
  const bool count_runs =
      emit == nullptr &&
      (primary_only || (s.inner_filters.empty() && s.refs.extra.empty()));
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
      kb.rows[t - b] = left.Row(t, static_cast<size_t>(s.refs.lkey.component));
    }
    s.refs.lkey.column->Gather(kb.rows, e - b, kb.keys, kb.valid);
    for (size_t i = 0; i < e - b; ++i) {
      if (!kb.valid[i]) continue;
      const size_t t = b + i;
      const std::span<const uint32_t> postings = s.index->Lookup(kb.keys[i]);
      if (count_runs) {
        count += postings.size();
        since_check += postings.size();
        continue;
      }
      for (uint32_t irow : postings) {
        if (++since_check >= kBudgetCheckInterval) {
          since_check = 0;
          if (!budget.CheckTime()) return;
        }
        if (!s.inner_filters.empty() &&
            !RowPassesCompiled(s.inner_filters, irow)) {
          continue;
        }
        if (!s.refs.extra.empty() &&
            !ExtraEdgesMatchInner(s.refs.extra, left, t, irow)) {
          continue;
        }
        if (emit == nullptr) {
          ++count;
        } else if (!emit->Emit(t, irow)) {
          return;
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
/// emits (into `emit`) or counts their cross products — as run-length
/// products when there are no extra edges to check (or `primary_only` says
/// to ignore them). Serial — the sort dominates merge-join cost; gathers
/// are batched upstream.
void MergeRuns(const TupleSet& left, const TupleSet& right,
               const std::vector<std::pair<Value, uint32_t>>& lkeys,
               const std::vector<std::pair<Value, uint32_t>>& rkeys,
               const std::vector<std::pair<ColRef, ColRef>>& extra,
               Budget budget, bool primary_only, JoinEmitter* emit,
               uint64_t* count_out) {
  const bool count_runs = emit == nullptr && (primary_only || extra.empty());
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
      if (count_runs) {
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
            if (emit == nullptr) {
              ++count;
            } else if (!emit->Emit(lkeys[i].second, rkeys[j].second)) {
              return;
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
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
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

Status Executor::ExecuteScan(const PlanNode& plan, Ctx& ctx,
                             TupleSet* out) const {
  const Table* table = db_.TableById(plan.table_id);
  if (table == nullptr) {
    return Status::NotFound(
        StrFormat("scan of unknown table id %d", plan.table_id));
  }
  CARDBENCH_RETURN_IF_ERROR(CheckFilters(db_, plan));
  // The first filter of an index scan must be an equality served by the
  // index.
  if (plan.scan_method == ScanMethod::kIndexScan &&
      (plan.filters.empty() || plan.filters[0].op != CompareOp::kEq)) {
    return Status::InvalidArgument(
        "index scan requires a leading equality filter on " + table->name());
  }
  out->table_ids = {plan.table_id};
  out->data.clear();
  Budget budget{&ctx.watch, ctx.limits, &ctx.timed_out};
  if (!budget.CheckTime()) return Status::OK();

  if (plan.scan_method == ScanMethod::kIndexScan) {
    const CompiledPredicate& key = plan.filters[0];
    const std::span<const uint32_t> postings =
        table->GetIndex(static_cast<size_t>(key.column_id)).Lookup(key.value);
    const auto rest =
        std::span<const CompiledPredicate>(plan.filters).subspan(1);
    // The posting list scales with input size: refine it in budget-checked
    // batches so a huge list cannot blow past the wall clock. It also
    // bounds the output, so the output never regrows.
    const size_t batch = options_.batch_size;
    size_t since_check = 0;
    out->data.reserve(postings.size());
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
  const size_t morsel_rows = std::max(options_.batch_size, kScanMorselRows);
  const size_t num_morsels = n == 0 ? 0 : (n + morsel_rows - 1) / morsel_rows;
  if (pool_ == nullptr || num_morsels <= 1) {
    for (size_t m = 0; m < num_morsels; ++m) {
      if (!budget.CheckTime()) return Status::OK();
      ScanRange(plan.filters, m * morsel_rows,
                std::min(n, (m + 1) * morsel_rows), options_.batch_size,
                budget, &out->data);
    }
    return Status::OK();
  }
  // Morsel output batches concatenated in morsel order: row ids come out
  // ascending, exactly as in the serial scan.
  std::vector<RowBatch> parts(num_morsels);
  ForEachMorsel(num_morsels, [&](size_t m) {
    if (!budget.CheckTime()) return;
    ScanRange(plan.filters, m * morsel_rows,
              std::min(n, (m + 1) * morsel_rows), options_.batch_size, budget,
              &parts[m].sel);
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

Status Executor::ExecuteJoin(const PlanNode& plan, Ctx& ctx, TupleSet* out,
                             uint64_t* count) const {
  TupleSet left;
  CARDBENCH_RETURN_IF_ERROR(ExecuteNode(*plan.left, ctx, &left));
  if (ctx.TimedOut()) return Status::OK();
  Budget budget{&ctx.watch, ctx.limits, &ctx.timed_out};
  EmitCap cap(ctx.limits->max_intermediate_tuples, budget);

  // Index-nested-loop: the inner side is a base table accessed through its
  // join-column index; it is never materialized.
  if (plan.join_method == JoinMethod::kIndexNestLoop) {
    IndexJoinSetup setup;
    CARDBENCH_RETURN_IF_ERROR(SetupIndexJoin(db_, plan, left, &setup));
    if (out != nullptr) {
      out->table_ids = left.table_ids;
      out->table_ids.push_back(plan.right->table_id);
    }
    const bool exact = setup.inner_filters.empty() && setup.refs.extra.empty();
    RunProbeMorsels(
        left.size(), ctx, out, count,
        [&](size_t lo, size_t hi, std::vector<uint32_t>* dst, uint64_t* cnt) {
          CountOrEmit(left, nullptr, exact, budget, &cap, dst, cnt,
                      [&](JoinEmitter* emit, uint64_t* c, bool primary_only) {
                        IndexProbeMorsel(left, setup, options_.batch_size, lo,
                                         hi, budget, primary_only, emit, c);
                      });
        });
    return Status::OK();
  }

  TupleSet right;
  CARDBENCH_RETURN_IF_ERROR(ExecuteNode(*plan.right, ctx, &right));
  if (ctx.TimedOut()) return Status::OK();
  EdgeRefs refs;
  CARDBENCH_RETURN_IF_ERROR(
      ResolveEdges(db_, plan, left.table_ids, right.table_ids, &refs));
  if (out != nullptr) {
    out->table_ids = left.table_ids;
    out->table_ids.insert(out->table_ids.end(), right.table_ids.begin(),
                          right.table_ids.end());
  }

  if (plan.join_method == JoinMethod::kHashJoin) {
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
          CountOrEmit(left, &right, refs.extra.empty(), budget, &cap, dst, cnt,
                      [&](JoinEmitter* emit, uint64_t* c, bool primary_only) {
                        RadixProbeMorsel(left, right, refs.lkey, ht,
                                         refs.extra, options_.batch_size, lo,
                                         hi, budget, primary_only, emit, c);
                      });
        });
    return Status::OK();
  }

  // Merge join: sort both inputs by key (NULLs dropped), then walk equal
  // runs, emitting or counting their cross products. Counts agree across
  // join algorithms, but the root's method still matters for timing: merge
  // join pays the sort, hash join the build.
  const auto lkeys = SortedKeys(left, refs.lkey, options_.batch_size, budget);
  const auto rkeys = SortedKeys(right, refs.rkey, options_.batch_size, budget);
  if (ctx.TimedOut()) return Status::OK();
  CountOrEmit(left, &right, refs.extra.empty(), budget, &cap,
              out != nullptr ? &out->data : nullptr, count,
              [&](JoinEmitter* emit, uint64_t* c, bool primary_only) {
                MergeRuns(left, right, lkeys, rkeys, refs.extra, budget,
                          primary_only, emit, c);
              });
  return Status::OK();
}

Status Executor::ExecuteNode(const PlanNode& plan, Ctx& ctx,
                             TupleSet* out) const {
  const Status status = plan.IsScan() ? ExecuteScan(plan, ctx, out)
                                      : ExecuteJoin(plan, ctx, out, nullptr);
  if (status.ok() && !ctx.TimedOut() && ctx.actual_rows != nullptr) {
    (*ctx.actual_rows)[plan.table_mask] = static_cast<double>(out->size());
  }
  return status;
}

Result<ExecResult> Executor::ExecuteCount(const PlanNode& plan,
                                          bool analyze) const {
  Ctx ctx;
  ctx.limits = &limits_;
  ExecResult result;
  if (analyze) ctx.actual_rows = &result.actual_rows;
  // The root is evaluated count-only: its children are materialized, the
  // final join streams a match count. A scan root counts its rows.
  uint64_t count = 0;
  if (plan.IsScan()) {
    TupleSet out;
    CARDBENCH_RETURN_IF_ERROR(ExecuteScan(plan, ctx, &out));
    count = out.size();
  } else {
    CARDBENCH_RETURN_IF_ERROR(ExecuteJoin(plan, ctx, nullptr, &count));
  }
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
