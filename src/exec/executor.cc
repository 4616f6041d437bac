#include "exec/executor.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/stopwatch.h"
#include "common/str_util.h"
#include "storage/filter.h"
#include "storage/index.h"

namespace cardbench {

namespace {

/// Rows / iterations processed between wall-clock budget checks. Checking
/// the clock is cheap but not free; this bounds both the overhead and the
/// cut-off latency.
constexpr size_t kBudgetCheckInterval = 1 << 14;

/// Resolves a (table, column) reference against a tuple layout: which tuple
/// component and which storage column it denotes.
struct ColRef {
  const Column* column = nullptr;
  int component = -1;
};

/// Which limit cut a run off; the first one tripped wins.
enum class CutOff : uint8_t { kNone = 0, kWallClock, kCap };

/// The per-execution budget shared by all morsel workers of one run: the
/// wall clock, the limits and the cut-off they publish into.
struct Budget {
  Stopwatch watch;
  const ExecLimits* limits = nullptr;
  std::atomic<CutOff> cut_off{CutOff::kNone};

  bool TimedOut() const {
    return cut_off.load(std::memory_order_relaxed) != CutOff::kNone;
  }

  /// Publishes the cut-off unless another limit already did.
  void Trip(CutOff reason) {
    CutOff none = CutOff::kNone;
    cut_off.compare_exchange_strong(none, reason, std::memory_order_relaxed);
  }

  /// False when the wall clock is exhausted (or the run was already cut
  /// off); publishes the cut-off.
  bool CheckTime() {
    if (TimedOut()) return false;
    if (watch.ElapsedSeconds() > limits->timeout_seconds) {
      Trip(CutOff::kWallClock);
      return false;
    }
    return true;
  }
};

/// Counts work between wall-clock checks: Tick(n) checks the clock once
/// every kBudgetCheckInterval rows, matches or iterations. Copyable, so a
/// hot loop can tick a local copy kept in a register.
class BudgetTicker {
 public:
  explicit BudgetTicker(Budget& budget) : budget_(&budget) {}

  /// False once the run is cut off.
  bool Tick(size_t n = 1) {
    since_check_ += n;
    if (since_check_ < kBudgetCheckInterval) return true;
    since_check_ = 0;
    return budget_->CheckTime();
  }

 private:
  Budget* budget_;
  size_t since_check_ = 0;
};

/// Primary + extra join-edge endpoints bound on the two join inputs.
struct EdgeRefs {
  ColRef lkey;
  ColRef rkey;
  std::vector<std::pair<ColRef, ColRef>> extra;
};

/// Key → multiplicity: a count-only root hash join's build side.
struct KeyCountSlot {
  Value key = 0;
  uint64_t count = 0;
};
using KeyCounts = KeyCountTable<KeyCountSlot>;

/// The materialized inputs of a merge join and their sorted (key, tuple)
/// runs.
struct MergeInputs {
  TupleSet left;
  TupleSet right;
  std::vector<std::pair<Value, uint32_t>> lkeys;
  std::vector<std::pair<Value, uint32_t>> rkeys;
};

/// A plan node compiled for one execution: its output layout and resolved
/// columns, checked once before anything runs, plus the run's state.
struct Op {
  const PlanNode* node = nullptr;
  /// Catalog ids of the output tuple's components, in order.
  std::vector<int> table_ids;
  std::unique_ptr<Op> left;
  /// Null for an index nested loop: its inner side never runs.
  std::unique_ptr<Op> right;
  /// Scans: the table; index scans: the leading equality's postings.
  const Table* table = nullptr;
  std::span<const uint32_t> postings;
  /// Joins: edge endpoints, outer side first.
  EdgeRefs refs;
  /// Index nested loop: the inner join column's index and the inner
  /// filters. Hash join: the index over its build side's keys, set with
  /// `build` before the pipeline above it streams.
  const HashIndex* index = nullptr;
  const std::vector<CompiledPredicate>* inner_filters = nullptr;
  /// The root under ExecuteCount: counts its output instead of emitting it,
  /// and is the one join the cap does not apply to.
  bool count_only = false;

  /// Output tuples so far: EXPLAIN ANALYZE's actual rows and the cap's
  /// count.
  std::atomic<uint64_t> rows{0};
  /// Output complete (the pipeline producing it finished uncut).
  bool done = false;
  /// Breaker state, set before the pipeline above it streams: a hash
  /// join's materialized build side (indexed in `index`), or its key
  /// counts; a merge join's sorted inputs.
  const TupleSet* build = nullptr;
  const KeyCounts* key_counts = nullptr;
  const MergeInputs* merge = nullptr;

  bool IsScan() const { return node->IsScan(); }
  JoinMethod method() const { return node->join_method; }
  size_t arity() const { return table_ids.size(); }
  /// Whether the op runs inside a pipeline (as opposed to being a source).
  bool Streams() const {
    return !IsScan() && method() != JoinMethod::kMergeJoin;
  }
};

/// Index of the table `table_id` among a tuple layout's tables, or -1.
int ComponentIndex(const std::vector<int>& table_ids, int table_id) {
  auto it = std::find(table_ids.begin(), table_ids.end(), table_id);
  return it == table_ids.end() ? -1
                               : static_cast<int>(it - table_ids.begin());
}

/// Binds the catalog column `ref` on a tuple layout of `table_ids`. Unbound
/// (null column) when its table is not a component or either id names
/// nothing.
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

/// Binds every join edge of `plan` across a join whose outer input has the
/// layout `outer` and whose inner side has `inner`: the endpoint on an
/// outer table binds to the outer input, the other to the inner side.
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

/// Compiles the plan subtree `node`, left input first, checking every id
/// and method constraint; `count_only` marks the ExecuteCount root.
Status Compile(const Database& db, const PlanNode& node, bool count_only,
               std::unique_ptr<Op>* out) {
  auto op = std::make_unique<Op>();
  op->node = &node;
  op->count_only = count_only;
  if (node.IsScan()) {
    op->table = db.TableById(node.table_id);
    if (op->table == nullptr) {
      return Status::NotFound(
          StrFormat("scan of unknown table id %d", node.table_id));
    }
    CARDBENCH_RETURN_IF_ERROR(CheckFilters(db, node));
    // The first filter of an index scan must be an equality served by the
    // index.
    if (node.scan_method == ScanMethod::kIndexScan) {
      if (node.filters.empty() || node.filters[0].op != CompareOp::kEq) {
        return Status::InvalidArgument("index scan requires a leading "
                                       "equality filter on " +
                                       op->table->name());
      }
      const CompiledPredicate& key = node.filters[0];
      op->postings = op->table->GetIndex(static_cast<size_t>(key.column_id))
                         .Lookup(key.value);
    }
    op->table_ids = {node.table_id};
    *out = std::move(op);
    return Status::OK();
  }

  CARDBENCH_RETURN_IF_ERROR(Compile(db, *node.left, false, &op->left));
  op->table_ids = op->left->table_ids;
  if (node.join_method == JoinMethod::kIndexNestLoop) {
    // The inner side is a base table accessed through its join-column
    // index; it is never scanned.
    const PlanNode& inner = *node.right;
    if (!inner.IsScan()) {
      return Status::InvalidArgument(
          "index nested loop requires a base-table inner side");
    }
    const Table* table = db.TableById(inner.table_id);
    if (table == nullptr) {
      return Status::NotFound(StrFormat("table id %d", inner.table_id));
    }
    CARDBENCH_RETURN_IF_ERROR(CheckFilters(db, inner));
    CARDBENCH_RETURN_IF_ERROR(ResolveEdges(db, node, op->table_ids,
                                           {inner.table_id}, &op->refs));
    const CatalogColumn key = node.edge.left.table_id == inner.table_id
                                  ? node.edge.left
                                  : node.edge.right;
    op->index = &table->GetIndex(static_cast<size_t>(key.column_id));
    op->inner_filters = &inner.filters;
    op->table_ids.push_back(inner.table_id);
  } else {
    CARDBENCH_RETURN_IF_ERROR(Compile(db, *node.right, false, &op->right));
    CARDBENCH_RETURN_IF_ERROR(ResolveEdges(
        db, node, op->table_ids, op->right->table_ids, &op->refs));
    op->table_ids.insert(op->table_ids.end(), op->right->table_ids.begin(),
                         op->right->table_ids.end());
  }
  *out = std::move(op);
  return Status::OK();
}

/// Records the actual rows of every op of `op`'s subtree whose output
/// completed.
void CollectActualRows(const Op& op,
                       std::unordered_map<uint64_t, double>* actual_rows) {
  if (op.done) {
    (*actual_rows)[op.node->table_mask] =
        static_cast<double>(op.rows.load(std::memory_order_relaxed));
  }
  if (op.left != nullptr) CollectActualRows(*op.left, actual_rows);
  if (op.right != nullptr) CollectActualRows(*op.right, actual_rows);
}

/// Whether the extra join edges hold between the outer tuple `outer` and
/// the inner tuple `inner` (row ids in their inputs' layouts; for an index
/// nested loop, the one inner row): every endpoint non-NULL and equal.
bool ExtraEdgesMatch(const std::vector<std::pair<ColRef, ColRef>>& refs,
                     const uint32_t* outer, const uint32_t* inner) {
  for (const auto& [oref, iref] : refs) {
    const uint32_t orow = outer[oref.component];
    const uint32_t irow = inner[iref.component];
    if (!oref.column->IsValid(orow) || !iref.column->IsValid(irow)) {
      return false;
    }
    if (oref.column->Get(orow) != iref.column->Get(irow)) return false;
  }
  return true;
}

/// Gather buffers for batched join-key access, `capacity` entries each,
/// from an arena the caller brackets with a frame. `rows[i]` is the
/// base-table row of input tuple i of the batch, `keys[i]`/`valid[i]` the
/// gathered key value and its non-NULL flag (see Column::Gather).
struct KeyScratch {
  KeyScratch(Arena& arena, size_t capacity)
      : rows(arena.AllocateArray<uint32_t>(capacity)),
        keys(arena.AllocateArray<Value>(capacity)),
        valid(arena.AllocateArray<uint8_t>(capacity)) {}

  /// Gathers the key column `key` of tuples [0, n) of `tuples` (row-major,
  /// `arity` row ids each).
  void Gather(const ColRef& key, const uint32_t* tuples, size_t arity,
              size_t n) {
    for (size_t t = 0; t < n; ++t) {
      rows[t] = tuples[t * arity + static_cast<size_t>(key.component)];
    }
    key.column->Gather(rows, n, keys, valid);
  }

  uint32_t* rows;
  Value* keys;
  uint8_t* valid;
};

/// Receives a producer's output chunk by chunk.
class Consumer {
 public:
  virtual ~Consumer() = default;
  /// Takes `n` tuples, row-major in the producer's layout. False once the
  /// run is cut off: the producer stops at once.
  virtual bool Consume(const uint32_t* tuples, size_t n) = 0;
};

/// One worker's output buffer of an operator: tuples of the operator's
/// arity, row-major. The operator checks Full() after each input tuple's
/// matches; Flush() then admits the buffered tuples — adds them to the
/// operator's output count, which the cap checks unless the operator is
/// the count-only root — and hands them to `next`. The buffer thus holds
/// batch_size tuples plus at most one input tuple's matches.
class Emitter {
 public:
  Emitter(Op& op, size_t batch_size, Budget& budget, Consumer* next)
      : op_(op),
        arity_(op.arity()),
        limit_(batch_size * op.arity()),
        budget_(budget),
        next_(next),
        buf_(limit_) {}

  /// Space for `n` more output tuples, row-major.
  uint32_t* Append(size_t n = 1) {
    const size_t used = used_ + n * arity_;
    if (used > buf_.size()) buf_.resize(std::max(2 * buf_.size(), used));
    uint32_t* tuples = buf_.data() + used_;
    used_ = used;
    return tuples;
  }

  bool Full() const { return used_ >= limit_; }

  /// Admits and hands on the buffered tuples; false once the run is cut
  /// off, by this operator's cap or anything downstream.
  bool Flush() {
    if (used_ == 0) return !budget_.TimedOut();
    const size_t n = used_ / arity_;
    used_ = 0;
    const uint64_t total =
        op_.rows.fetch_add(n, std::memory_order_relaxed) + n;
    if (!op_.count_only && total > budget_.limits->max_intermediate_tuples) {
      budget_.Trip(CutOff::kCap);
      return false;
    }
    return next_->Consume(buf_.data(), n);
  }

 private:
  Op& op_;
  size_t arity_;
  size_t limit_;
  Budget& budget_;
  Consumer* next_;
  std::vector<uint32_t> buf_;
  size_t used_ = 0;
};

/// Copies `n` row ids of one tuple. Every per-tuple copy goes through this
/// plain loop: a tuple is a few ids wide, and GCC compiles `std::copy_n`
/// (or `memcpy`) of a runtime length into one `memmove` call per tuple,
/// which costs more than the copy itself (EXPERIMENTS.md, "Pipelined count
/// execution").
inline void CopyIds(const uint32_t* src, size_t n, uint32_t* dst) {
  for (size_t c = 0; c < n; ++c) dst[c] = src[c];
}

/// Appends the concatenation of `left` (`larity` row ids) and `right`
/// (`rarity`) to `out`.
inline void EmitJoined(Emitter& out, const uint32_t* left, size_t larity,
                       const uint32_t* right, size_t rarity) {
  uint32_t* tuple = out.Append();
  CopyIds(left, larity, tuple);
  CopyIds(right, rarity, tuple + larity);
}

/// One worker's probe of a hash or index-nested-loop join: consumes the
/// outer input chunk by chunk, gathers and looks up its keys a batch at a
/// time, and emits the matches in (outer tuple, ascending inner row) order,
/// or counts them at the count-only root. The hash probe prefetches the
/// home slot of probe i + kIndexPrefetchDistance while probe i walks the
/// table; an index nested loop with inner filters filters its postings
/// kIndexChunkRows at a time.
class Probe final : public Consumer {
 public:
  Probe(Op& op, Arena& arena, size_t batch_size, Budget& budget,
        Consumer* next, uint64_t* count)
      : op_(op),
        larity_(op.left->arity()),
        batch_(batch_size),
        kb_(arena, batch_size),
        ticker_(budget),
        count_(count) {
    if (!op.count_only) out_.emplace(op, batch_size, budget, next);
    if (op.inner_filters != nullptr && !op.inner_filters->empty()) {
      chunk_ = arena.AllocateArray<uint32_t>(kIndexChunkRows);
      pieces_ = arena.AllocateArray<RunPiece>(kIndexChunkRows);
    }
  }

  bool Consume(const uint32_t* tuples, size_t n) override {
    for (size_t b = 0; b < n; b += batch_) {
      const size_t m = std::min(n, b + batch_) - b;
      if (!ticker_.Tick(m)) return false;
      const uint32_t* in = tuples + b * larity_;
      kb_.Gather(op_.refs.lkey, in, larity_, m);
      const bool ok = op_.key_counts != nullptr ? ProbeKeyCounts(m)
                      : op_.build != nullptr    ? ProbeHash(in, m)
                                                : ProbeIndex(in, m);
      if (!ok) return false;
    }
    return true;
  }

  /// Hands on what is buffered (a morsel's end).
  bool Flush() { return !out_.has_value() || out_->Flush(); }

 private:
  /// The count-only root without extra edges: adds each key's build-side
  /// multiplicity.
  bool ProbeKeyCounts(size_t n) {
    uint64_t count = 0;
    for (size_t i = 0; i < n; ++i) {
      if (kb_.valid[i]) count += op_.key_counts->Get(kb_.keys[i]);
    }
    *count_ += count;
    return true;
  }

  // The per-match loops below tick and count in locals (stored back on
  // success) rather than through members: a store through `count_` could
  // alias the ticker's counter, which would keep both in memory.

  bool ProbeHash(const uint32_t* in, size_t n) {
    const HashIndex& index = *op_.index;
    const TupleSet& build = *op_.build;
    const size_t rarity = build.arity();
    const auto& extra = op_.refs.extra;
    Emitter* out = out_.has_value() ? &*out_ : nullptr;
    BudgetTicker ticker = ticker_;
    uint64_t count = 0;
    for (size_t i = 0; i < std::min(kIndexPrefetchDistance, n); ++i) {
      if (kb_.valid[i]) index.Prefetch(kb_.keys[i]);
    }
    for (size_t i = 0; i < n; ++i) {
      const size_t ahead = i + kIndexPrefetchDistance;
      if (ahead < n && kb_.valid[ahead]) index.Prefetch(kb_.keys[ahead]);
      if (!kb_.valid[i]) continue;
      const uint32_t* outer = in + i * larity_;
      for (uint32_t rt : index.Lookup(kb_.keys[i])) {
        if (!ticker.Tick()) return false;
        const uint32_t* inner = build.data.data() + size_t{rt} * rarity;
        if (!extra.empty() && !ExtraEdgesMatch(extra, outer, inner)) continue;
        if (out != nullptr) {
          EmitJoined(*out, outer, larity_, inner, rarity);
        } else {
          ++count;
        }
      }
      if (out != nullptr && out->Full() && !out->Flush()) return false;
    }
    ticker_ = ticker;
    *count_ += count;
    return true;
  }

  /// The index nested loop. Without inner filters each outer tuple's
  /// posting run is emitted (one n-tuple Append), counted, or checked
  /// against the extra edges whole. With them, the runs of consecutive
  /// outer tuples are copied into the chunk, a longer run splitting across
  /// chunks, and each full chunk (and the batch's last) goes to
  /// FilterChunk.
  bool ProbeIndex(const uint32_t* in, size_t n) {
    const auto& extra = op_.refs.extra;
    Emitter* out = out_.has_value() ? &*out_ : nullptr;
    BudgetTicker ticker = ticker_;
    uint64_t count = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!kb_.valid[i]) continue;
      const std::span<const uint32_t> run = op_.index->Lookup(kb_.keys[i]);
      const uint32_t* outer = in + i * larity_;
      if (chunk_ != nullptr) {
        for (size_t lo = 0; lo < run.size();) {
          const size_t take =
              std::min(run.size() - lo, kIndexChunkRows - filled_);
          if (!ticker.Tick(take)) return false;
          pieces_[num_pieces_++] = {outer, run.data() + lo,
                                    static_cast<uint32_t>(take),
                                    lo + take == run.size()};
          std::copy_n(run.data() + lo, take, chunk_ + filled_);
          lo += take;
          filled_ += take;
          if (filled_ == kIndexChunkRows && !FilterChunk()) return false;
        }
        continue;
      }
      if (!ticker.Tick(run.size())) return false;
      if (!extra.empty()) {
        for (uint32_t irow : run) {
          if (!ExtraEdgesMatch(extra, outer, &irow)) continue;
          if (out != nullptr) {
            EmitJoined(*out, outer, larity_, &irow, 1);
          } else {
            ++count;
          }
        }
      } else if (out != nullptr) {
        uint32_t* tuple = out->Append(run.size());
        for (uint32_t irow : run) {
          CopyIds(outer, larity_, tuple);
          tuple[larity_] = irow;
          tuple += larity_ + 1;
        }
      } else {
        count += run.size();
      }
      if (out != nullptr && out->Full() && !out->Flush()) return false;
    }
    ticker_ = ticker;
    *count_ += count;
    return chunk_ == nullptr || FilterChunk();
  }

  /// Filters the chunk's rows in place through the storage kernels, then
  /// adds the survivors (the count-only root without extra edges) or walks
  /// each run piece against them, emitting or counting its matches and
  /// checking Full() where an outer tuple's run ends. The walk is exact:
  /// a piece's rows ascend strictly and a row's verdict does not depend on
  /// the outer tuple, so the piece's survivors are the next ones in order,
  /// and a row that failed equals no survivor.
  bool FilterChunk() {
    const size_t kept =
        FilterRowsConjunction(*op_.inner_filters, chunk_, filled_);
    const size_t pieces = num_pieces_;
    filled_ = num_pieces_ = 0;
    const auto& extra = op_.refs.extra;
    Emitter* out = out_.has_value() ? &*out_ : nullptr;
    if (out == nullptr && extra.empty()) {
      *count_ += kept;
      return true;
    }
    uint64_t count = 0;
    size_t s = 0;
    for (size_t p = 0; p < pieces && s < kept; ++p) {
      const RunPiece& piece = pieces_[p];
      uint32_t survivor = chunk_[s];
      for (size_t j = 0; j < piece.size; ++j) {
        const uint32_t irow = piece.rows[j];
        if (irow != survivor) continue;
        if (extra.empty() || ExtraEdgesMatch(extra, piece.outer, &irow)) {
          if (out != nullptr) {
            EmitJoined(*out, piece.outer, larity_, &irow, 1);
          } else {
            ++count;
          }
        }
        if (++s == kept) break;
        survivor = chunk_[s];
      }
      if (out != nullptr && piece.ends_run && out->Full() && !out->Flush()) {
        return false;
      }
    }
    *count_ += count;
    return true;
  }

  /// The part of one outer tuple's posting run that one chunk holds.
  struct RunPiece {
    const uint32_t* outer;
    const uint32_t* rows;
    uint32_t size;
    /// The run's last part: the outer tuple's matches are complete.
    bool ends_run;
  };

  Op& op_;
  size_t larity_;
  size_t batch_;
  KeyScratch kb_;
  BudgetTicker ticker_;
  /// Emitting joins' output; empty at the count-only root.
  std::optional<Emitter> out_;
  uint64_t* count_;
  /// An index nested loop with inner filters: the chunk of copied inner
  /// rows, kIndexChunkRows long, and its run pieces in order.
  uint32_t* chunk_ = nullptr;
  RunPiece* pieces_ = nullptr;
  size_t filled_ = 0;
  size_t num_pieces_ = 0;
};

/// Appends every tuple it is given to `target` (set per morsel).
class TupleSink final : public Consumer {
 public:
  explicit TupleSink(size_t arity) : arity_(arity) {}

  void set_target(std::vector<uint32_t>* target) { target_ = target; }

  bool Consume(const uint32_t* tuples, size_t n) override {
    target_->insert(target_->end(), tuples, tuples + n * arity_);
    return true;
  }

 private:
  size_t arity_;
  std::vector<uint32_t>* target_ = nullptr;
};

/// Adds the non-NULL key column of every tuple it is given to `counts`.
class KeyCountSink final : public Consumer {
 public:
  KeyCountSink(const ColRef& key, size_t arity, Arena& arena,
               size_t batch_size, KeyCounts* counts)
      : key_(key),
        arity_(arity),
        batch_(batch_size),
        kb_(arena, batch_size),
        counts_(counts) {}

  bool Consume(const uint32_t* tuples, size_t n) override {
    for (size_t b = 0; b < n; b += batch_) {
      const size_t m = std::min(n, b + batch_) - b;
      kb_.Gather(key_, tuples + b * arity_, arity_, m);
      for (size_t i = 0; i < m; ++i) {
        if (kb_.valid[i]) counts_->Add(kb_.keys[i]);
      }
    }
    return true;
  }

 private:
  ColRef key_;
  size_t arity_;
  size_t batch_;
  KeyScratch kb_;
  KeyCounts* counts_;
};

/// Counts the tuples it is given (a scan root's count).
class CountSink final : public Consumer {
 public:
  explicit CountSink(uint64_t* count) : count_(count) {}

  bool Consume(const uint32_t*, size_t n) override {
    *count_ += n;
    return true;
  }

 private:
  uint64_t* count_;
};

/// Gathers the key column `key` of every tuple of `ts` into `keys` and its
/// non-NULL flags into `valid`, a batch at a time under the budget. False
/// once the run is cut off, checked once more after the last batch: what
/// callers do next (a sort, a HashIndex build) runs unchecked, bounded by
/// the size of `ts`, which the cap has admitted.
bool GatherKeys(const TupleSet& ts, const ColRef& key, size_t batch_size,
                Budget& budget, std::vector<Value>* keys,
                std::vector<uint8_t>* valid) {
  keys->resize(ts.size());
  valid->resize(ts.size());
  ArenaFrame frame(ThreadLocalArena());
  uint32_t* rows =
      frame.arena().AllocateArray<uint32_t>(std::min(batch_size, ts.size()));
  BudgetTicker ticker(budget);
  for (size_t b = 0; b < ts.size(); b += batch_size) {
    const size_t n = std::min(ts.size(), b + batch_size) - b;
    if (!ticker.Tick(n)) return false;
    for (size_t t = 0; t < n; ++t) {
      rows[t] = ts.Row(b + t, static_cast<size_t>(key.component));
    }
    key.column->Gather(rows, n, keys->data() + b, valid->data() + b);
  }
  return budget.CheckTime();
}

/// The hash join's table over `ts`: a HashIndex from the key column `key`
/// to tuple positions. Empty once the run is cut off.
std::optional<HashIndex> IndexKeys(const TupleSet& ts, const ColRef& key,
                                   size_t batch_size, Budget& budget) {
  std::vector<Value> keys;
  std::vector<uint8_t> valid;
  if (!GatherKeys(ts, key, batch_size, budget, &keys, &valid)) {
    return std::nullopt;
  }
  return HashIndex(keys, valid);
}

/// The merge join's sorted run input: the non-NULL keys of `ts`'s key
/// column `key` with their tuple positions, sorted by (key, tuple).
/// Incomplete once the run is cut off.
std::vector<std::pair<Value, uint32_t>> SortedKeys(const TupleSet& ts,
                                                   const ColRef& key,
                                                   size_t batch_size,
                                                   Budget& budget) {
  std::vector<Value> keys;
  std::vector<uint8_t> valid;
  std::vector<std::pair<Value, uint32_t>> sorted;
  if (!GatherKeys(ts, key, batch_size, budget, &keys, &valid)) return sorted;
  sorted.reserve(keys.size());
  for (size_t t = 0; t < keys.size(); ++t) {
    if (valid[t]) sorted.emplace_back(keys[t], static_cast<uint32_t>(t));
  }
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

/// The merge join `op` over its sorted inputs: walks equal-key runs of both
/// and emits their cross products into `out`, or counts them into *count —
/// as run-length products when there are no extra edges to check. Serial:
/// the sort dominates merge-join cost.
bool MergeRuns(const Op& op, Budget& budget, Emitter* out, uint64_t* count) {
  const MergeInputs& in = *op.merge;
  const auto& lkeys = in.lkeys;
  const auto& rkeys = in.rkeys;
  const auto& extra = op.refs.extra;
  const size_t larity = in.left.arity();
  const size_t rarity = in.right.arity();
  const bool count_runs = out == nullptr && extra.empty();
  BudgetTicker ticker(budget);
  size_t li = 0, ri = 0;
  while (li < lkeys.size() && ri < rkeys.size()) {
    if (!ticker.Tick()) return false;
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
        *count += static_cast<uint64_t>(lend - li) *
                  static_cast<uint64_t>(rend - ri);
        if (!ticker.Tick(rend - ri)) return false;
      } else {
        for (size_t i = li; i < lend; ++i) {
          const uint32_t* outer =
              in.left.data.data() + size_t{lkeys[i].second} * larity;
          for (size_t j = ri; j < rend; ++j) {
            if (!ticker.Tick()) return false;
            const uint32_t* inner =
                in.right.data.data() + size_t{rkeys[j].second} * rarity;
            if (!extra.empty() && !ExtraEdgesMatch(extra, outer, inner)) {
              continue;
            }
            if (out == nullptr) {
              ++*count;
            } else {
              EmitJoined(*out, outer, larity, inner, rarity);
            }
          }
          if (out != nullptr && out->Full() && !out->Flush()) return false;
        }
      }
      li = lend;
      ri = rend;
    }
  }
  return true;
}

/// Where a pipeline's output goes: exactly one of a materialized TupleSet,
/// the key counts of its column `key`, or a count.
struct SinkSpec {
  TupleSet* tuples = nullptr;
  KeyCounts* key_counts = nullptr;
  ColRef key;
  uint64_t* count = nullptr;

  static SinkSpec Tuples(TupleSet* out) { return {out, nullptr, {}, nullptr}; }
  static SinkSpec KeysOf(const ColRef& key, KeyCounts* out) {
    return {nullptr, out, key, nullptr};
  }
  static SinkSpec Count(uint64_t* out) { return {nullptr, nullptr, {}, out}; }
};

/// A pipeline's input: a scan or merge join (`op`), or tuples an earlier
/// step materialized.
struct Source {
  Op* op = nullptr;
  const TupleSet* tuples = nullptr;

  const std::vector<int>& table_ids() const {
    return op != nullptr ? op->table_ids : tuples->table_ids;
  }
};

/// Arity of the tuples `source` streamed through `ops` produces.
size_t OutputArity(const Source& source, std::span<Op* const> ops) {
  return ops.empty() ? source.table_ids().size() : ops.back()->arity();
}

}  // namespace

/// One execution: compiles nothing, owns the budget, and runs pipelines.
class Executor::Run {
 public:
  explicit Run(const Executor& exec) : exec_(exec) {
    budget_.limits = &exec.limits_;
  }

  Budget& budget() { return budget_; }

  /// Runs the pipeline producing `top`'s output into `sink`: prepares the
  /// breakers of the streaming joins on `top`'s left spine (and of the
  /// merge join at its bottom, if any), then streams.
  void Pipeline(Op& top, const SinkSpec& sink) {
    std::vector<Op*> ops;
    Op* source = &top;
    while (source->Streams()) {
      ops.push_back(source);
      source = source->left.get();
    }
    std::reverse(ops.begin(), ops.end());
    Prepare(*source, ops, 0, sink);
  }

 private:
  /// Prepares the breaker of ops[i], then the rest, then streams. Recursive
  /// so that each breaker's state lives on the stack until the pipeline has
  /// run. A hash join's table is built serially, on the calling thread.
  void Prepare(Op& source, std::span<Op* const> ops, size_t i,
               const SinkSpec& sink) {
    if (budget_.TimedOut()) return;
    if (i == ops.size()) {
      if (source.IsScan()) {
        Drive(Source{&source, nullptr}, ops, sink);
        return;
      }
      MergeInputs in;
      Pipeline(*source.left, SinkSpec::Tuples(&in.left));
      if (budget_.TimedOut()) return;
      Pipeline(*source.right, SinkSpec::Tuples(&in.right));
      if (budget_.TimedOut()) return;
      const size_t batch = exec_.options_.batch_size;
      in.lkeys = SortedKeys(in.left, source.refs.lkey, batch, budget_);
      in.rkeys = SortedKeys(in.right, source.refs.rkey, batch, budget_);
      if (budget_.TimedOut()) return;
      source.merge = &in;
      Drive(Source{&source, nullptr}, ops, sink);
      return;
    }
    Op& op = *ops[i];
    if (op.method() != JoinMethod::kHashJoin) {
      Prepare(source, ops, i + 1, sink);
      return;
    }
    if (op.count_only && op.refs.extra.empty()) {
      // Only each key's multiplicity matters: no build tuple is stored.
      KeyCounts counts;
      Pipeline(*op.right, SinkSpec::KeysOf(op.refs.rkey, &counts));
      op.key_counts = &counts;
      Prepare(source, ops, i + 1, sink);
      return;
    }
    TupleSet build;
    Pipeline(*op.right, SinkSpec::Tuples(&build));
    if (budget_.TimedOut()) return;
    const std::optional<HashIndex> index =
        IndexKeys(build, op.refs.rkey, exec_.options_.batch_size, budget_);
    if (!index.has_value()) return;
    op.build = &build;
    op.index = &*index;
    Prepare(source, ops, i + 1, sink);
  }

  /// Morsels of `source`: scan rows or postings, or materialized tuples; a
  /// merge join's output is one morsel.
  size_t NumMorsels(const Source& source) const {
    const size_t batch = exec_.options_.batch_size;
    size_t total = 0, per = std::max(batch, kScanMorselRows);
    if (source.tuples != nullptr) {
      total = source.tuples->size();
      per = std::max(batch, kProbeMorselTuples);
    } else if (!source.op->IsScan()) {
      return 1;
    } else if (source.op->node->scan_method == ScanMethod::kIndexScan) {
      total = source.op->postings.size();
    } else {
      total = source.op->table->num_rows();
    }
    return (total + per - 1) / per;
  }

  /// Runs `source` through `ops` into `sink`. In parallel runs, while the
  /// source spans fewer morsels than there are threads, the source (and
  /// then the source joined through the next op) is materialized and used
  /// as the next source, so a chain fanning out from a small input still
  /// spreads over the workers.
  void Drive(Source source, std::span<Op* const> ops, const SinkSpec& sink) {
    TupleSet prefix;
    if (exec_.pool_ != nullptr) {
      const size_t threads = exec_.options_.num_threads;
      while (!ops.empty() && NumMorsels(source) < threads &&
             !budget_.TimedOut()) {
        TupleSet next;
        if (source.tuples == nullptr) {
          Stream(source, {}, SinkSpec::Tuples(&next));
        } else if (ops.size() >= 2) {
          Stream(source, ops.first(1), SinkSpec::Tuples(&next));
          ops = ops.subspan(1);
        } else {
          break;
        }
        prefix = std::move(next);
        source = Source{nullptr, &prefix};
      }
    }
    if (!budget_.TimedOut()) Stream(source, ops, sink);
  }

  /// One worker's instance of a pipeline: a probe per streaming join, in
  /// order, then the sink, with all scratch in one arena frame.
  class Chain {
   public:
    Chain(Run& run, const Source& source, std::span<Op* const> ops,
          const SinkSpec& sink, KeyCounts* key_counts)
        : frame_(ThreadLocalArena()) {
      const size_t batch = run.exec_.options_.batch_size;
      Budget& budget = run.budget_;
      Consumer* next = nullptr;
      if (sink.tuples != nullptr) {
        next = &tuples_.emplace(sink.tuples->arity());
      } else if (sink.key_counts != nullptr) {
        next = &key_counts_.emplace(sink.key, OutputArity(source, ops),
                                    frame_.arena(), batch, key_counts);
      } else if (ops.empty() && source.op->IsScan()) {
        next = &count_sink_.emplace(&count_);
      }
      probes_.resize(ops.size());
      for (size_t i = ops.size(); i-- > 0;) {
        probes_[i] = std::make_unique<Probe>(*ops[i], frame_.arena(), batch,
                                             budget, next, &count_);
        next = probes_[i].get();
      }
      head_ = next;
      if (source.op != nullptr && !source.op->IsScan() &&
          !source.op->count_only) {
        merge_out_.emplace(*source.op, batch, budget, head_);
      }
    }

    Consumer* head() { return head_; }
    Emitter* merge_out() {
      return merge_out_.has_value() ? &*merge_out_ : nullptr;
    }
    std::vector<uint32_t>& selection() { return selection_; }
    uint64_t* count() { return &count_; }
    void set_target(std::vector<uint32_t>* target) {
      tuples_->set_target(target);
    }

    /// Hands on everything buffered, producer first (a morsel's end).
    bool Flush() {
      if (merge_out_.has_value() && !merge_out_->Flush()) return false;
      for (auto& probe : probes_) {
        if (!probe->Flush()) return false;
      }
      return true;
    }

   private:
    /// Holds every probe's and sink's scratch; declared first, so it
    /// unwinds last.
    ArenaFrame frame_;
    uint64_t count_ = 0;
    std::vector<uint32_t> selection_;
    std::optional<TupleSink> tuples_;
    std::optional<KeyCountSink> key_counts_;
    std::optional<CountSink> count_sink_;
    std::vector<std::unique_ptr<Probe>> probes_;
    Consumer* head_ = nullptr;
    std::optional<Emitter> merge_out_;
  };

  /// Runs every morsel of `source` through `ops` into `sink`, on the
  /// calling thread or on up to num_threads workers that pull morsels in
  /// turn. Materialized output is concatenated in morsel order, counts and
  /// key counts are summed, so results never depend on the thread count.
  void Stream(const Source& source, std::span<Op* const> ops,
              const SinkSpec& sink) {
    const size_t morsels = NumMorsels(source);
    const size_t workers =
        exec_.pool_ != nullptr && morsels > 1
            ? std::min(exec_.options_.num_threads, morsels)
            : 1;
    if (sink.tuples != nullptr) {
      sink.tuples->table_ids = ops.empty() ? source.table_ids()
                                           : ops.back()->table_ids;
      sink.tuples->data.clear();
    }
    std::vector<std::vector<uint32_t>> parts(
        workers > 1 && sink.tuples != nullptr ? morsels : 0);
    std::vector<KeyCounts> worker_counts(
        sink.key_counts != nullptr ? workers - 1 : 0);
    std::vector<uint64_t> counts(workers, 0);
    std::atomic<size_t> cursor{0};
    auto work = [&](size_t w) {
      Chain chain(*this, source, ops, sink,
                  w == 0 ? sink.key_counts
                         : (worker_counts.empty() ? nullptr
                                                  : &worker_counts[w - 1]));
      for (size_t m; (m = cursor.fetch_add(1)) < morsels;) {
        if (sink.tuples != nullptr) {
          chain.set_target(parts.empty() ? &sink.tuples->data : &parts[m]);
        }
        if (!Feed(source, m, chain) || !chain.Flush()) break;
      }
      counts[w] = *chain.count();
    };
    if (workers == 1) {
      work(0);
    } else {
      ParallelFor(*exec_.pool_, workers, work);
    }
    if (budget_.TimedOut()) return;

    if (!parts.empty()) {
      size_t total = 0;
      for (const auto& part : parts) total += part.size();
      sink.tuples->data.reserve(total);
      for (const auto& part : parts) {
        sink.tuples->data.insert(sink.tuples->data.end(), part.begin(),
                                 part.end());
      }
    }
    for (const KeyCounts& counts_w : worker_counts) {
      sink.key_counts->Merge(counts_w);
    }
    if (sink.count != nullptr) {
      uint64_t total = 0;
      for (uint64_t c : counts) total += c;
      *sink.count += total;
      // The count-only root's actual rows are its count (a scan root
      // counted its rows as it streamed them).
      Op* root = ops.empty() ? source.op : ops.back();
      if (root != nullptr && root->count_only && !root->IsScan()) {
        root->rows.store(total, std::memory_order_relaxed);
      }
    }
    if (source.op != nullptr) source.op->done = true;
    for (Op* op : ops) op->done = true;
  }

  /// Feeds morsel `m` of `source` into `chain`; false once the run is cut
  /// off.
  bool Feed(const Source& source, size_t m, Chain& chain) {
    if (!budget_.CheckTime()) return false;
    const size_t batch = exec_.options_.batch_size;
    Consumer* head = chain.head();
    if (source.tuples != nullptr) {
      const TupleSet& ts = *source.tuples;
      const size_t per = std::max(batch, kProbeMorselTuples);
      const size_t hi = std::min(ts.size(), (m + 1) * per);
      for (size_t b = m * per; b < hi; b += batch) {
        const size_t n = std::min(hi, b + batch) - b;
        if (!head->Consume(ts.data.data() + b * ts.arity(), n)) return false;
      }
      return true;
    }
    Op& op = *source.op;
    if (!op.IsScan()) {
      return MergeRuns(op, budget_, chain.merge_out(), chain.count());
    }
    // A scan: rows [lo, hi) of the table, or of the index scan's postings,
    // filtered a batch at a time into the selection vector and handed on.
    const std::vector<CompiledPredicate>& filters = op.node->filters;
    const bool index_scan = op.node->scan_method == ScanMethod::kIndexScan;
    const size_t per = std::max(batch, kScanMorselRows);
    const size_t total =
        index_scan ? op.postings.size() : op.table->num_rows();
    const size_t hi = std::min(total, (m + 1) * per);
    std::vector<uint32_t>& sel = chain.selection();
    BudgetTicker ticker(budget_);
    for (size_t b = m * per; b < hi; b += batch) {
      const size_t e = std::min(hi, b + batch);
      if (!ticker.Tick(e - b)) return false;
      sel.clear();
      if (index_scan) {
        sel.assign(op.postings.begin() + b, op.postings.begin() + e);
        size_t kept = sel.size();
        for (size_t p = 1; p < filters.size() && kept > 0; ++p) {
          kept = filters[p].column->FilterRows(sel.data(), kept,
                                               filters[p].op, filters[p].value);
        }
        sel.resize(kept);
      } else {
        FilterRangeConjunction(filters, b, e, &sel);
      }
      if (sel.empty()) continue;
      op.rows.fetch_add(sel.size(), std::memory_order_relaxed);
      if (!head->Consume(sel.data(), sel.size())) return false;
    }
    return true;
  }

  const Executor& exec_;
  Budget budget_;
};

Executor::Executor(const Database& db, ExecLimits limits, ExecOptions options)
    : db_(db), limits_(limits), options_(options) {
  if (options_.batch_size == 0) options_.batch_size = 1;
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
}

Result<ExecResult> Executor::ExecuteCount(const PlanNode& plan,
                                          bool analyze) const {
  std::unique_ptr<Op> root;
  CARDBENCH_RETURN_IF_ERROR(Compile(db_, plan, /*count_only=*/true, &root));
  Run run(*this);
  uint64_t count = 0;
  run.Pipeline(*root, SinkSpec::Count(&count));
  ExecResult result;
  result.count = count;
  const CutOff cut_off = run.budget().cut_off.load(std::memory_order_relaxed);
  result.timed_out = cut_off != CutOff::kNone;
  result.cap_exceeded = cut_off == CutOff::kCap;
  result.elapsed_seconds = run.budget().watch.ElapsedSeconds();
  if (analyze) CollectActualRows(*root, &result.actual_rows);
  return result;
}

Result<TupleSet> Executor::Materialize(const PlanNode& plan) const {
  std::unique_ptr<Op> root;
  CARDBENCH_RETURN_IF_ERROR(Compile(db_, plan, /*count_only=*/false, &root));
  Run run(*this);
  TupleSet out;
  run.Pipeline(*root, SinkSpec::Tuples(&out));
  if (run.budget().TimedOut()) {
    return Status::OutOfRange("materialization exceeded execution limits");
  }
  return out;
}

}  // namespace cardbench
