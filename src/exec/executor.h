#ifndef CARDBENCH_EXEC_EXECUTOR_H_
#define CARDBENCH_EXEC_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "exec/plan.h"
#include "exec/tuple_set.h"
#include "storage/catalog.h"

namespace cardbench {

/// Resource guard rails for plan execution. Catastrophically bad plans
/// (which bad cardinality estimates produce by design) are cut off rather
/// than allowed to run for hours — the harness reports them as the paper
/// reports ">25h" entries.
struct ExecLimits {
  /// Cap on any single materialized intermediate result.
  size_t max_intermediate_tuples = 20000000;
  /// Wall-clock budget for one plan execution.
  double timeout_seconds = 60.0;
};

/// Contiguous input rows per scan morsel / input tuples per probe morsel.
/// A morsel is the unit of work dispatched to one worker; batches of
/// ExecOptions::batch_size are the vectorization unit inside a morsel (a
/// batch larger than a morsel widens the morsel to one batch).
inline constexpr size_t kScanMorselRows = size_t{1} << 14;
inline constexpr size_t kProbeMorselTuples = size_t{1} << 12;

/// Knobs of the vectorized, morsel-driven execution pipeline. No knob
/// affects results: with num_threads == 1 output is bit-identical to any
/// other configuration (morsel outputs are concatenated in morsel order, so
/// parallel runs produce identical tuple order too); batch_size only sets
/// the granularity of the internal selection-vector / key-gather batches.
struct ExecOptions {
  /// Rows per vectorized batch (selection vectors, key gathers).
  size_t batch_size = 1024;
  /// Worker threads for intra-query morsel parallelism (leaf scans, hash
  /// build + probe, index-nested-loop probe). 1 = serial, no pool is
  /// created.
  size_t num_threads = 1;
};

/// Outcome of executing one COUNT(*) plan.
struct ExecResult {
  uint64_t count = 0;
  /// True if a limit was hit; `count` is then meaningless and
  /// `elapsed_seconds` is the time spent until cut-off.
  bool timed_out = false;
  double elapsed_seconds = 0.0;
  /// EXPLAIN ANALYZE data: actual output rows per plan node, keyed by the
  /// node's table_mask. Populated when requested via ExecuteCount's
  /// `analyze` argument. The root's entry equals `count`.
  std::unordered_map<uint64_t, double> actual_rows;
};

/// Batch-vectorized, morsel-driven executor over the columnar storage:
/// materializes each join input as a TupleSet of base-table row ids and
/// evaluates the root count-only (never materializing the final result).
/// Implements the three PostgreSQL join algorithms plus seq/index scans.
///
/// Scans evaluate predicate conjunctions through the storage filter kernels
/// (Column::FilterRange / FilterRows) into selection vectors; joins gather
/// keys in batches (Column::Gather) and intern table names into catalog ids
/// so no inner loop compares strings. Leaf scans and hash/index-NL probes
/// are split into morsels dispatched on an internal thread pool when
/// ExecOptions::num_threads > 1; the ExecLimits budget (wall clock +
/// intermediate-size cap) is enforced inside every loop that scales with
/// input size through a shared atomic cut-off flag.
///
/// Thread-safety: ExecuteCount/Materialize are const and safe to call
/// concurrently from multiple threads (the harness's --threads fan-out);
/// concurrent calls share the morsel pool.
class Executor {
 public:
  explicit Executor(const Database& db, ExecLimits limits = ExecLimits(),
                    ExecOptions options = ExecOptions());

  /// Executes `plan` and returns the COUNT(*) of its output (or a timeout).
  /// Returns an error Status only for malformed plans (unknown tables etc.);
  /// resource exhaustion is reported via ExecResult::timed_out. With
  /// `analyze` set, per-node actual row counts are collected (EXPLAIN
  /// ANALYZE).
  Result<ExecResult> ExecuteCount(const PlanNode& plan,
                                  bool analyze = false) const;

  /// Materializes the full output of `plan` (tests and small queries only).
  Result<TupleSet> Materialize(const PlanNode& plan) const;

  const ExecOptions& options() const { return options_; }

 private:
  struct Ctx {
    Stopwatch watch;
    const ExecLimits* limits = nullptr;
    /// Shared cut-off flag: any morsel that trips the wall-clock or
    /// intermediate-size budget publishes the timeout here and every other
    /// loop unwinds at its next budget check.
    std::atomic<bool> timed_out{false};
    /// Non-null when EXPLAIN ANALYZE collection is requested. Written only
    /// between operators (never from morsel workers).
    std::unordered_map<uint64_t, double>* actual_rows = nullptr;

    bool TimedOut() const {
      return timed_out.load(std::memory_order_relaxed);
    }
  };

  Status ExecuteNode(const PlanNode& plan, Ctx& ctx, TupleSet* out) const;
  Status ExecuteScan(const PlanNode& plan, Ctx& ctx, TupleSet* out) const;
  Status ExecuteJoin(const PlanNode& plan, Ctx& ctx, TupleSet* out) const;
  Status CountNode(const PlanNode& plan, Ctx& ctx, uint64_t* count) const;

  /// Shared hash-join driver of ExecuteJoin and the count-only root:
  /// resolves the join edges, builds the join table (exec/join_hash) over
  /// `right`, and probes with `left` — materializing combined tuples into
  /// `out` when non-null (cap-enforced), streaming a match count into
  /// `*count` otherwise.
  Status HashJoinDriver(const PlanNode& plan, const TupleSet& left,
                        const TupleSet& right, Ctx& ctx, TupleSet* out,
                        uint64_t* count) const;

  /// Interned catalog id of `table` (position in Database::table_names()),
  /// or -1 for unknown tables.
  int TableId(const std::string& table) const;

  /// Runs `fn(m)` for every morsel m in [0, count): in order on the calling
  /// thread when serial (or a single morsel), otherwise fanned out over the
  /// morsel pool with a barrier. Results must not depend on morsel order.
  void ForEachMorsel(size_t count, const std::function<void(size_t)>& fn) const;

  /// Splits [0, total) probe input tuples into morsels and runs
  /// `morsel(lo, hi, dst, count)` for each — dst mode when `out` is non-null
  /// (per-morsel buffers concatenated in morsel order, so tuple order
  /// matches the serial run), count mode otherwise (per-morsel counts
  /// summed into *count_out).
  void RunProbeMorsels(
      size_t total, Ctx& ctx, TupleSet* out, uint64_t* count_out,
      const std::function<void(size_t, size_t, std::vector<uint32_t>*,
                               uint64_t*)>& morsel) const;

  const Database& db_;
  ExecLimits limits_;
  ExecOptions options_;
  std::unordered_map<std::string, int> table_ids_;
  /// Morsel workers; created only when options_.num_threads > 1.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace cardbench

#endif  // CARDBENCH_EXEC_EXECUTOR_H_
