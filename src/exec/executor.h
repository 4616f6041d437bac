#ifndef CARDBENCH_EXEC_EXECUTOR_H_
#define CARDBENCH_EXEC_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/status.h"
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

/// Contiguous input rows per scan morsel / input tuples per morsel of a
/// materialized pipeline source. A morsel is the unit of work dispatched to
/// one worker, which runs it through the whole pipeline; batches of
/// ExecOptions::batch_size are the vectorization unit inside a morsel (a
/// batch larger than a morsel widens the morsel to one batch).
inline constexpr size_t kScanMorselRows = size_t{1} << 14;
inline constexpr size_t kProbeMorselTuples = size_t{1} << 12;

/// Inner rows per filter call of an index nested loop with inner filters:
/// the posting runs of consecutive outer tuples are copied into a chunk of
/// this many rows (a longer run splits across chunks) and filtered in place
/// through the storage filter kernels.
inline constexpr size_t kIndexChunkRows = size_t{1} << 10;

/// Knobs of the vectorized, morsel-driven execution pipelines. No knob
/// affects results: with num_threads == 1 output is bit-identical to any
/// other configuration (morsel outputs are concatenated in morsel order, so
/// parallel runs produce identical tuple order too); batch_size only sets
/// the granularity of the chunks operators hand each other and of the
/// internal selection-vector / key-gather batches.
struct ExecOptions {
  /// Tuples per chunk and per vectorized batch (selection vectors, key
  /// gathers).
  size_t batch_size = 1024;
  /// Worker threads for intra-query morsel parallelism: every pipeline,
  /// including the one feeding a hash join's build side, is split into
  /// morsels; the hash table over that side is built serially. 1 = serial,
  /// no pool is created.
  size_t num_threads = 1;
};

/// Outcome of executing one COUNT(*) plan.
struct ExecResult {
  uint64_t count = 0;
  /// True if a limit was hit; `count` is then meaningless and
  /// `elapsed_seconds` is the time spent until cut-off.
  bool timed_out = false;
  /// With timed_out: the limit that cut the run off first was
  /// max_intermediate_tuples (some non-root operator's output exceeded it),
  /// not the wall clock. The cap's verdict depends only on the plan and the
  /// data; the wall clock's does not.
  bool cap_exceeded = false;
  double elapsed_seconds = 0.0;
  /// EXPLAIN ANALYZE data: actual output rows per plan node, keyed by the
  /// node's table_mask. Populated when requested via ExecuteCount's
  /// `analyze` argument, for every node whose output completed. The root's
  /// entry equals `count`.
  std::unordered_map<uint64_t, double> actual_rows;
};

/// Batch-vectorized, morsel-driven, push-based executor over the columnar
/// storage. Implements the three PostgreSQL join algorithms plus seq/index
/// scans, and evaluates the root count-only.
///
/// A plan runs as pipelines: a source (a scan or a merge join) streams its
/// output chunk by chunk through the chain of hash and index-nested-loop
/// probes above it, and the last one's output goes to a sink — the parent's
/// build side, the root's count, or Materialize's result. Only pipeline
/// breakers materialize: a hash join's build side, both inputs of a merge
/// join, and Materialize's result; a count-only root hash join with no
/// extra edges aggregates its build side into key counts instead. Tuples are
/// composites of base-table row ids (TupleSet); every intermediate tuple is
/// produced exactly once, whether or not it is stored. Under ExecuteCount a
/// join's tuples keep only the ids the joins above it read; Materialize's
/// keep every table's. A probe whose key equals the previous input tuple's
/// reuses that lookup.
///
/// Plan nodes name tables and columns by catalog id; the executor resolves
/// and checks every id once, before anything runs. Scans evaluate the
/// nodes' bound filters through the storage filter kernels into selection
/// vectors; joins gather keys in batches (Column::Gather). With
/// ExecOptions::num_threads > 1 a pipeline's source is split into morsels,
/// each run through the whole chain on one worker of an internal pool. The
/// ExecLimits budget is enforced inside every loop that scales with input
/// or output size through a shared cut-off flag; the cap counts each
/// non-root operator's output as it streams.
///
/// Thread-safety: ExecuteCount/Materialize are const and safe to call
/// concurrently from multiple threads (the harness's --threads fan-out);
/// concurrent calls share the morsel pool.
class Executor {
 public:
  explicit Executor(const Database& db, ExecLimits limits = ExecLimits(),
                    ExecOptions options = ExecOptions());

  /// Executes `plan` and returns the COUNT(*) of its output (or a timeout).
  /// Returns an error Status only for malformed plans (an id that names no
  /// table or column, an index nested loop over a join, ...), the same one
  /// Materialize returns, before executing anything; resource exhaustion is
  /// reported via ExecResult::timed_out. With `analyze` set, per-node actual
  /// row counts are collected (EXPLAIN ANALYZE).
  Result<ExecResult> ExecuteCount(const PlanNode& plan,
                                  bool analyze = false) const;

  /// Materializes the full output of `plan` (tests and small queries only).
  /// The result counts against max_intermediate_tuples like any
  /// intermediate.
  Result<TupleSet> Materialize(const PlanNode& plan) const;

  const ExecOptions& options() const { return options_; }

 private:
  /// One execution's pipelines (executor.cc).
  class Run;

  const Database& db_;
  ExecLimits limits_;
  ExecOptions options_;
  /// Morsel workers; created only when options_.num_threads > 1.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace cardbench

#endif  // CARDBENCH_EXEC_EXECUTOR_H_
