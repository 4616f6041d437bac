#ifndef CARDBENCH_HARNESS_BENCH_ENV_H_
#define CARDBENCH_HARNESS_BENCH_ENV_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cardest/model_store.h"
#include "cardest/registry.h"
#include "common/status.h"
#include "exec/executor.h"
#include "exec/true_card.h"
#include "optimizer/optimizer.h"
#include "query/query_graph.h"
#include "storage/catalog.h"
#include "workload/workload_gen.h"

namespace cardbench {

/// Command-line knobs shared by every bench binary.
struct BenchFlags {
  /// Dataset scale factor (1.0 ~ 1/10 of the real STATS).
  double scale = 1.0;
  /// Shrinks learned models and the workload for quick smoke runs.
  bool fast = false;
  /// Cap on workload queries (0 = all).
  size_t max_queries = 0;
  /// Per-query execution wall-clock cap; timed-out queries are reported at
  /// the cap (the paper prints "> 25h" for such methods).
  double exec_timeout = 30.0;
  /// Directory for persisted true-cardinality caches.
  std::string cache_dir = "bench_cache";
  /// Directory for serialized estimator artifacts (empty = train every
  /// time). A warm directory turns model construction into a load.
  std::string model_dir;
  /// Estimators to run (empty = bench-specific default list).
  std::vector<std::string> estimators;
  /// Number of training queries for query-driven methods.
  size_t training_queries = 2000;
  /// Each plan is executed this many times and the minimum wall time is
  /// reported, de-noising the sub-second executions of simulator scale.
  size_t exec_repeats = 3;
  /// Worker threads for RunEstimator's per-query fan-out and the serving
  /// benches (1 = the paper's serial loop).
  size_t threads = 1;
  /// Bound of the estimation service's request queue (serving benches and
  /// cardserve; backpressure rejects beyond it).
  size_t queue_depth = 256;
  /// Intra-query morsel parallelism of the executor (ExecOptions::
  /// num_threads); orthogonal to `threads`, which fans out across queries.
  size_t exec_threads = 1;
  /// Vectorized batch size of the executor (ExecOptions::batch_size).
  size_t batch_size = 1024;
  uint64_t seed = 2021;

  ExecOptions exec_options() const {
    ExecOptions options;
    options.batch_size = batch_size;
    options.num_threads = exec_threads;
    return options;
  }
};

/// Parses --scale=, --fast, --max-queries=, --exec-timeout=, --cache-dir=,
/// --model-dir=, --estimators=a,b,c, --training-queries=, --exec-repeats=,
/// --threads=, --queue-depth=, --exec-threads=, --batch-size=, --seed=,
/// --verbose=.
/// Numeric values must be the whole argument after '=': unsigned integers
/// without a sign within each flag's range, and for --scale and
/// --exec-timeout a finite number above 0. Unknown flags and invalid values
/// print the error and exit with status 2.
BenchFlags ParseBenchFlags(int argc, char** argv);

enum class BenchDataset { kStats, kImdb };

/// Everything a bench needs for one dataset: the database, its workload,
/// memoized exact sub-plan cardinalities, a PostgreSQL-style optimizer and
/// the estimator factory. Construction prepares (and disk-caches) the true
/// cardinalities of every sub-plan of every workload query — the paper's
/// precomputation that makes P-Error "computable instantaneously" (§7.2).
class BenchEnv {
 public:
  static Result<std::unique_ptr<BenchEnv>> Create(BenchDataset dataset,
                                                  const BenchFlags& flags);
  ~BenchEnv();

  const std::string& dataset_name() const { return dataset_name_; }
  Database& db() { return *db_; }
  TrueCardService& truecard() { return *truecard_; }
  const Optimizer& optimizer() const { return *optimizer_; }
  const Workload& workload() const { return workload_; }

  /// Training workload for query-driven estimators (generated on first use,
  /// true counts from a tighter-limited service).
  const std::vector<TrainingQuery>& training();

  /// Per-workload-query precomputed context.
  struct QueryContext {
    const Query* query = nullptr;
    /// The query's compiled IR, built once here and shared by every
    /// planning, estimation and recosting pass over the workload.
    std::unique_ptr<QueryGraph> graph;
    size_t num_tables = 0;
    /// Exact cardinality of every connected sub-plan, bitmask-keyed.
    std::unordered_map<uint64_t, double> true_cards;
    /// PPC(P(C^T), C^T): cost of the true-cardinality plan under true
    /// cardinalities — the P-Error denominator.
    double true_plan_cost = 0.0;
  };
  const std::vector<QueryContext>& query_contexts() const { return contexts_; }

  /// Builds (and trains) an estimator by registry name. When the env has a
  /// model store (--model-dir), construction goes through it: artifacts are
  /// loaded when present and persisted after training. `stats` (optional)
  /// reports whether the model was trained or loaded, and how long it took.
  Result<std::unique_ptr<CardinalityEstimator>> MakeNamedEstimator(
      const std::string& name, ModelStoreStats* stats = nullptr);

  /// Non-null iff flags.model_dir was set.
  ModelStore* model_store() { return model_store_.get(); }

  /// Outcome of one query under one estimator.
  struct QueryRun {
    std::string query_name;
    size_t num_tables = 0;
    double true_card = 0.0;
    double exec_seconds = 0.0;
    double plan_seconds = 0.0;       // join enumeration + inference
    double inference_seconds = 0.0;  // inference portion
    size_t num_estimates = 0;
    bool timed_out = false;
    double p_error = 1.0;
    /// Q-Error of every estimated sub-plan.
    std::vector<double> subplan_qerrors;
  };

  /// Aggregated outcome over the workload.
  struct RunResult {
    std::string estimator;
    std::vector<QueryRun> queries;
    size_t timeouts = 0;

    double TotalExecSeconds() const;
    double TotalPlanSeconds() const;
    double TotalInferenceSeconds() const;
    double EndToEndSeconds() const {
      return TotalExecSeconds() + TotalPlanSeconds();
    }
    std::vector<double> AllQErrors() const;
    std::vector<double> AllPErrors() const;
  };

  /// Plans, executes and scores every workload query with `estimator`.
  /// Execution correctness is asserted: a finished plan must return the
  /// exact COUNT(*) regardless of the injected cardinalities.
  /// With flags.threads > 1 the queries fan out over a thread pool sharing
  /// `estimator` (which the thread-safety contract of
  /// CardinalityEstimator::EstimateCard makes safe); results are identical
  /// to the serial run — same queries, same order, same estimates — only
  /// wall-clock differs.
  RunResult RunEstimator(const CardinalityEstimator& estimator);

  const BenchFlags& flags() const { return flags_; }

 private:
  BenchEnv() = default;
  Status Prepare(BenchDataset dataset, const BenchFlags& flags);

  BenchFlags flags_;
  std::string dataset_name_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<ModelStore> model_store_;
  std::unique_ptr<TrueCardService> truecard_;
  std::unique_ptr<Optimizer> optimizer_;
  Workload workload_;
  std::vector<QueryContext> contexts_;
  std::vector<TrainingQuery> training_;
  bool training_ready_ = false;
  std::string cache_path_;
};

}  // namespace cardbench

#endif  // CARDBENCH_HARNESS_BENCH_ENV_H_
