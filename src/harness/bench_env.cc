#include "harness/bench_env.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>
#include <type_traits>

#include "cardest/truecard_est.h"
#include "common/logging.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "datagen/imdb_gen.h"
#include "datagen/stats_gen.h"
#include "metrics/metrics.h"

namespace cardbench {

namespace {

/// Parses the value of the numeric flag `arg` ("--name=value", `prefix` =
/// "--name="). The whole value must spell one T — no whitespace, no
/// trailing characters, no sign for unsigned T — within [lo, hi]; a
/// floating-point value must also be finite and above 0. Anything else
/// prints the error and exits with status 2.
template <typename T>
T NumericFlag(const std::string& arg, const std::string& prefix,
              T lo = std::numeric_limits<T>::lowest(),
              T hi = std::numeric_limits<T>::max()) {
  const char* begin = arg.c_str() + prefix.size();
  const char* end = arg.c_str() + arg.size();
  T value{};
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  bool ok = ec == std::errc() && ptr == end && lo <= value && value <= hi;
  if constexpr (std::is_floating_point_v<T>) {
    ok = ok && std::isfinite(value) && value > 0;
  }
  if (!ok) {
    const std::string name = prefix.substr(0, prefix.size() - 1);
    if constexpr (std::is_floating_point_v<T>) {
      std::fprintf(stderr, "%s must be a finite number > 0, got %s\n",
                   name.c_str(), arg.c_str());
    } else {
      std::fprintf(stderr, "%s must be an integer in [%s, %s], got %s\n",
                   name.c_str(), std::to_string(lo).c_str(),
                   std::to_string(hi).c_str(), arg.c_str());
    }
    std::exit(2);
  }
  return value;
}

}  // namespace

BenchFlags ParseBenchFlags(int argc, char** argv) {
  // Bench tables are often tee'd into logs; line buffering keeps rows
  // visible as they are produced.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  BenchFlags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const std::string& prefix) -> std::string {
      return arg.substr(prefix.size());
    };
    if (arg == "--fast") {
      flags.fast = true;
    } else if (StartsWith(arg, "--scale=")) {
      flags.scale = NumericFlag<double>(arg, "--scale=");
    } else if (StartsWith(arg, "--max-queries=")) {
      flags.max_queries = NumericFlag<size_t>(arg, "--max-queries=");
    } else if (StartsWith(arg, "--exec-timeout=")) {
      flags.exec_timeout = NumericFlag<double>(arg, "--exec-timeout=");
    } else if (StartsWith(arg, "--cache-dir=")) {
      flags.cache_dir = value_of("--cache-dir=");
    } else if (StartsWith(arg, "--model-dir=")) {
      flags.model_dir = value_of("--model-dir=");
    } else if (StartsWith(arg, "--estimators=")) {
      flags.estimators = Split(value_of("--estimators="), ',');
    } else if (StartsWith(arg, "--training-queries=")) {
      flags.training_queries =
          NumericFlag<size_t>(arg, "--training-queries=");
    } else if (StartsWith(arg, "--exec-repeats=")) {
      flags.exec_repeats = NumericFlag<size_t>(arg, "--exec-repeats=", 1);
    } else if (StartsWith(arg, "--threads=")) {
      flags.threads = NumericFlag<size_t>(arg, "--threads=", 1, 1024);
    } else if (StartsWith(arg, "--queue-depth=")) {
      flags.queue_depth = NumericFlag<size_t>(arg, "--queue-depth=", 1);
    } else if (StartsWith(arg, "--exec-threads=")) {
      flags.exec_threads =
          NumericFlag<size_t>(arg, "--exec-threads=", 1, 1024);
    } else if (StartsWith(arg, "--batch-size=")) {
      flags.batch_size =
          NumericFlag<size_t>(arg, "--batch-size=", 1, size_t{1} << 20);
    } else if (StartsWith(arg, "--seed=")) {
      flags.seed = NumericFlag<uint64_t>(arg, "--seed=");
    } else if (StartsWith(arg, "--verbose=")) {
      LogLevel() = NumericFlag<int>(arg, "--verbose=", 0, 2);
    } else {
      std::fprintf(stderr,
                   "unknown flag %s\nflags: --fast --scale=F --max-queries=N "
                   "--exec-timeout=S --exec-repeats=N --cache-dir=D "
                   "--model-dir=D --estimators=a,b --training-queries=N "
                   "--threads=N --queue-depth=N --exec-threads=N "
                   "--batch-size=N --seed=N --verbose=L\n",
                   arg.c_str());
      std::exit(2);
    }
  }
  if (flags.fast) {
    if (flags.scale == 1.0) flags.scale = 0.1;
    if (flags.max_queries == 0) flags.max_queries = 25;
    flags.training_queries = std::min<size_t>(flags.training_queries, 400);
  }
  return flags;
}

Result<std::unique_ptr<BenchEnv>> BenchEnv::Create(BenchDataset dataset,
                                                   const BenchFlags& flags) {
  std::unique_ptr<BenchEnv> env(new BenchEnv());
  CARDBENCH_RETURN_IF_ERROR(env->Prepare(dataset, flags));
  return env;
}

BenchEnv::~BenchEnv() {
  if (truecard_ != nullptr && !cache_path_.empty()) {
    (void)truecard_->SaveCache(cache_path_);
  }
}

Status BenchEnv::Prepare(BenchDataset dataset, const BenchFlags& flags) {
  flags_ = flags;
  if (dataset == BenchDataset::kStats) {
    dataset_name_ = "STATS";
    StatsGenConfig config;
    config.scale = flags.scale;
    config.seed = flags.seed;
    db_ = GenerateStatsDatabase(config);
  } else {
    dataset_name_ = "IMDB";
    ImdbGenConfig config;
    config.scale = flags.scale;
    config.seed = flags.seed + 1;
    db_ = GenerateImdbDatabase(config);
  }
  if (!flags.model_dir.empty()) {
    model_store_ = std::make_unique<ModelStore>(flags.model_dir);
  }
  truecard_ = std::make_unique<TrueCardService>(
      *db_, TrueCardService::DefaultLimits(), flags.exec_options());
  optimizer_ = std::make_unique<Optimizer>(*db_);

  // Pre-build every key-column index so no estimator's first execution
  // pays lazy index construction inside its timed run.
  for (const auto& name : db_->table_names()) {
    const Table& table = db_->TableOrDie(name);
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (table.column(c).kind() == ColumnKind::kKey) {
        (void)table.GetIndex(c);
      }
    }
  }

  std::error_code ec;
  std::filesystem::create_directories(flags.cache_dir, ec);
  // The version component guards against silently reusing cardinalities
  // cached by an older data generator — bump when datagen output changes.
  constexpr int kDataGenVersion = 2;
  cache_path_ = flags.cache_dir + "/" + ToLower(dataset_name_) + "_s" +
                StrFormat("%g", flags.scale) + "_seed" +
                std::to_string(flags.seed) + "_v" +
                std::to_string(kDataGenVersion) + ".tsv";
  if (std::filesystem::exists(cache_path_)) {
    // A cache that fails to load (a malformed line) is only lost time: log
    // it, recompute, and overwrite it below — the way ModelStore treats a
    // corrupt model artifact.
    const Status loaded = truecard_->LoadCache(cache_path_);
    if (loaded.ok()) {
      CARDBENCH_LOG("loaded %zu cached true cardinalities from %s",
                    truecard_->cache_size(), cache_path_.c_str());
    } else {
      CARDBENCH_LOG("ignoring true-cardinality cache (%s); recomputing",
                    loaded.ToString().c_str());
    }
  }

  // Workload generation (STATS-CEB or JOB-LIGHT shape).
  WorkloadOptions options = dataset == BenchDataset::kStats
                                ? WorkloadOptions::StatsCeb()
                                : WorkloadOptions::JobLight();
  options.seed = flags.seed;
  // Scale the acceptable cardinality ceiling with the data scale so small
  // smoke runs stay fast.
  options.max_true_card *= std::max(flags.scale, 0.01);
  if (flags.fast) {
    options.num_queries = std::min<size_t>(options.num_queries, 30);
    options.num_templates = std::min<size_t>(options.num_templates, 15);
  }
  const std::string workload_name =
      dataset == BenchDataset::kStats ? "STATS-CEB" : "JOB-LIGHT";
  CARDBENCH_ASSIGN_OR_RETURN(
      workload_, GenerateWorkload(*db_, *truecard_, workload_name, options));
  if (flags.max_queries > 0 && workload_.queries.size() > flags.max_queries) {
    workload_.queries.resize(flags.max_queries);
  }

  // Per-query contexts: all sub-plan true cards + the true-plan cost.
  TrueCardEstimator oracle(*truecard_);
  contexts_.reserve(workload_.queries.size());
  for (const auto& query : workload_.queries) {
    QueryContext ctx;
    ctx.query = &query;
    ctx.graph = std::make_unique<QueryGraph>(query, *db_);
    ctx.num_tables = query.tables.size();
    CARDBENCH_ASSIGN_OR_RETURN(ctx.true_cards,
                               truecard_->AllSubplanCards(*ctx.graph));
    CARDBENCH_ASSIGN_OR_RETURN(PlanResult true_plan,
                               optimizer_->Plan(*ctx.graph, oracle));
    ctx.true_plan_cost =
        optimizer_->RecostWithCards(*true_plan.plan, ctx.true_cards);
    contexts_.push_back(std::move(ctx));
  }
  CARDBENCH_RETURN_IF_ERROR(truecard_->SaveCache(cache_path_));
  CARDBENCH_LOG("%s env ready: %zu queries, %zu cached cardinalities",
                dataset_name_.c_str(), workload_.queries.size(),
                truecard_->cache_size());
  return Status::OK();
}

const std::vector<TrainingQuery>& BenchEnv::training() {
  if (!training_ready_) {
    // A tighter-limited service keeps pathological training candidates from
    // stalling generation; its results still land in the shared cache file.
    ExecLimits limits;
    limits.timeout_seconds = 10.0;
    limits.max_intermediate_tuples = 20000000;
    TrueCardService service(*db_, limits, flags_.exec_options());
    (void)service.LoadCache(cache_path_);
    auto result = GenerateTrainingQueries(*db_, service,
                                          flags_.training_queries,
                                          flags_.seed + 7);
    CARDBENCH_CHECK(result.ok(), "training workload generation failed: %s",
                    result.status().ToString().c_str());
    training_ = std::move(*result);
    (void)service.SaveCache(cache_path_);
    training_ready_ = true;
    CARDBENCH_LOG("generated %zu training queries", training_.size());
  }
  return training_;
}

Result<std::unique_ptr<CardinalityEstimator>> BenchEnv::MakeNamedEstimator(
    const std::string& name, ModelStoreStats* stats) {
  EstimatorConfig config;
  config.fast = flags_.fast;
  const std::vector<TrainingQuery>* training_ptr =
      EstimatorNeedsTraining(name) ? &training() : nullptr;
  return MakeEstimator(name, *db_, *truecard_, training_ptr, config,
                       model_store_.get(), stats);
}

double BenchEnv::RunResult::TotalExecSeconds() const {
  double total = 0;
  for (const auto& q : queries) total += q.exec_seconds;
  return total;
}

double BenchEnv::RunResult::TotalPlanSeconds() const {
  double total = 0;
  for (const auto& q : queries) total += q.plan_seconds;
  return total;
}

double BenchEnv::RunResult::TotalInferenceSeconds() const {
  double total = 0;
  for (const auto& q : queries) total += q.inference_seconds;
  return total;
}

std::vector<double> BenchEnv::RunResult::AllQErrors() const {
  std::vector<double> out;
  for (const auto& q : queries) {
    out.insert(out.end(), q.subplan_qerrors.begin(), q.subplan_qerrors.end());
  }
  return out;
}

std::vector<double> BenchEnv::RunResult::AllPErrors() const {
  std::vector<double> out;
  out.reserve(queries.size());
  for (const auto& q : queries) out.push_back(q.p_error);
  return out;
}

BenchEnv::RunResult BenchEnv::RunEstimator(const CardinalityEstimator& estimator) {
  RunResult result;
  result.estimator = estimator.name();

  ExecLimits limits;
  limits.timeout_seconds = flags_.exec_timeout;
  Executor executor(*db_, limits, flags_.exec_options());

  // One slot per query, written by index: the parallel fan-out produces the
  // same vector, in the same order, as the serial loop.
  result.queries.resize(contexts_.size());

  auto run_one = [&](size_t i) {
    const QueryContext& ctx = contexts_[i];
    const Query& query = *ctx.query;
    QueryRun run;
    run.query_name = query.name;
    run.num_tables = ctx.num_tables;
    run.true_card = ctx.true_cards.at(query.FullMask());

    auto plan_result = optimizer_->Plan(*ctx.graph, estimator);
    CARDBENCH_CHECK(plan_result.ok(), "planning failed for %s: %s",
                    query.name.c_str(),
                    plan_result.status().ToString().c_str());
    run.plan_seconds = plan_result->planning_seconds;
    run.inference_seconds = plan_result->estimation_seconds;
    run.num_estimates = plan_result->num_estimates;

    // P-Error: re-cost the chosen plan under true cardinalities.
    const double plan_cost_true =
        optimizer_->RecostWithCards(*plan_result->plan, ctx.true_cards);
    run.p_error =
        ctx.true_plan_cost > 0 ? plan_cost_true / ctx.true_plan_cost : 1.0;

    // Sub-plan Q-Errors.
    for (const auto& [mask, est_card] : plan_result->injected_cards) {
      auto it = ctx.true_cards.find(mask);
      if (it != ctx.true_cards.end()) {
        run.subplan_qerrors.push_back(QError(est_card, it->second));
      }
    }

    // Execute the chosen plan for the end-to-end time; repeat and take the
    // minimum to suppress scheduler noise on sub-second runs.
    const size_t repeats = std::max<size_t>(1, flags_.exec_repeats);
    double best_seconds = -1.0;
    bool timed_out = false;
    for (size_t r = 0; r < repeats; ++r) {
      auto exec = executor.ExecuteCount(*plan_result->plan);
      CARDBENCH_CHECK(exec.ok(), "execution failed for %s: %s",
                      query.name.c_str(), exec.status().ToString().c_str());
      if (exec->timed_out) {
        timed_out = true;
        best_seconds = flags_.exec_timeout;  // reported at the cap
        break;
      }
      CARDBENCH_CHECK(
          static_cast<double>(exec->count) == run.true_card,
          "plan for %s returned %llu, expected %.0f — executor bug",
          query.name.c_str(), static_cast<unsigned long long>(exec->count),
          run.true_card);
      if (best_seconds < 0 || exec->elapsed_seconds < best_seconds) {
        best_seconds = exec->elapsed_seconds;
      }
    }
    run.exec_seconds = best_seconds;
    run.timed_out = timed_out;
    result.queries[i] = std::move(run);
  };

  if (flags_.threads <= 1) {
    for (size_t i = 0; i < contexts_.size(); ++i) run_one(i);
  } else {
    // Fan the per-query work over a pool. Safe because the estimator,
    // optimizer, executor and true-card structures are shared read-only
    // behind the EstimateCard thread-safety contract and internal locks;
    // per-query wall-clock timings become noisier under contention, which
    // is the tradeoff the flag opts into (aggregate checks stay exact).
    ThreadPool pool(flags_.threads);
    ParallelFor(pool, contexts_.size(), run_one);
  }
  for (const auto& run : result.queries) {
    if (run.timed_out) ++result.timeouts;
  }
  return result;
}

}  // namespace cardbench
