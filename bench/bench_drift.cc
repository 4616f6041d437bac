// Drift benchmark for the online-refresh pipeline: models are trained on
// the 50% of STATS created before the timestamp cutoff, the remaining rows
// stream in as timestamp-ordered micro-batches, and the serving stack
// (EstimationService) answers the STATS-CEB workload under three refresh
// policies:
//
//   no_refresh    — the stale models keep serving, never updated;
//   incremental   — every micro-batch goes through EstimationService::Refresh
//                   (reservoir merge / histogram merge / warm-start
//                   boosting / warm-start NN and MSCN fine-tune epochs),
//                   models mutate in place;
//   full_retrain  — every micro-batch triggers a from-scratch retrain on
//                   the current data, hot-swapped in via HotSwapEstimator.
//
// After the last batch the streamed database holds the same rows as the
// full data, so the env workload's exact sub-plan cardinalities score all
// three policies. Per estimator and mode we report median/P99 sub-plan
// Q-Error, median P-Error, serving latency P50/P99 through the service,
// and the total refresh wall-clock. The shape to verify: incremental
// refresh stays within ~2x of the full-retrain median Q-Error at a >= 5x
// cheaper refresh cost, while no_refresh drifts. Results go to stdout and
// bench_drift.json (consumed by scripts/run_all_benches.sh and validated
// by scripts/check_bench_json.sh).

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cardest/insertion_batch.h"
#include "cardest/registry.h"
#include "common/cpu_info.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/str_util.h"
#include "datagen/stats_gen.h"
#include "datagen/streaming_feed.h"
#include "datagen/update_split.h"
#include "exec/true_card.h"
#include "harness/bench_env.h"
#include "metrics/metrics.h"
#include "optimizer/optimizer.h"
#include "service/estimation_service.h"

namespace cardbench {
namespace {

struct ModeResult {
  Percentiles qerror;
  Percentiles perror;
  Percentiles latency;  // seconds, over whole-query service requests
  double refresh_seconds = 0.0;
  uint64_t model_version = 0;
};

// Re-labels the first `count` training queries against `db`'s current
// contents (the refresh workload of the query-driven estimators: same query
// shapes, post-insert cardinalities). Queries the tight-limited service
// cannot answer are skipped.
std::vector<TrainingQuery> Relabel(const std::vector<TrainingQuery>& source,
                                   const Database& db, size_t count) {
  ExecLimits limits;
  limits.timeout_seconds = 10.0;
  limits.max_intermediate_tuples = 20000000;
  TrueCardService service(db, limits);
  std::vector<TrainingQuery> out;
  out.reserve(std::min(count, source.size()));
  for (size_t i = 0; i < source.size() && out.size() < count; ++i) {
    auto card = service.Card(source[i].query);
    if (!card.ok()) continue;
    out.push_back({source[i].query, *card});
  }
  return out;
}

// Scores one registered estimator through the serving stack: every workload
// query is answered as one whole-query service request (timed), sub-plan
// estimates are compared against the env's exact cardinalities, and the
// chosen plan is re-costed under truth for P-Error.
ModeResult Score(BenchEnv& env, EstimationService& service,
                 const std::string& name) {
  ModeResult result;
  std::vector<double> qerrors, perrors, latencies;
  const CardinalityEstimator* model = service.GetEstimator(name);
  CARDBENCH_CHECK(model != nullptr, "estimator %s not registered",
                  name.c_str());
  for (const auto& ctx : env.query_contexts()) {
    Stopwatch watch;
    auto cards = service.EstimateQuerySync(name, *ctx.graph);
    latencies.push_back(watch.ElapsedSeconds());
    CARDBENCH_CHECK(cards.ok(), "service estimation failed for %s: %s",
                    ctx.query->name.c_str(), cards.status().ToString().c_str());
    for (const auto& [mask, est] : *cards) {
      auto it = ctx.true_cards.find(mask);
      if (it != ctx.true_cards.end()) {
        qerrors.push_back(QError(est, it->second));
      }
    }
    auto plan = env.optimizer().Plan(*ctx.graph, *model);
    CARDBENCH_CHECK(plan.ok(), "planning failed for %s: %s",
                    ctx.query->name.c_str(), plan.status().ToString().c_str());
    const double cost_true =
        env.optimizer().RecostWithCards(*plan->plan, ctx.true_cards);
    perrors.push_back(ctx.true_plan_cost > 0
                          ? cost_true / ctx.true_plan_cost
                          : 1.0);
  }
  result.qerror = ComputePercentiles(std::move(qerrors));
  result.perror = ComputePercentiles(std::move(perrors));
  result.latency = ComputePercentiles(std::move(latencies));
  return result;
}

int Run(const BenchFlags& flags) {
  auto env_result = BenchEnv::Create(BenchDataset::kStats, flags);
  CARDBENCH_CHECK(env_result.ok(), "env creation failed: %s",
                  env_result.status().ToString().c_str());
  BenchEnv& env = **env_result;

  std::vector<std::string> estimators = flags.estimators;
  if (estimators.empty()) {
    estimators = {"UniSample", "MultiHist", "LW-XGB", "LW-NN", "MSCN"};
  }
  // Streaming cadence: enough micro-batches that the per-event economics
  // show (incremental refresh cost is ~constant in the batch count — it
  // tracks the total inserted rows — while the full-retrain policy pays a
  // from-scratch build per batch).
  const size_t num_batches = flags.fast ? 3 : 12;
  const size_t refresh_queries = flags.fast ? 96 : 384;

  std::printf("drift bench: STATS scale=%.2f, 50%% timestamp split, %zu "
              "micro-batches, %zu refresh queries\n\n",
              flags.scale, num_batches, refresh_queries);

  // Two identical generations of the data (same config + seed), each split
  // at the median creation timestamp. `stale` is never touched again — its
  // models serve the no_refresh mode. `streamed` receives the micro-batches
  // and backs both refresh policies.
  StatsGenConfig config;
  config.scale = flags.scale;
  config.seed = flags.seed;
  auto gen_stale = GenerateStatsDatabase(config);
  TimeSplit split_stale =
      SplitDatabaseByTime(*gen_stale, StatsTimestampColumn, 0.5);
  auto gen_streamed = GenerateStatsDatabase(config);
  TimeSplit split_streamed =
      SplitDatabaseByTime(*gen_streamed, StatsTimestampColumn, 0.5);
  Database& stale = *split_stale.stale;
  Database& streamed = *split_streamed.stale;

  // Training workload for the query-driven methods, labeled on the stale
  // half (what a production system would have trained on pre-drift).
  const std::vector<TrainingQuery> stale_training =
      Relabel(env.training(), stale, refresh_queries);
  TrueCardService stale_cards(stale);
  TrueCardService streamed_cards(streamed);
  EstimatorConfig est_config;
  est_config.fast = flags.fast;

  // One service per policy; mode B's models refresh in place, mode C's are
  // hot-swapped wholesale.
  ServiceOptions service_options;
  service_options.num_threads = std::max<size_t>(1, flags.threads);
  service_options.queue_depth = flags.queue_depth;
  EstimationService svc_stale(service_options);
  EstimationService svc_inc(service_options);
  EstimationService svc_full(service_options);

  std::vector<std::string> active;
  for (const auto& name : estimators) {
    auto for_stale = MakeEstimator(name, stale, stale_cards, &stale_training,
                                   est_config);
    auto for_inc = MakeEstimator(name, streamed, streamed_cards,
                                 &stale_training, est_config);
    auto for_full = MakeEstimator(name, streamed, streamed_cards,
                                  &stale_training, est_config);
    if (!for_stale.ok() || !for_inc.ok() || !for_full.ok()) {
      std::printf("%-12s skipped (%s)\n", name.c_str(),
                  for_stale.status().ToString().c_str());
      continue;
    }
    svc_stale.RegisterEstimator(std::move(*for_stale));
    svc_inc.RegisterEstimator(std::move(*for_inc));
    svc_full.RegisterEstimator(std::move(*for_full));
    active.push_back(name);
  }
  CARDBENCH_CHECK(!active.empty(), "no estimator could be built");

  // Stream the post-cutoff rows in and refresh under both policies. The
  // refresh timers cover model updates only; re-labeling the refresh
  // workload is shared pipeline work outside both.
  StreamingInsertFeed feed(streamed, std::move(split_streamed.insertions),
                           StatsTimestampColumn, num_batches);
  std::map<std::string, double> inc_seconds, full_seconds;
  std::map<std::string, uint64_t> inc_version, full_version;
  size_t streamed_rows = 0;
  while (!feed.Done()) {
    auto batch = feed.ApplyNext(streamed);
    CARDBENCH_CHECK(batch.ok(), "insertion batch failed: %s",
                    batch.status().ToString().c_str());
    streamed_rows += batch->total_inserted_rows();
    const std::vector<TrainingQuery> refresh_training =
        Relabel(env.training(), streamed, refresh_queries);
    batch->refresh_training = &refresh_training;

    RefreshReport report;
    const Status refresh = svc_inc.Refresh(*batch, &report);
    CARDBENCH_CHECK(refresh.ok(), "incremental refresh failed: %s",
                    refresh.ToString().c_str());
    for (const auto& entry : report.entries) {
      CARDBENCH_CHECK(!entry.full_retrain_required,
                      "%s fell off the incremental path", entry.name.c_str());
      inc_seconds[entry.name] += entry.seconds;
      inc_version[entry.name] = entry.model_version;
    }

    for (const auto& name : active) {
      Stopwatch watch;
      auto retrained = MakeEstimator(name, streamed, streamed_cards,
                                     &refresh_training, est_config);
      const double seconds = watch.ElapsedSeconds();
      CARDBENCH_CHECK(retrained.ok(), "retrain of %s failed: %s", name.c_str(),
                      retrained.status().ToString().c_str());
      full_seconds[name] += seconds;
      full_version[name] = batch->data_version;
      svc_full.HotSwapEstimator(std::move(*retrained), batch->data_version,
                                seconds);
    }
    std::printf("applied batch -> data_version %llu (+%zu rows)\n",
                static_cast<unsigned long long>(batch->data_version),
                batch->total_inserted_rows());
  }

  // The streamed database has caught up with the full data: the env
  // workload's exact cardinalities now score every mode.
  for (const auto& table_name : env.db().table_names()) {
    CARDBENCH_CHECK(streamed.TableOrDie(table_name).num_rows() ==
                        env.db().TableOrDie(table_name).num_rows(),
                    "streamed table %s did not catch up", table_name.c_str());
  }
  std::printf("streamed %zu rows total; scoring %zu estimators x 3 modes "
              "over %zu queries\n\n",
              streamed_rows, active.size(), env.query_contexts().size());

  struct EstimatorResult {
    std::string name;
    ModeResult no_refresh, incremental, full_retrain;
  };
  std::vector<EstimatorResult> results;
  for (const auto& name : active) {
    EstimatorResult r;
    r.name = name;
    r.no_refresh = Score(env, svc_stale, name);
    r.incremental = Score(env, svc_inc, name);
    r.incremental.refresh_seconds = inc_seconds[name];
    r.incremental.model_version = inc_version[name];
    r.full_retrain = Score(env, svc_full, name);
    r.full_retrain.refresh_seconds = full_seconds[name];
    r.full_retrain.model_version = full_version[name];
    results.push_back(std::move(r));
  }

  std::printf("%-12s %-13s %10s %10s %8s %10s %10s %12s\n", "Method", "Mode",
              "Q-50%", "Q-99%", "P-50%", "lat-P50", "lat-P99", "refresh");
  for (const auto& r : results) {
    const struct { const char* label; const ModeResult* mode; } rows[] = {
        {"no_refresh", &r.no_refresh},
        {"incremental", &r.incremental},
        {"full_retrain", &r.full_retrain},
    };
    for (const auto& row : rows) {
      std::printf("%-12s %-13s %10s %10s %8.3f %10s %10s %12s\n",
                  r.name.c_str(), row.label,
                  FormatCount(row.mode->qerror.p50).c_str(),
                  FormatCount(row.mode->qerror.p99).c_str(),
                  row.mode->perror.p50,
                  FormatDuration(row.mode->latency.p50).c_str(),
                  FormatDuration(row.mode->latency.p99).c_str(),
                  row.mode->refresh_seconds > 0
                      ? FormatDuration(row.mode->refresh_seconds).c_str()
                      : "-");
    }
    const double ratio = r.full_retrain.qerror.p50 > 0
                             ? r.incremental.qerror.p50 /
                                   r.full_retrain.qerror.p50
                             : 0.0;
    const double speedup = r.incremental.refresh_seconds > 0
                               ? r.full_retrain.refresh_seconds /
                                     r.incremental.refresh_seconds
                               : 0.0;
    std::printf("%-12s   -> incremental/full Q-50%% ratio %.2fx, refresh "
                "%.1fx cheaper (model v%llu)\n",
                r.name.c_str(), ratio, speedup,
                static_cast<unsigned long long>(r.incremental.model_version));
  }
  std::printf("\n(shape: incremental within ~2x of full-retrain median "
              "Q-Error at >= 5x cheaper refresh; no_refresh drifts)\n");

  const char* json_path = "bench_drift.json";
  if (std::FILE* out = std::fopen(json_path, "w")) {
    std::fprintf(out,
                 "{\n  \"bench\": \"bench_drift\",\n  %s,\n"
                 "  \"dataset\": \"%s\",\n  \"scale\": %g,\n"
                 "  \"batches\": %zu,\n  \"queries\": %zu,\n"
                 "  \"streamed_rows\": %zu,\n  \"estimators\": [\n",
                 CpuInfoJson().c_str(),
                 env.dataset_name().c_str(), flags.scale, num_batches,
                 env.query_contexts().size(), streamed_rows);
    auto mode_json = [out](const char* label, const ModeResult& m,
                           bool last) {
      std::fprintf(out,
                   "        \"%s\": {\"median_qerror\": %.6f, "
                   "\"p99_qerror\": %.6f, \"median_perror\": %.6f, "
                   "\"latency_p50_us\": %.3f, \"latency_p99_us\": %.3f, "
                   "\"refresh_seconds\": %.6f, \"model_version\": %llu}%s\n",
                   label, m.qerror.p50, m.qerror.p99, m.perror.p50,
                   m.latency.p50 * 1e6, m.latency.p99 * 1e6,
                   m.refresh_seconds,
                   static_cast<unsigned long long>(m.model_version),
                   last ? "" : ",");
    };
    for (size_t i = 0; i < results.size(); ++i) {
      const EstimatorResult& r = results[i];
      const double ratio = r.full_retrain.qerror.p50 > 0
                               ? r.incremental.qerror.p50 /
                                     r.full_retrain.qerror.p50
                               : 0.0;
      const double speedup = r.incremental.refresh_seconds > 0
                                 ? r.full_retrain.refresh_seconds /
                                       r.incremental.refresh_seconds
                                 : 0.0;
      std::fprintf(out,
                   "    {\"name\": \"%s\",\n"
                   "      \"incremental_vs_full_qerror_ratio\": %.4f,\n"
                   "      \"refresh_speedup\": %.2f,\n      \"modes\": {\n",
                   r.name.c_str(), ratio, speedup);
      mode_json("no_refresh", r.no_refresh, false);
      mode_json("incremental", r.incremental, false);
      mode_json("full_retrain", r.full_retrain, true);
      std::fprintf(out, "      }}%s\n",
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", json_path);
  } else {
    std::fprintf(stderr, "cannot write %s\n", json_path);
  }
  return 0;
}

}  // namespace
}  // namespace cardbench

int main(int argc, char** argv) {
  const cardbench::BenchFlags flags = cardbench::ParseBenchFlags(argc, argv);
  return cardbench::Run(flags);
}
