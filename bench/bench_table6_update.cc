// Reproduces paper Table 6: update performance of the data-driven
// methods. Models are trained on the 50% of STATS created before the
// timestamp cutoff; the remaining rows are inserted, each model performs
// its incremental update (timed), and the end-to-end workload time of the
// updated model is compared against the model trained on the full data.
// The shape to verify (O10): BayesCard updates orders of magnitude faster
// than SPN/FSPN/autoregressive models and loses no end-to-end quality.

#include <cstdio>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/str_util.h"
#include "datagen/stats_gen.h"
#include "datagen/streaming_feed.h"
#include "datagen/update_split.h"
#include "harness/bench_env.h"

int main(int argc, char** argv) {
  using namespace cardbench;
  BenchFlags flags = ParseBenchFlags(argc, argv);
  auto env_result = BenchEnv::Create(BenchDataset::kStats, flags);
  CARDBENCH_CHECK(env_result.ok(), "env creation failed: %s",
                  env_result.status().ToString().c_str());
  BenchEnv& env = **env_result;

  std::vector<std::string> estimators = flags.estimators;
  if (estimators.empty()) {
    estimators = {"NeuroCardE", "BayesCard", "DeepDB", "FLAT"};
  }

  std::printf("Table 6: update performance on STATS (scale=%.2f, 50%% "
              "timestamp split)\n\n", flags.scale);
  std::printf("%-12s %14s %18s %18s\n", "Method", "Update time",
              "Original E2E", "E2E after update");

  for (const auto& name : estimators) {
    // Original: model trained on the full data (as in Table 3).
    auto original = env.MakeNamedEstimator(name);
    if (!original.ok()) {
      std::printf("%-12s   skipped (%s)\n", name.c_str(),
                  original.status().ToString().c_str());
      continue;
    }
    const auto original_run = env.RunEstimator(**original);

    // Stale: fresh generation of the same data, split by creation time.
    StatsGenConfig config;
    config.scale = flags.scale;
    config.seed = flags.seed;
    auto full = GenerateStatsDatabase(config);
    TimeSplit split = SplitDatabaseByTime(*full, StatsTimestampColumn, 0.5);
    TrueCardService stale_cards(*split.stale);
    EstimatorConfig est_config;
    est_config.fast = flags.fast;
    auto stale = MakeEstimator(name, *split.stale, stale_cards, nullptr,
                               est_config);
    if (!stale.ok()) {
      std::printf("%-12s   skipped (%s)\n", name.c_str(),
                  stale.status().ToString().c_str());
      continue;
    }

    // Insert the post-cutoff rows as one streaming batch and update the
    // model with it (the timed step), the paper's bulk-update protocol.
    StreamingInsertFeed feed(*split.stale, std::move(split.insertions),
                             StatsTimestampColumn, 1);
    auto batch = feed.ApplyNext(*split.stale);
    CARDBENCH_CHECK(batch.ok(), "insertions failed: %s",
                    batch.status().ToString().c_str());
    Stopwatch watch;
    const Status update_status = (*stale)->Update(*batch);
    const double update_seconds = watch.ElapsedSeconds();
    if (update_status.code() == StatusCode::kUnsupported) {
      // No in-place path: what EstimationService::Refresh reports as
      // full_retrain_required.
      std::printf("%-12s   full retrain required (%s)\n", name.c_str(),
                  update_status.message().c_str());
      continue;
    }
    CARDBENCH_CHECK(update_status.ok(), "update failed: %s",
                    update_status.ToString().c_str());

    // The updated stale database now holds the same rows as env.db(), so
    // the env workload (and its exact cardinalities) apply unchanged.
    const auto updated_run = env.RunEstimator(**stale);

    std::printf("%-12s %14s %18s %18s\n", name.c_str(),
                FormatDuration(update_seconds).c_str(),
                FormatDuration(original_run.EndToEndSeconds()).c_str(),
                FormatDuration(updated_run.EndToEndSeconds()).c_str());
  }
  std::printf("\n(paper shape O10: BayesCard updates fastest and keeps its "
              "E2E time; SPN/FSPN drift; autoregressive slowest)\n");
  return 0;
}
