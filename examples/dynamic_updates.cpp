// Demonstrates the paper's §6.3 dynamic-database scenario: a BayesCard
// model is trained on the rows created before the timestamp cutoff, new
// rows arrive, and the model incrementally updates (structure frozen,
// counts absorbed) in milliseconds while staying accurate — the behaviour
// that makes PGM-based data-driven estimators deployable in OLTP systems
// (O10).
//
// Build & run:  ./build/examples/dynamic_updates

#include <cstdio>

#include "cardest/fanout_estimator.h"
#include "common/stopwatch.h"
#include "common/str_util.h"
#include "datagen/stats_gen.h"
#include "datagen/streaming_feed.h"
#include "datagen/update_split.h"
#include "exec/true_card.h"
#include "query/parser.h"

int main() {
  using namespace cardbench;

  StatsGenConfig config;
  config.scale = 0.3;
  auto db = GenerateStatsDatabase(config);

  // Split the data at the median creation timestamp.
  TimeSplit split = SplitDatabaseByTime(*db, StatsTimestampColumn, 0.5);
  std::printf("stale rows: %zu, pending insertions: %zu (cutoff t=%lld)\n\n",
              split.stale_rows, split.inserted_rows,
              static_cast<long long>(split.cutoff));

  // Train on the stale half only.
  Stopwatch train_watch;
  FanoutModelEstimator model(*split.stale, FanoutModelKind::kBayesCard);
  std::printf("trained BayesCard on stale data in %s (model %s)\n",
              FormatDuration(train_watch.ElapsedSeconds()).c_str(),
              FormatBytes(model.ModelBytes()).c_str());

  auto query = ParseSql(
      "SELECT COUNT(*) FROM users, comments WHERE users.Id = "
      "comments.UserId AND users.Reputation >= 20;");
  TrueCardService stale_truth(*split.stale);
  std::printf("\nbefore insertions: estimate %.0f, exact %.0f\n",
              model.EstimateCard(*query), *stale_truth.Card(*query));

  // New data streams in as timestamp-ordered micro-batches; after each one
  // the model absorbs the delta through Update(batch) (BayesCard: structure
  // frozen, counts absorbed) instead of retraining.
  StreamingInsertFeed feed(*split.stale, std::move(split.insertions),
                           StatsTimestampColumn, 3);
  std::printf("\nstreaming %zu rows in %zu micro-batches:\n",
              feed.total_rows(), feed.num_batches());
  while (!feed.Done()) {
    auto batch = feed.ApplyNext(*split.stale);
    if (!batch.ok()) {
      std::fprintf(stderr, "insertion batch failed: %s\n",
                   batch.status().ToString().c_str());
      return 1;
    }
    TrueCardService truth_now(*split.stale);
    const double exact_now = *truth_now.Card(*query);
    const double stale_estimate = model.EstimateCard(*query);

    Stopwatch update_watch;
    if (!model.Update(*batch).ok()) {
      std::fprintf(stderr, "update failed\n");
      return 1;
    }
    std::printf(
        "  v%llu: +%zu rows; stale estimate %.0f -> refreshed %.0f "
        "(exact %.0f, refresh %s)\n",
        static_cast<unsigned long long>(batch->data_version),
        batch->total_inserted_rows(), stale_estimate,
        model.EstimateCard(*query), exact_now,
        FormatDuration(update_watch.ElapsedSeconds()).c_str());
  }
  return 0;
}
