#ifndef CARDBENCH_TOOLS_FANOUT_GOLDEN_H_
#define CARDBENCH_TOOLS_FANOUT_GOLDEN_H_

// The fanout goldens (tests/golden/fanout_golden.txt): the bits of every
// sub-plan estimate of the fanout family (BayesCard, DeepDB, FLAT) over the
// full STATS-CEB and JOB-LIGHT workloads, before and after a model update,
// frozen so that inference can change shape while every estimate stays
// bit-identical. The generator (tools/fanout_golden.cc) prints them and
// fanout_golden_test compares against them, both through this header, so
// the two share one line format:
//
//   fanout <estimator> <query> <state> <FNV-1a, %016llx>
//
// The hash runs over the query's connected sub-plans in
// QueryGraph::connected_subsets() order, each contributing its mask and the
// bits of its estimate (8 bytes each, little-endian). Spaces in a query name
// become '_'.
//
// Each dataset is generated at scale 0.05 and its workload drawn on the full
// data with BenchEnv's options; the estimators are then trained on its older
// half (SplitDatabaseByTime at 0.5; IMDB, which has no timestamps, splits by
// row position). State `trained` is the freshly trained models; state
// `updated` follows the first batch of a two-batch StreamingInsertFeed over
// the newer half, folded in through Update(batch). A model whose derived
// inference state is not rebuilt on update therefore fails the second half.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cardest/registry.h"
#include "common/status.h"
#include "common/str_util.h"
#include "datagen/imdb_gen.h"
#include "datagen/stats_gen.h"
#include "datagen/streaming_feed.h"
#include "datagen/update_split.h"
#include "exec/true_card.h"
#include "query/query_graph.h"
#include "workload/workload_gen.h"

namespace cardbench::golden {

inline constexpr double kFanoutScale = 0.05;
/// BenchEnv's default seed (IMDB is generated at seed + 1, as there).
inline constexpr uint64_t kFanoutSeed = 2021;

inline const std::vector<std::string>& FanoutEstimatorNames() {
  static const std::vector<std::string> names = {"BayesCard", "DeepDB",
                                                 "FLAT"};
  return names;
}

/// Produces the estimates of `masks`, in order (the batched EstimateCards
/// by default; the test also replays the scalar overload through it).
using EstimatesFn = std::function<std::vector<double>(
    const CardinalityEstimator&, const QueryGraph&,
    const std::vector<uint64_t>&)>;

inline std::vector<double> BatchedEstimates(
    const CardinalityEstimator& estimator, const QueryGraph& graph,
    const std::vector<uint64_t>& masks) {
  return estimator.EstimateCards(graph, masks);
}

inline std::string FanoutLine(const std::string& estimator,
                              std::string query, const std::string& state,
                              const std::vector<uint64_t>& masks,
                              const std::vector<double>& cards) {
  std::replace(query.begin(), query.end(), ' ', '_');
  std::string bytes;
  bytes.reserve(masks.size() * 16);
  const auto put = [&bytes](uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      bytes.push_back(static_cast<char>((word >> (8 * i)) & 0xff));
    }
  };
  for (size_t i = 0; i < masks.size(); ++i) {
    put(masks[i]);
    put(std::bit_cast<uint64_t>(cards[i]));
  }
  return StrFormat("fanout %s %s %s %016llx", estimator.c_str(), query.c_str(),
                   state.c_str(),
                   static_cast<unsigned long long>(Fnv1aHash(bytes)));
}

/// The lines of one dataset: every estimator over every workload query,
/// trained, then updated.
inline Status AppendDatasetLines(std::unique_ptr<Database> full,
                                 const std::string& workload_name,
                                 WorkloadOptions options,
                                 const TimestampColumnFn& ts_column_of,
                                 const EstimatesFn& estimates,
                                 std::vector<std::string>* lines) {
  TrueCardService full_cards(*full);
  options.seed = kFanoutSeed;
  options.max_true_card *= kFanoutScale;
  CARDBENCH_ASSIGN_OR_RETURN(
      const Workload workload,
      GenerateWorkload(*full, full_cards, workload_name, options));

  TimeSplit split = SplitDatabaseByTime(*full, ts_column_of, 0.5);
  Database& db = *split.stale;
  TrueCardService cards(db);
  std::vector<std::unique_ptr<CardinalityEstimator>> zoo;
  for (const std::string& name : FanoutEstimatorNames()) {
    CARDBENCH_ASSIGN_OR_RETURN(std::unique_ptr<CardinalityEstimator> estimator,
                               MakeEstimator(name, db, cards, nullptr));
    zoo.push_back(std::move(estimator));
  }

  auto emit = [&](const std::string& state) {
    for (const auto& estimator : zoo) {
      for (const Query& query : workload.queries) {
        const QueryGraph graph(query, db);
        const std::vector<uint64_t>& masks = graph.connected_subsets();
        lines->push_back(FanoutLine(estimator->name(), query.name, state,
                                    masks,
                                    estimates(*estimator, graph, masks)));
      }
    }
  };
  emit("trained");
  StreamingInsertFeed feed(db, std::move(split.insertions), ts_column_of, 2);
  CARDBENCH_ASSIGN_OR_RETURN(const InsertionBatch batch, feed.ApplyNext(db));
  for (const auto& estimator : zoo) {
    CARDBENCH_RETURN_IF_ERROR(estimator->Update(batch));
  }
  emit("updated");
  return Status::OK();
}

/// Every golden line: STATS-CEB, then JOB-LIGHT.
inline Result<std::vector<std::string>> FanoutLines(
    const EstimatesFn& estimates = BatchedEstimates) {
  std::vector<std::string> lines;
  StatsGenConfig stats;
  stats.scale = kFanoutScale;
  stats.seed = kFanoutSeed;
  CARDBENCH_RETURN_IF_ERROR(AppendDatasetLines(
      GenerateStatsDatabase(stats), "STATS-CEB", WorkloadOptions::StatsCeb(),
      StatsTimestampColumn, estimates, &lines));
  ImdbGenConfig imdb;
  imdb.scale = kFanoutScale;
  imdb.seed = kFanoutSeed + 1;
  CARDBENCH_RETURN_IF_ERROR(AppendDatasetLines(
      GenerateImdbDatabase(imdb), "JOB-LIGHT", WorkloadOptions::JobLight(),
      [](const std::string&) { return std::string(); }, estimates, &lines));
  return lines;
}

}  // namespace cardbench::golden

#endif  // CARDBENCH_TOOLS_FANOUT_GOLDEN_H_
