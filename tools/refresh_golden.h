#ifndef CARDBENCH_TOOLS_REFRESH_GOLDEN_H_
#define CARDBENCH_TOOLS_REFRESH_GOLDEN_H_

// The refresh goldens (tests/golden/refresh_golden.txt): the bytes of every
// model the zoo refreshes in place, frozen so that an update path can change
// shape while each refreshed artifact stays byte-identical. The generator
// (tools/refresh_golden.cc) prints them and refresh_golden_test compares
// against them, both through this header, so the two share one line format:
//
//   update <estimator> <step> <status code>
//   section <estimator> <step> <section> <FNV-1a of its payload, %016llx>
//
// Every registry estimator is built on the older half of STATS
// (SplitDatabaseByTime at 0.5) and then refreshed in three steps. `delta1`
// and `delta2` are the two batches of a StreamingInsertFeed over the newer
// half, each carrying a refresh workload labeled on the grown data; `full`
// is one full-refresh batch. After a step that answers OK, every section of
// the estimator's artifact but `meta` (which embeds the training time) is
// hashed.

#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "cardest/registry.h"
#include "common/serde.h"
#include "common/status.h"
#include "common/str_util.h"
#include "datagen/stats_gen.h"
#include "datagen/streaming_feed.h"
#include "datagen/update_split.h"
#include "exec/true_card.h"
#include "workload/workload_gen.h"

namespace cardbench::golden {

/// STATS at the planner goldens' scale and seed.
inline constexpr double kRefreshScale = 0.05;
inline constexpr uint64_t kRefreshSeed = 2021;
/// Size of the training workload and of each batch's refresh workload.
inline constexpr size_t kRefreshQueries = 100;

/// Appends one `section` line per section of the CBMD `artifact` but
/// `meta`, in file order (frame layout in common/serde.h).
inline Status AppendSectionLines(const std::string& estimator,
                                 const std::string& step,
                                 std::string_view artifact,
                                 std::vector<std::string>* lines) {
  SectionReader header(artifact);
  CARDBENCH_RETURN_IF_ERROR(header.GetU32().status());  // magic
  CARDBENCH_RETURN_IF_ERROR(header.GetU32().status());  // format version
  CARDBENCH_RETURN_IF_ERROR(header.GetString().status());  // model tag
  CARDBENCH_ASSIGN_OR_RETURN(const uint32_t count, header.GetU32());
  artifact.remove_prefix(artifact.size() - header.remaining());
  for (uint32_t i = 0; i < count; ++i) {
    SectionReader entry(artifact);
    CARDBENCH_ASSIGN_OR_RETURN(const std::string name, entry.GetString());
    CARDBENCH_ASSIGN_OR_RETURN(const uint64_t size, entry.GetU64());
    CARDBENCH_RETURN_IF_ERROR(entry.GetU64().status());  // checksum
    artifact.remove_prefix(artifact.size() - entry.remaining());
    if (size > artifact.size()) {
      return Status::IOError(estimator + " artifact truncated in " + name);
    }
    if (name != "meta") {
      lines->push_back(StrFormat(
          "section %s %s %s %016llx", estimator.c_str(), step.c_str(),
          name.c_str(),
          static_cast<unsigned long long>(
              Fnv1aHash(artifact.substr(0, size)))));
    }
    artifact.remove_prefix(size);
  }
  return Status::OK();
}

/// Every golden line: the whole zoo per step, in registry order.
inline Result<std::vector<std::string>> RefreshLines() {
  StatsGenConfig config;
  config.scale = kRefreshScale;
  config.seed = kRefreshSeed;
  const std::unique_ptr<Database> full = GenerateStatsDatabase(config);
  TimeSplit split = SplitDatabaseByTime(*full, StatsTimestampColumn, 0.5);
  Database& db = *split.stale;
  TrueCardService cards(db);
  CARDBENCH_ASSIGN_OR_RETURN(
      const std::vector<TrainingQuery> training,
      GenerateTrainingQueries(db, cards, kRefreshQueries, kRefreshSeed));
  EstimatorConfig est_config;
  est_config.fast = true;
  std::vector<std::unique_ptr<CardinalityEstimator>> zoo;
  for (const std::string& name : AllEstimatorNames()) {
    CARDBENCH_ASSIGN_OR_RETURN(
        std::unique_ptr<CardinalityEstimator> estimator,
        MakeEstimator(name, db, cards, &training, est_config));
    zoo.push_back(std::move(estimator));
  }

  std::vector<std::string> lines;
  auto refresh = [&](const std::string& step,
                     const InsertionBatch& batch) -> Status {
    for (const auto& estimator : zoo) {
      const std::string name = estimator->name();
      const Status status = estimator->Update(batch);
      lines.push_back(StrFormat("update %s %s %s", name.c_str(), step.c_str(),
                                StatusCodeName(status.code())));
      if (!status.ok()) continue;
      std::ostringstream artifact;
      CARDBENCH_RETURN_IF_ERROR(estimator->Serialize(artifact));
      CARDBENCH_RETURN_IF_ERROR(
          AppendSectionLines(name, step, artifact.str(), &lines));
    }
    return Status::OK();
  };

  StreamingInsertFeed feed(db, std::move(split.insertions),
                           StatsTimestampColumn, 2);
  for (int step = 1; !feed.Done(); ++step) {
    CARDBENCH_ASSIGN_OR_RETURN(InsertionBatch batch, feed.ApplyNext(db));
    TrueCardService now(db);
    CARDBENCH_ASSIGN_OR_RETURN(
        const std::vector<TrainingQuery> workload,
        GenerateTrainingQueries(db, now, kRefreshQueries, kRefreshSeed));
    batch.refresh_training = &workload;
    CARDBENCH_RETURN_IF_ERROR(refresh(StrFormat("delta%d", step), batch));
  }
  CARDBENCH_RETURN_IF_ERROR(refresh("full", InsertionBatch{}));
  return lines;
}

}  // namespace cardbench::golden

#endif  // CARDBENCH_TOOLS_REFRESH_GOLDEN_H_
