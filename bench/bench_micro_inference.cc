// google-benchmark microbenchmarks for estimator inference latency (§6.1):
// one EstimateCard call on representative single-table and 3-way-join
// sub-plan queries for each always-available method. Complements the
// wall-clock planning times of Table 3/Figure 3 with controlled per-call
// numbers.
//
// Before the gbench micros run, a batch-size sweep measures the batched
// EstimateCards path on a 5-way join: per-sub-plan latency and sub-plans/sec
// at batch sizes 1, 8, 32, 128 and "all connected subsets" (the optimizer's
// one-call-per-query shape). The sweep's table goes to stdout and the raw
// rows to bench_micro_inference_batch.json — the speedup-vs-batch-1 column
// is the batched-GEMM payoff for the NN-based methods.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cardest/registry.h"
#include "common/cpu_info.h"
#include "datagen/stats_gen.h"
#include "exec/true_card.h"
#include "query/parser.h"
#include "query/query_graph.h"
#include "workload/workload_gen.h"

namespace cardbench {
namespace {

struct MicroEnv {
  std::unique_ptr<Database> db;
  std::unique_ptr<TrueCardService> truecard;
  Query single;
  Query join3;

  MicroEnv() {
    StatsGenConfig config;
    config.scale = 0.1;
    db = GenerateStatsDatabase(config);
    truecard = std::make_unique<TrueCardService>(*db);
    single = *ParseSql(
        "SELECT COUNT(*) FROM posts WHERE posts.Score >= 10 AND "
        "posts.PostTypeId = 1;");
    join3 = *ParseSql(
        "SELECT COUNT(*) FROM users, posts, comments WHERE users.Id = "
        "posts.OwnerUserId AND posts.Id = comments.PostId AND posts.Score >= "
        "5 AND users.Reputation >= 20;");
  }
};

MicroEnv& Env() {
  static MicroEnv* env = new MicroEnv();
  return *env;
}

std::unique_ptr<CardinalityEstimator>& Estimator(const std::string& name) {
  static std::map<std::string, std::unique_ptr<CardinalityEstimator>>* cache =
      new std::map<std::string, std::unique_ptr<CardinalityEstimator>>();
  auto it = cache->find(name);
  if (it == cache->end()) {
    EstimatorConfig config;
    config.fast = true;
    auto est = MakeEstimator(name, *Env().db, *Env().truecard, nullptr, config);
    if (!est.ok()) std::abort();
    it = cache->emplace(name, std::move(*est)).first;
  }
  return it->second;
}

void BM_Inference(benchmark::State& state, const std::string& name,
                  bool join) {
  auto& est = Estimator(name);
  // Compiled once, outside the timed loop: the loop times estimation only.
  const QueryGraph graph(join ? Env().join3 : Env().single, *Env().db);
  for (auto _ : state) {
    benchmark::DoNotOptimize(est->EstimateCard(graph, graph.full_mask()));
  }
}

#define CARDBENCH_MICRO(method)                                          \
  BENCHMARK_CAPTURE(BM_Inference, method##_single_table, #method, false); \
  BENCHMARK_CAPTURE(BM_Inference, method##_join3, #method, true)

CARDBENCH_MICRO(PostgreSQL);
CARDBENCH_MICRO(MultiHist);
CARDBENCH_MICRO(UniSample);
CARDBENCH_MICRO(WJSample);
CARDBENCH_MICRO(PessEst);
CARDBENCH_MICRO(BayesCard);
CARDBENCH_MICRO(DeepDB);
CARDBENCH_MICRO(FLAT);
CARDBENCH_MICRO(NeuroCardE);

#undef CARDBENCH_MICRO

// ---------------------------------------------------------------------------
// Batch-size sweep over EstimateCards.

struct SweepRow {
  std::string estimator;
  size_t batch_size = 0;
  bool all_subsets = false;
  double us_per_subplan = 0.0;
  double subplans_per_sec = 0.0;
  double speedup_vs_batch1 = 0.0;
};

/// Times `estimator` over the same round-robin stream of >= `target`
/// sub-plans at every batch size — only the chunking into EstimateCards
/// calls changes, so points are comparable — and returns microseconds per
/// sub-plan.
double TimeBatch(const CardinalityEstimator& estimator, const QueryGraph& graph,
                 size_t batch, size_t target) {
  const std::vector<uint64_t>& subsets = graph.connected_subsets();
  const size_t rounds = (target + subsets.size() - 1) / subsets.size();
  std::vector<uint64_t> stream;
  stream.reserve(rounds * subsets.size());
  for (size_t r = 0; r < rounds; ++r) {
    stream.insert(stream.end(), subsets.begin(), subsets.end());
  }
  benchmark::DoNotOptimize(estimator.EstimateCards(graph, subsets));  // warm-up
  const auto start = std::chrono::steady_clock::now();
  for (size_t pos = 0; pos < stream.size(); pos += batch) {
    const size_t n = std::min(batch, stream.size() - pos);
    benchmark::DoNotOptimize(estimator.EstimateCards(
        graph, std::span<const uint64_t>(stream.data() + pos, n)));
  }
  const auto stop = std::chrono::steady_clock::now();
  const double us =
      std::chrono::duration<double, std::micro>(stop - start).count();
  return us / static_cast<double>(stream.size());
}

void RunBatchSweep() {
  MicroEnv& env = Env();
  // A 5-way join: its connected-subset space is the batch the optimizer
  // hands to EstimateCards once per planned query.
  const Query query = *ParseSql(
      "SELECT COUNT(*) FROM users, posts, comments, votes, badges "
      "WHERE users.Id = posts.OwnerUserId AND posts.Id = comments.PostId "
      "AND posts.Id = votes.PostId AND users.Id = badges.UserId "
      "AND posts.Score >= 3 AND votes.VoteTypeId = 2;");
  const QueryGraph graph(query, *env.db);
  const size_t num_subsets = graph.connected_subsets().size();

  auto training = GenerateTrainingQueries(*env.db, *env.truecard, 100, 7);
  if (!training.ok()) {
    std::fprintf(stderr, "training workload failed: %s\n",
                 training.status().ToString().c_str());
    return;
  }
  EstimatorConfig config;
  config.fast = true;
  // PostgreSQL rides the default per-mask loop (the ~1x reference row);
  // MSCN / LW-NN batch their GEMMs, LW-XGB its GBDT walk, DeepDB its factor
  // cache. The AR family is excluded only for sweep runtime.
  const std::vector<std::string> names = {"PostgreSQL", "MSCN", "LW-NN",
                                          "LW-XGB", "DeepDB"};
  constexpr size_t kTargetSubplans = 256;

  std::vector<SweepRow> rows;
  std::printf("\nbatched EstimateCards sweep (5-way join, %zu connected "
              "subsets, >=%zu sub-plans per point)\n",
              num_subsets, kTargetSubplans);
  std::printf("%-12s %12s %16s %16s %12s\n", "estimator", "batch",
              "us/subplan", "subplans/sec", "vs batch=1");
  for (const std::string& name : names) {
    auto est = MakeEstimator(name, *env.db, *env.truecard, &*training, config);
    if (!est.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", name.c_str(),
                   est.status().ToString().c_str());
      continue;
    }
    const std::vector<size_t> batches = {1, 8, 32, 128, num_subsets};
    double batch1_us = 0.0;
    for (size_t b = 0; b < batches.size(); ++b) {
      SweepRow row;
      row.estimator = name;
      row.batch_size = batches[b];
      row.all_subsets = b + 1 == batches.size();
      row.us_per_subplan =
          TimeBatch(**est, graph, batches[b], kTargetSubplans);
      row.subplans_per_sec = 1e6 / row.us_per_subplan;
      if (batches[b] == 1) batch1_us = row.us_per_subplan;
      row.speedup_vs_batch1 =
          batch1_us > 0.0 ? batch1_us / row.us_per_subplan : 0.0;
      rows.push_back(row);
      char label[32];
      if (row.all_subsets) {
        std::snprintf(label, sizeof(label), "all(%zu)", row.batch_size);
      } else {
        std::snprintf(label, sizeof(label), "%zu", row.batch_size);
      }
      std::printf("%-12s %12s %16.2f %16.0f %11.2fx\n", name.c_str(), label,
                  row.us_per_subplan, row.subplans_per_sec,
                  row.speedup_vs_batch1);
    }
  }

  const char* json_path = "bench_micro_inference_batch.json";
  if (std::FILE* out = std::fopen(json_path, "w")) {
    std::fprintf(out, "{\n  \"bench\": \"bench_micro_inference_batch\",\n");
    std::fprintf(out, "  %s,\n", CpuInfoJson().c_str());
    std::fprintf(out, "  \"query\": \"5-way join (stats scale 0.1)\",\n");
    std::fprintf(out, "  \"num_connected_subsets\": %zu,\n", num_subsets);
    std::fprintf(out, "  \"target_subplans_per_point\": %zu,\n",
                 kTargetSubplans);
    std::fprintf(out, "  \"rows\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const SweepRow& row = rows[i];
      std::fprintf(out,
                   "    {\"estimator\": \"%s\", \"batch_size\": %zu, "
                   "\"all_subsets\": %s, \"us_per_subplan\": %.3f, "
                   "\"subplans_per_sec\": %.1f, \"speedup_vs_batch1\": "
                   "%.3f}%s\n",
                   row.estimator.c_str(), row.batch_size,
                   row.all_subsets ? "true" : "false", row.us_per_subplan,
                   row.subplans_per_sec, row.speedup_vs_batch1,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("sweep rows -> %s\n\n", json_path);
  }
}

}  // namespace
}  // namespace cardbench

int main(int argc, char** argv) {
  cardbench::RunBatchSweep();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
