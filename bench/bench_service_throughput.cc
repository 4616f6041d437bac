// Serving-layer throughput: replays the STATS-CEB workload against the
// EstimationService at increasing worker counts and reports queries/second,
// tail latency and cache effectiveness. The shape to verify: near-linear
// scaling from 1 to 8 workers on a cold cache (>= 3x at 8), bit-identical
// estimates to the serial loop (the thread-safety contract in
// cardest/estimator.h is what makes sharing one trained model legal), and a
// hot cache absorbing a repeated replay entirely.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "common/str_util.h"
#include "harness/bench_env.h"
#include "metrics/metrics.h"
#include "service/estimation_service.h"
#include "service/load_driver.h"

namespace cardbench {
namespace {

/// Estimates of every connected sub-plan of every workload query, computed
/// serially by direct EstimateCard calls — the reference the service's
/// concurrent answers must match exactly.
std::vector<std::unordered_map<uint64_t, double>> SerialReference(
    const CardinalityEstimator& estimator, const BenchEnv& env) {
  std::vector<std::unordered_map<uint64_t, double>> reference;
  for (const auto& ctx : env.query_contexts()) {
    std::unordered_map<uint64_t, double> cards;
    for (uint64_t mask : ctx.graph->connected_subsets()) {
      cards[mask] = estimator.EstimateCard(*ctx.graph, mask);
    }
    reference.push_back(std::move(cards));
  }
  return reference;
}

/// Wraps an estimator with a fixed per-estimate latency — the shape of a
/// model served out of process (the learned methods' deployment mode: the
/// planner pays an RPC to an inference server per sub-plan). Workers
/// overlap the waits, so service throughput scales with pool size even on
/// a single core; this isolates the serving layer's concurrency from the
/// machine's.
class RemoteModelEstimator : public CardinalityEstimator {
 public:
  RemoteModelEstimator(std::unique_ptr<CardinalityEstimator> inner,
                       double latency_seconds)
      : CardinalityEstimator(inner->database()),
        inner_(std::move(inner)),
        latency_seconds_(latency_seconds) {}
  std::string name() const override { return "RemoteModel"; }
  double EstimateCard(const QueryGraph& graph, uint64_t mask) const override {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(latency_seconds_));
    return inner_->EstimateCard(graph, mask);
  }

 private:
  std::unique_ptr<CardinalityEstimator> inner_;
  double latency_seconds_;
};

/// One load sweep point: fresh service with `workers` threads and an
/// effectively disabled cache, `requests` total requests.
Result<LoadReport> SweepPoint(BenchEnv& env, const BenchFlags& flags,
                              const std::string& registry_name,
                              const std::string& serving_name,
                              const std::vector<const QueryGraph*>& graphs,
                              size_t workers, size_t requests,
                              double rpc_latency) {
  ServiceOptions options;
  options.num_threads = workers;
  options.queue_depth = flags.queue_depth;
  // The sweep measures worker parallelism, so the cache is sized to
  // nothing: every sub-plan estimate is real model work on every replay
  // (the cache's own effect is reported separately).
  options.cache_capacity = 1;
  options.cache_shards = 1;
  EstimationService service(options);
  CARDBENCH_ASSIGN_OR_RETURN(auto est, env.MakeNamedEstimator(registry_name));
  if (rpc_latency > 0.0) {
    service.RegisterEstimator(std::make_unique<RemoteModelEstimator>(
        std::move(est), rpc_latency));
  } else {
    service.RegisterEstimator(std::move(est));
  }

  LoadDriver driver(service, graphs);
  LoadOptions load;
  load.estimator = rpc_latency > 0.0 ? "RemoteModel" : serving_name;
  load.concurrency = workers * 2;  // keep every worker saturated
  load.replays = std::max<size_t>(1, requests / graphs.size());
  return driver.Run(load);
}

void RunBench(const BenchFlags& flags) {
  auto env_result = BenchEnv::Create(BenchDataset::kStats, flags);
  CARDBENCH_CHECK(env_result.ok(), "env creation failed: %s",
                  env_result.status().ToString().c_str());
  BenchEnv& env = **env_result;

  const std::string estimator_name =
      flags.estimators.empty() ? "PostgreSQL" : flags.estimators[0];

  std::vector<const QueryGraph*> graphs;
  for (const auto& ctx : env.query_contexts()) {
    graphs.push_back(ctx.graph.get());
  }
  std::printf("\nworkload: %s, %zu queries, estimator: %s\n",
              env.dataset_name().c_str(), graphs.size(),
              estimator_name.c_str());

  // Serial reference for the identity check, from its own instance (equally
  // trained instances answer identically — training is deterministic).
  auto reference_est = env.MakeNamedEstimator(estimator_name);
  CARDBENCH_CHECK(reference_est.ok(), "estimator %s failed: %s",
                  estimator_name.c_str(),
                  reference_est.status().ToString().c_str());
  const auto reference = SerialReference(**reference_est, env);
  // Serving lookups go by the model's self-reported name, which can differ
  // from the registry spelling.
  const std::string serving_name = (*reference_est)->name();

  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("hardware threads: %u\n", cores);

  const std::vector<size_t> worker_counts = {1, 2, 4, 8};
  constexpr size_t kTopWorkers = 8;

  // Sweep 1: in-process estimator, CPU-bound. Scaling here tracks the
  // machine's cores (flat on a single-core host by physics, not by design).
  std::printf("\nin-process %s (CPU-bound; scaling is capped by cores)\n",
              serving_name.c_str());
  std::printf("%-8s %10s %9s %10s %10s %10s %9s\n", "workers", "QPS",
              "speedup", "p50", "p95", "p99", "rejected");
  double cpu_baseline = 0.0;
  double cpu_top = 0.0;
  for (size_t workers : worker_counts) {
    auto report = SweepPoint(env, flags, estimator_name, serving_name,
                             graphs, workers, 1000, 0.0);
    CARDBENCH_CHECK(report.ok(), "load run failed: %s",
                    report.status().ToString().c_str());
    if (workers == 1) cpu_baseline = report->QueriesPerSecond();
    cpu_top = report->QueriesPerSecond();
    std::printf("%-8zu %10.1f %8.2fx %10s %10s %10s %9zu\n", workers,
                report->QueriesPerSecond(),
                cpu_baseline > 0 ? report->QueriesPerSecond() / cpu_baseline
                                 : 0.0,
                FormatDuration(report->latency.p50).c_str(),
                FormatDuration(report->latency.p95).c_str(),
                FormatDuration(report->latency.p99).c_str(),
                report->rejected);
  }

  // Sweep 2: the same workload against a remote-served model (fixed
  // per-estimate inference latency). Workers overlap the waits, so this
  // measures the serving layer's own concurrency on any machine.
  std::printf("\nremote-model %s + 100us/estimate RPC (latency-bound)\n",
              serving_name.c_str());
  std::printf("%-8s %10s %9s %10s %10s %10s %9s\n", "workers", "QPS",
              "speedup", "p50", "p95", "p99", "rejected");
  double rpc_baseline = 0.0;
  double rpc_top = 0.0;
  for (size_t workers : worker_counts) {
    auto report = SweepPoint(env, flags, estimator_name, serving_name,
                             graphs, workers, 200, 100e-6);
    CARDBENCH_CHECK(report.ok(), "load run failed: %s",
                    report.status().ToString().c_str());
    if (workers == 1) rpc_baseline = report->QueriesPerSecond();
    rpc_top = report->QueriesPerSecond();
    std::printf("%-8zu %10.1f %8.2fx %10s %10s %10s %9zu\n", workers,
                report->QueriesPerSecond(),
                rpc_baseline > 0 ? report->QueriesPerSecond() / rpc_baseline
                                 : 0.0,
                FormatDuration(report->latency.p50).c_str(),
                FormatDuration(report->latency.p95).c_str(),
                FormatDuration(report->latency.p99).c_str(),
                report->rejected);
  }

  // Cache-enabled service (default sizing) for the identity check and the
  // hot-cache replay.
  ServiceOptions cached_options;
  cached_options.num_threads = kTopWorkers;
  cached_options.queue_depth = flags.queue_depth;
  auto last_service = std::make_unique<EstimationService>(cached_options);
  {
    auto est = env.MakeNamedEstimator(estimator_name);
    CARDBENCH_CHECK(est.ok(), "estimator %s failed: %s",
                    estimator_name.c_str(), est.status().ToString().c_str());
    last_service->RegisterEstimator(std::move(*est));
  }

  // Identity check against the serial reference: same estimates bit-for-bit
  // means identical Q-Error and P-Error by construction (both metrics are
  // pure functions of the sub-plan estimates).
  size_t mismatched = 0;
  for (size_t i = 0; i < graphs.size(); ++i) {
    auto cards = last_service->EstimateQuerySync(serving_name, *graphs[i]);
    CARDBENCH_CHECK(cards.ok(), "estimate failed: %s",
                    cards.status().ToString().c_str());
    if (*cards != reference[i]) ++mismatched;
  }

  // Hot-cache replay: the identity check just served the workload, so a
  // repeat should be absorbed by the sub-plan cache.
  LoadDriver hot_driver(*last_service, graphs);
  LoadOptions hot;
  hot.estimator = serving_name;
  hot.concurrency = kTopWorkers * 2;
  hot.replays = 1;
  auto hot_report = hot_driver.Run(hot);
  CARDBENCH_CHECK(hot_report.ok(), "hot replay failed: %s",
                  hot_report.status().ToString().c_str());

  const double cpu_scaling = cpu_baseline > 0.0 ? cpu_top / cpu_baseline : 0.0;
  const double rpc_scaling = rpc_baseline > 0.0 ? rpc_top / rpc_baseline : 0.0;
  std::printf("\nestimates vs serial: %s (%zu/%zu queries match exactly)\n",
              mismatched == 0 ? "identical" : "MISMATCH",
              graphs.size() - mismatched, graphs.size());
  std::printf("hot-cache replay: %.1f QPS, hit rate %.1f%%\n",
              hot_report->QueriesPerSecond(),
              100.0 * hot_report->cache.HitRate());
  std::printf("\nshape check: 8-worker speedup %.2fx latency-bound "
              "(want >= 3x), %.2fx CPU-bound on %u core(s), "
              "identical estimates %s, warm hit rate > 0 %s\n",
              rpc_scaling, cpu_scaling, cores,
              mismatched == 0 ? "yes" : "NO",
              hot_report->cache.HitRate() > 0.0 ? "yes" : "NO");
}

}  // namespace
}  // namespace cardbench

int main(int argc, char** argv) {
  using namespace cardbench;
  const BenchFlags flags = ParseBenchFlags(argc, argv);
  std::printf("Service throughput: STATS-CEB replay through the "
              "estimation service (scale=%.2f%s)\n",
              flags.scale, flags.fast ? ", fast" : "");
  RunBench(flags);
  return 0;
}
