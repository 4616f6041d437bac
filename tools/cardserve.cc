// cardserve: a small serving front-end over the EstimationService. Builds
// the STATS environment, trains (or loads) the requested estimators, then
// answers cardinality estimates for SQL queries read one-per-line from
// stdin. Load tests of the serving stack are bench_server_throughput's.
//
//   build/tools/cardserve --fast --estimators=PostgreSQL --threads=4 < q.sql

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/str_util.h"
#include "harness/bench_env.h"
#include "server/protocol.h"
#include "server/request_executor.h"
#include "service/estimation_service.h"

namespace cardbench {
namespace {

void PrintCacheStats(const EstimationService& service) {
  const EstimateCacheStats stats = service.cache_stats();
  std::printf("cache: %llu hits / %llu misses (%.1f%% hit rate), "
              "%llu evictions\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              100.0 * stats.HitRate(),
              static_cast<unsigned long long>(stats.evictions));
}

/// Serves SQL queries from stdin through the same RequestExecutor +
/// protocol structs the network server uses — the CLI is the in-process
/// transport of the cardserved request path, not a parallel
/// implementation.
void ServeStdin(RequestExecutor& executor,
                const std::vector<std::string>& estimators) {
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty() || line[0] == '#') continue;
    auto graph = executor.Compile(line);
    if (!graph.ok()) {
      std::printf("invalid query: %s\n", graph.status().ToString().c_str());
      continue;
    }
    for (const std::string& name : estimators) {
      ServerRequest request;
      request.estimator = name;
      request.sql = line;
      request.subplan_mask = (*graph)->full_mask();
      const ServerResponse response = executor.ExecuteSync(request);
      if (!response.ok()) {
        std::printf("%-12s error: %s\n", name.c_str(),
                    response.ToStatus().ToString().c_str());
        continue;
      }
      const auto card = response.cards.find(request.subplan_mask);
      std::printf("%-12s %14.1f rows   (%s)\n", name.c_str(),
                  card == response.cards.end() ? 0.0 : card->second,
                  FormatDuration(response.elapsed_us * 1e-6).c_str());
    }
  }
}

int Run(const BenchFlags& flags) {
  auto env_result = BenchEnv::Create(BenchDataset::kStats, flags);
  CARDBENCH_CHECK(env_result.ok(), "env creation failed: %s",
                  env_result.status().ToString().c_str());
  BenchEnv& env = **env_result;

  std::vector<std::string> estimators = flags.estimators;
  if (estimators.empty()) estimators = {"PostgreSQL"};

  ServiceOptions options;
  options.num_threads = flags.threads;
  options.queue_depth = flags.queue_depth;
  EstimationService service(options);
  for (std::string& name : estimators) {
    ModelStoreStats stats;
    auto est = env.MakeNamedEstimator(name, &stats);
    CARDBENCH_CHECK(est.ok(), "estimator %s failed: %s", name.c_str(),
                    est.status().ToString().c_str());
    if (env.model_store() != nullptr) {
      // Cold-start path: a warm --model-dir swaps training for artifact
      // loads, so the service is serving in seconds instead of minutes.
      std::printf("cardserve: %s %s in %.2fs (%s)\n", name.c_str(),
                  stats.loaded ? "loaded" : "trained",
                  stats.loaded ? stats.load_seconds : stats.build_seconds,
                  stats.path.c_str());
    }
    // Registry name and the model's self-reported name may differ; serving
    // lookups go by the registered (self-reported) one.
    name = (*est)->name();
    service.RegisterEstimator(std::move(*est));
  }
  std::printf("cardserve: %zu worker(s), queue depth %zu, %zu estimator(s) "
              "on %s (exec: %zu thread(s), batch %zu)\n",
              service.num_threads(), service.queue_capacity(),
              estimators.size(), env.dataset_name().c_str(),
              flags.exec_threads, flags.batch_size);

  RequestExecutor executor(service, env.db());
  ServeStdin(executor, estimators);
  PrintCacheStats(service);
  return 0;
}

}  // namespace
}  // namespace cardbench

int main(int argc, char** argv) {
  const cardbench::BenchFlags flags = cardbench::ParseBenchFlags(argc, argv);
  return cardbench::Run(flags);
}
