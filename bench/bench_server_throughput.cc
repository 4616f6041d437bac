// Serving throughput: replays the STATS-CEB workload through one
// EstimationService over both load-driver transports — in process
// (ServiceEstimateBackend submits the harness's compiled QueryGraphs to
// the service queue) and over real loopback sockets to the cardserved
// instance fronting that same service (SocketEstimateBackend: the wire
// protocol, the poll event loop, the graph LRU and the admission control
// all on the serving path) — and reports closed-loop throughput/latency
// of both at several concurrency levels, plus an open-loop overload point
// over loopback. The shapes to verify: the service's estimates equal the
// bits of serial single-mask EstimateCard calls, one-mask batches for a
// batched estimator (the thread-safety and batch-composition contracts in
// cardest/estimator.h are what make sharing one trained model legal),
// every closed-loop request completes with bounded tail latency (no
// rejections, no hangs), the overloaded server answers immediate
// structured rejections instead of hanging clients, and the /metrics
// endpoint serves parseable per-estimator quantiles. (Closed-loop
// throughput growth with concurrency depends on the host's core count —
// on a single-core box added clients only add scheduling overhead — so
// the sweep is reported but not asserted monotone.)
//
// Results go to stdout and to bench_server_throughput.json (collected by
// scripts/run_all_benches.sh).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/cpu_info.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/str_util.h"
#include "harness/bench_env.h"
#include "server/client.h"
#include "server/server.h"
#include "service/estimation_service.h"
#include "service/load_driver.h"

namespace cardbench {
namespace {

struct SweepRow {
  size_t concurrency = 0;
  const char* transport = "";
  LoadReport report;
};

struct OverloadRow {
  double offered_qps = 0.0;
  LoadReport report;
  double reject_wall_seconds = 0.0;  ///< wall time of the run (drops incl.)
};

struct EstimatorRun {
  std::string name;
  /// Workload queries whose served estimates differ from the serial ones.
  size_t mismatched = 0;
  std::vector<SweepRow> closed_loop;
  OverloadRow overload;
  LatencyHistogram::Snapshot server_latency;
};

Result<std::unique_ptr<CardinalityEstimator>> NamedEstimator(
    BenchEnv& env, const std::string& registry_name) {
  return env.MakeNamedEstimator(registry_name);
}

/// Counts the workload queries whose whole-query answer from `service`
/// differs from serial single-mask EstimateCard calls over every connected
/// sub-plan on `reference`, an equally trained instance of the served model
/// (training is deterministic). Equal estimates mean identical Q-Error and P-Error by
/// construction: both metrics are pure functions of them.
size_t CountServedMismatches(EstimationService& service,
                             const std::string& name,
                             const CardinalityEstimator& reference,
                             const std::vector<const QueryGraph*>& graphs) {
  size_t mismatched = 0;
  for (const QueryGraph* graph : graphs) {
    std::unordered_map<uint64_t, double> serial;
    for (uint64_t mask : graph->connected_subsets()) {
      serial[mask] = reference.EstimateCard(*graph, mask);
    }
    auto served = service.EstimateQuerySync(name, *graph);
    CARDBENCH_CHECK(served.ok(), "estimate failed: %s",
                    served.status().ToString().c_str());
    if (*served != serial) ++mismatched;
  }
  return mismatched;
}

LoadReport RunClosedLoop(EstimateBackend& backend, const std::string& name,
                         size_t concurrency, size_t replays) {
  LoadDriver driver(backend);
  LoadOptions load;
  load.estimator = name;
  load.concurrency = concurrency;
  load.replays = replays;
  auto report = driver.Run(load);
  CARDBENCH_CHECK(report.ok(), "closed-loop run failed: %s",
                  report.status().ToString().c_str());
  return std::move(*report);
}

int RunBench(const BenchFlags& flags) {
  auto env_result = BenchEnv::Create(BenchDataset::kStats, flags);
  CARDBENCH_CHECK(env_result.ok(), "env creation failed: %s",
                  env_result.status().ToString().c_str());
  BenchEnv& env = **env_result;

  std::vector<std::string> estimator_names = flags.estimators;
  if (estimator_names.empty()) estimator_names = {"PostgreSQL"};

  std::vector<const QueryGraph*> graphs;
  std::vector<std::string> sqls;
  for (const auto& ctx : env.query_contexts()) {
    graphs.push_back(ctx.graph.get());
    sqls.push_back(ctx.query->ToSql());
  }
  CARDBENCH_CHECK(!sqls.empty(), "empty workload");
  std::printf("\nworkload: %s, %zu queries, in process and over loopback "
              "TCP\n",
              env.dataset_name().c_str(), sqls.size());

  // The serving stack under test: service workers behind a bounded queue,
  // driven directly and through the cardserved event loop on an ephemeral
  // loopback port.
  ServiceOptions service_options;
  service_options.num_threads = std::max<size_t>(4, flags.threads);
  service_options.queue_depth = flags.queue_depth;
  EstimationService service(service_options);
  std::vector<std::string> serving_names;
  for (const std::string& registry_name : estimator_names) {
    auto est = NamedEstimator(env, registry_name);
    CARDBENCH_CHECK(est.ok(), "estimator %s failed: %s",
                    registry_name.c_str(), est.status().ToString().c_str());
    serving_names.push_back((*est)->name());
    service.RegisterEstimator(std::move(*est));
  }
  CardServer server(service, env.db());
  CARDBENCH_CHECK(server.Start().ok(), "server start failed");
  std::printf("cardserved on 127.0.0.1:%u, %zu worker(s), queue depth "
              "%zu\n",
              server.port(), service.num_threads(),
              service.queue_capacity());

  const std::vector<size_t> concurrency_levels = {1, 4, 16};
  const size_t closed_requests =
      std::max<size_t>(sqls.size(), flags.fast ? 300 : 1200);
  const size_t replays = std::max<size_t>(1, closed_requests / sqls.size());

  ServiceEstimateBackend inproc_backend(service, graphs);
  SocketEstimateBackend socket_backend("127.0.0.1", server.port(), sqls);
  const std::pair<const char*, EstimateBackend*> transports[] = {
      {"inproc", &inproc_backend}, {"socket", &socket_backend}};

  std::vector<EstimatorRun> runs;
  for (size_t e = 0; e < serving_names.size(); ++e) {
    EstimatorRun run;
    run.name = serving_names[e];

    // Identity check on the cold cache, so the served answers are computed
    // by the service's workers rather than recalled.
    auto reference = NamedEstimator(env, estimator_names[e]);
    CARDBENCH_CHECK(reference.ok(), "estimator %s failed: %s",
                    estimator_names[e].c_str(),
                    reference.status().ToString().c_str());
    run.mismatched =
        CountServedMismatches(service, run.name, **reference, graphs);
    std::printf("\n%s estimates vs serial: %s (%zu/%zu queries match "
                "exactly)\n",
                run.name.c_str(),
                run.mismatched == 0 ? "identical" : "MISMATCH",
                graphs.size() - run.mismatched, graphs.size());

    // Untimed warm-up pass over loopback: pays the server's graph compiles
    // (and any sub-plan cache misses left) once, so every measured point of
    // both transports sees the same hot-cache serving path.
    RunClosedLoop(socket_backend, run.name, 4, 1);

    std::printf("%s, closed loop (clients keep one request in flight)\n",
                run.name.c_str());
    std::printf("%-12s %-9s %10s %10s %10s %10s %9s %9s\n", "concurrency",
                "transport", "QPS", "p50", "p95", "p99", "rejected",
                "hit rate");
    for (size_t concurrency : concurrency_levels) {
      for (const auto& [transport, backend] : transports) {
        LoadReport report =
            RunClosedLoop(*backend, run.name, concurrency, replays);
        std::printf("%-12zu %-9s %10.1f %10s %10s %10s %9zu %8.1f%%\n",
                    concurrency, transport, report.QueriesPerSecond(),
                    FormatDuration(report.latency.p50).c_str(),
                    FormatDuration(report.latency.p95).c_str(),
                    FormatDuration(report.latency.p99).c_str(),
                    report.rejected, 100.0 * report.cache.HitRate());
        run.closed_loop.push_back(
            SweepRow{concurrency, transport, std::move(report)});
      }
    }
    runs.push_back(std::move(run));
  }

  // Overload: a deliberately tiny service (one worker, depth-1 queue)
  // behind its own server, hammered open-loop well past capacity — past
  // even the hot-cache serving rate, so the queue overflows in steady
  // state. The measurement is the shedding behavior itself: drops must be
  // immediate structured rejections, so the run's wall time stays near
  // the offered schedule instead of ballooning.
  ServiceOptions overload_options;
  overload_options.num_threads = 1;
  overload_options.queue_depth = 1;
  EstimationService overload_service(overload_options);
  for (const std::string& registry_name : estimator_names) {
    auto est = NamedEstimator(env, registry_name);
    CARDBENCH_CHECK(est.ok(), "estimator %s failed: %s",
                    registry_name.c_str(), est.status().ToString().c_str());
    overload_service.RegisterEstimator(std::move(*est));
  }
  CardServer overload_server(overload_service, env.db());
  CARDBENCH_CHECK(overload_server.Start().ok(),
                  "overload server start failed");

  std::printf("\nopen-loop overload (queue depth 1, 1 worker)\n");
  std::printf("%-24s %12s %10s %10s %10s %10s\n", "estimator",
              "offered QPS", "completed", "dropped", "achieved", "wall");
  // Every overload request is a distinct query (a unique predicate
  // constant ⇒ a unique graph fingerprint ⇒ a guaranteed sub-plan cache
  // miss), so the offered load measures estimator work rather than cache
  // lookups — the tiny service genuinely saturates and must shed.
  std::vector<std::string> overload_sqls;
  for (size_t i = 0, n = flags.fast ? 1000 : 2000; i < n; ++i) {
    overload_sqls.push_back(StrFormat(
        "SELECT COUNT(*) FROM users, posts, comments WHERE users.Id = "
        "posts.OwnerUserId AND posts.Id = comments.PostId AND "
        "comments.Score >= %zu;",
        i + 1));
  }

  for (size_t e = 0; e < serving_names.size(); ++e) {
    EstimatorRun& run = runs[e];
    double peak_qps = 0.0;
    for (const SweepRow& row : run.closed_loop) {
      if (std::string_view(row.transport) != "socket") continue;
      peak_qps = std::max(peak_qps, row.report.QueriesPerSecond());
    }
    const double offered = std::max(20000.0, peak_qps * 8.0);
    SocketEstimateBackend backend("127.0.0.1", overload_server.port(),
                                  overload_sqls);
    LoadDriver driver(backend);
    LoadOptions load;
    load.estimator = run.name;
    load.concurrency = 32;
    load.replays = 1;
    load.offered_qps = offered;
    Stopwatch wall;
    auto report = driver.Run(load);
    CARDBENCH_CHECK(report.ok(), "open-loop run failed: %s",
                    report.status().ToString().c_str());
    run.overload.offered_qps = offered;
    run.overload.reject_wall_seconds = wall.ElapsedSeconds();
    std::printf("%-24s %12.1f %10zu %10zu %10.1f %9.1fs\n",
                run.name.c_str(), offered, report->requests,
                report->dropped, report->QueriesPerSecond(),
                run.overload.reject_wall_seconds);
    run.overload.report = std::move(*report);
  }

  // Server-side latency quantiles per estimator, scraped from the metrics
  // plane of the closed-loop server (the histogram the /metrics endpoint
  // serves).
  for (auto& [name, snapshot] : server.metrics().LatencySnapshots()) {
    for (EstimatorRun& run : runs) {
      if (run.name == name) run.server_latency = snapshot;
    }
  }

  auto metrics_page = FetchServerMetrics("127.0.0.1", server.port());
  const bool metrics_ok =
      metrics_page.ok() &&
      metrics_page->find("cardserved_requests_total") != std::string::npos &&
      metrics_page->find("cardserved_latency_seconds") != std::string::npos;

  size_t total_dropped = 0;
  bool closed_loop_clean = true;
  bool identical = true;
  for (const EstimatorRun& run : runs) {
    total_dropped += run.overload.report.dropped;
    if (run.mismatched != 0) identical = false;
    for (const SweepRow& row : run.closed_loop) {
      // Every request completed (no rejections — the queue is sized for
      // the client count) with a bounded tail.
      if (row.report.rejected != 0 || row.report.dropped != 0 ||
          row.report.latency.p99 > 0.1) {
        closed_loop_clean = false;
      }
    }
  }
  std::printf("\nshape check: identical estimates to serial %s, closed "
              "loop completes with bounded tails %s, overload sheds load "
              "(%zu dropped) %s, /metrics parseable %s\n",
              identical ? "yes" : "NO", closed_loop_clean ? "yes" : "NO",
              total_dropped, total_dropped > 0 ? "yes" : "NO",
              metrics_ok ? "yes" : "NO");

  const char* json_path = "bench_server_throughput.json";
  if (std::FILE* out = std::fopen(json_path, "w")) {
    std::fprintf(out,
                 "{\n  \"bench\": \"bench_server_throughput\",\n  %s,\n"
                 "  \"dataset\": \"%s\",\n  \"scale\": %g,\n"
                 "  \"queries\": %zu,\n  \"workers\": %zu,\n"
                 "  \"queue_depth\": %zu,\n  \"estimators\": [\n",
                 CpuInfoJson().c_str(),
                 env.dataset_name().c_str(), flags.scale, sqls.size(),
                 service.num_threads(), service.queue_capacity());
    for (size_t e = 0; e < runs.size(); ++e) {
      const EstimatorRun& run = runs[e];
      std::fprintf(out,
                   "    {\"name\": \"%s\",\n"
                   "     \"identical_to_serial\": %s,\n",
                   run.name.c_str(), run.mismatched == 0 ? "true" : "false");
      std::fprintf(out, "     \"closed_loop\": [\n");
      for (size_t i = 0; i < run.closed_loop.size(); ++i) {
        const SweepRow& row = run.closed_loop[i];
        std::fprintf(
            out,
            "       {\"concurrency\": %zu, \"transport\": \"%s\", "
            "\"qps\": %.1f, "
            "\"p50_us\": %.1f, \"p95_us\": %.1f, \"p99_us\": %.1f, "
            "\"requests\": %zu, \"rejected\": %zu, "
            "\"cache_hit_rate\": %.4f}%s\n",
            row.concurrency, row.transport, row.report.QueriesPerSecond(),
            row.report.latency.p50 * 1e6, row.report.latency.p95 * 1e6,
            row.report.latency.p99 * 1e6, row.report.requests,
            row.report.rejected, row.report.cache.HitRate(),
            i + 1 < run.closed_loop.size() ? "," : "");
      }
      std::fprintf(out, "     ],\n");
      std::fprintf(
          out,
          "     \"open_loop\": {\"offered_qps\": %.1f, "
          "\"completed\": %zu, \"dropped\": %zu, "
          "\"achieved_qps\": %.1f, \"wall_seconds\": %.3f},\n",
          run.overload.offered_qps, run.overload.report.requests,
          run.overload.report.dropped,
          run.overload.report.QueriesPerSecond(),
          run.overload.reject_wall_seconds);
      std::fprintf(
          out,
          "     \"server_latency\": {\"count\": %llu, "
          "\"mean_us\": %.1f, \"p50_us\": %.1f, \"p99_us\": %.1f, "
          "\"p999_us\": %.1f}}%s\n",
          static_cast<unsigned long long>(run.server_latency.count),
          run.server_latency.MeanSeconds() * 1e6,
          run.server_latency.Quantile(0.5) * 1e6,
          run.server_latency.Quantile(0.99) * 1e6,
          run.server_latency.Quantile(0.999) * 1e6,
          e + 1 < runs.size() ? "," : "");
    }
    std::fprintf(out,
                 "  ],\n  \"metrics_endpoint_ok\": %s,\n"
                 "  \"total_dropped\": %zu\n}\n",
                 metrics_ok ? "true" : "false", total_dropped);
    std::fclose(out);
    std::printf("wrote %s\n", json_path);
  } else {
    std::fprintf(stderr, "cannot write %s\n", json_path);
  }

  overload_server.Stop();
  server.Stop();
  return 0;
}

}  // namespace
}  // namespace cardbench

int main(int argc, char** argv) {
  using namespace cardbench;
  const BenchFlags flags = ParseBenchFlags(argc, argv);
  std::printf("Server throughput: STATS-CEB replay through the "
              "estimation service, in process and through cardserved over "
              "loopback TCP (scale=%.2f%s)\n",
              flags.scale, flags.fast ? ", fast" : "");
  return RunBench(flags);
}
