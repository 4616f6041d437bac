// cardserved: the network-facing estimation server. Builds the STATS
// environment, trains (or loads) the requested estimators, then serves the
// wire protocol of src/server/protocol.h over TCP until SIGINT/SIGTERM,
// answering `GET /metrics` probes on the same port.
//
//   build/tools/cardserved --fast --estimators=PostgreSQL --port=9747
//   curl -s http://127.0.0.1:9747/metrics
//   kill -TERM <pid>   # graceful drain, then exit
//
// Server-specific flags (--port=, --host=, --snapshot=, --snapshot-period=,
// --drain-timeout=) are peeled off before the shared bench flags; 0 (the
// default port) binds an ephemeral port and prints it.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/str_util.h"
#include "harness/bench_env.h"
#include "server/server.h"
#include "service/estimation_service.h"

namespace cardbench {
namespace {

CardServer* g_server = nullptr;

void HandleSignal(int /*signo*/) {
  // Async-signal-safe by design: one atomic store + one write(2).
  if (g_server != nullptr) g_server->NotifyShutdown();
}

struct ServedFlags {
  ServerOptions server;
  std::vector<char*> passthrough;  // flags left for ParseBenchFlags
};

ServedFlags SplitFlags(int argc, char** argv) {
  ServedFlags flags;
  flags.passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&arg](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (StartsWith(arg, "--port=")) {
      flags.server.port = NumericFlag<uint16_t>(arg, "--port=", 0, 65535);
    } else if (const char* v = value_of("--host=")) {
      flags.server.host = v;
    } else if (const char* v = value_of("--snapshot=")) {
      flags.server.snapshot_path = v;
      if (flags.server.snapshot_period_seconds <= 0.0) {
        flags.server.snapshot_period_seconds = 5.0;
      }
    } else if (StartsWith(arg, "--snapshot-period=")) {
      flags.server.snapshot_period_seconds =
          NumericFlag<double>(arg, "--snapshot-period=", 0.0, 86400.0);
    } else if (StartsWith(arg, "--drain-timeout=")) {
      flags.server.drain_timeout_seconds =
          NumericFlag<double>(arg, "--drain-timeout=", 0.0);
    } else {
      flags.passthrough.push_back(argv[i]);
    }
  }
  return flags;
}

int Run(int argc, char** argv) {
  ServedFlags served = SplitFlags(argc, argv);
  const BenchFlags flags = ParseBenchFlags(
      static_cast<int>(served.passthrough.size()), served.passthrough.data());

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
    name = (*est)->name();
    service.RegisterEstimator(std::move(*est));
  }

  CardServer server(service, env.db(), served.server);
  if (Status started = server.Start(); !started.ok()) {
    std::fprintf(stderr, "cardserved: start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  g_server = &server;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  std::string names;
  for (const std::string& name : estimators) {
    if (!names.empty()) names += ",";
    names += name;
  }
  // The smoke script scrapes this exact line for the resolved port.
  std::printf("cardserved: listening on %s:%u (%zu worker(s), queue depth "
              "%zu, estimators %s)\n",
              served.server.host.c_str(), server.port(),
              service.num_threads(), service.queue_capacity(),
              names.c_str());
  std::fflush(stdout);

  server.Wait();
  g_server = nullptr;

  const ServerCounters& counters = server.metrics().counters();
  std::printf("cardserved: served %llu request(s) (%llu completed, %llu "
              "rejected, %llu deadline, %llu failed), %llu HTTP probe(s); "
              "%zu in flight at exit\n",
              static_cast<unsigned long long>(counters.requests_received.load()),
              static_cast<unsigned long long>(counters.completed.load()),
              static_cast<unsigned long long>(counters.rejected.load()),
              static_cast<unsigned long long>(counters.deadline_exceeded.load()),
              static_cast<unsigned long long>(counters.failed.load()),
              static_cast<unsigned long long>(counters.http_requests.load()),
              server.in_flight());
  return 0;
}

}  // namespace
}  // namespace cardbench

int main(int argc, char** argv) { return cardbench::Run(argc, argv); }
