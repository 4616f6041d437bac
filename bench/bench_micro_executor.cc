// Micro-benchmark of the vectorized, morsel-parallel executor (PR 2's
// pipeline): executes every STATS-CEB counting plan under a
// (exec-threads × batch-size) sweep and reports per-configuration wall time
// and speedup over the serial baseline. Counts are asserted identical to
// the baseline in every configuration — parallelism and batch size are
// performance knobs only. The shape to verify on a multi-core machine:
// >= 2x total speedup at 4 threads with the default batch size. Results go
// to stdout and to bench_micro_executor.json (consumed by
// scripts/run_all_benches.sh).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/cpu_info.h"
#include "common/logging.h"
#include "common/str_util.h"
#include "exec/executor.h"
#include "exec/true_card.h"
#include "harness/bench_env.h"

namespace cardbench {
namespace {

struct ConfigResult {
  size_t threads = 0;
  size_t batch_size = 0;
  double seconds = 0.0;
  size_t timeouts = 0;
};

int Run(const BenchFlags& flags) {
  auto env_result = BenchEnv::Create(BenchDataset::kStats, flags);
  CARDBENCH_CHECK(env_result.ok(), "env creation failed: %s",
                  env_result.status().ToString().c_str());
  BenchEnv& env = **env_result;

  std::vector<std::unique_ptr<PlanNode>> plans;
  for (const auto& ctx : env.query_contexts()) {
    plans.push_back(env.truecard().BuildCountingPlan(
        *ctx.graph, ctx.graph->full_mask()));
  }
  CARDBENCH_CHECK(!plans.empty(), "empty workload");

  ExecLimits limits;
  limits.timeout_seconds = flags.exec_timeout;
  const size_t repeats = std::max<size_t>(1, flags.exec_repeats);

  // Executes every plan under one configuration; per-plan wall time is the
  // minimum over repeats (de-noising sub-second runs), the configuration
  // time is the sum. Counts land in *counts.
  auto run_config = [&](size_t threads, size_t batch,
                        std::vector<uint64_t>* counts) {
    ExecOptions options;
    options.batch_size = batch;
    options.num_threads = threads;
    Executor executor(env.db(), limits, options);
    ConfigResult result;
    result.threads = threads;
    result.batch_size = batch;
    counts->clear();
    for (const auto& plan : plans) {
      double best = -1.0;
      uint64_t count = 0;
      for (size_t r = 0; r < repeats; ++r) {
        auto exec = executor.ExecuteCount(*plan);
        CARDBENCH_CHECK(exec.ok(), "execution failed: %s",
                        exec.status().ToString().c_str());
        if (exec->timed_out) {
          ++result.timeouts;
          best = flags.exec_timeout;
          break;
        }
        count = exec->count;
        if (best < 0 || exec->elapsed_seconds < best) {
          best = exec->elapsed_seconds;
        }
      }
      result.seconds += best;
      counts->push_back(count);
    }
    return result;
  };

  std::printf("executor micro-bench: %zu plans, %zu repeats, scale %g\n\n",
              plans.size(), repeats, flags.scale);

  // Serial baseline: the configuration every sweep point must reproduce.
  std::vector<uint64_t> baseline_counts;
  const ConfigResult baseline = run_config(1, 1024, &baseline_counts);

  std::printf("%8s %10s %12s %9s %9s\n", "threads", "batch", "total", "speedup",
              "timeouts");
  std::vector<ConfigResult> results;
  std::vector<uint64_t> counts;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    for (size_t batch : {size_t{256}, size_t{1024}, size_t{4096}}) {
      const ConfigResult r = run_config(threads, batch, &counts);
      CARDBENCH_CHECK(counts == baseline_counts,
                      "counts diverged at threads=%zu batch=%zu — parallel "
                      "executor bug",
                      threads, batch);
      std::printf("%8zu %10zu %12s %8.2fx %9zu\n", threads, batch,
                  FormatDuration(r.seconds).c_str(),
                  r.seconds > 0 ? baseline.seconds / r.seconds : 0.0,
                  r.timeouts);
      results.push_back(r);
    }
  }

  const char* json_path = "bench_micro_executor.json";
  if (std::FILE* out = std::fopen(json_path, "w")) {
    std::fprintf(out,
                 "{\n  \"bench\": \"bench_micro_executor\",\n  %s,\n"
                 "  \"dataset\": \"%s\",\n  \"scale\": %g,\n"
                 "  \"plans\": %zu,\n  \"repeats\": %zu,\n"
                 "  \"serial_seconds\": %.6f,\n  \"configs\": [\n",
                 CpuInfoJson().c_str(),
                 env.dataset_name().c_str(), flags.scale, plans.size(),
                 repeats, baseline.seconds);
    for (size_t i = 0; i < results.size(); ++i) {
      const ConfigResult& r = results[i];
      std::fprintf(out,
                   "    {\"threads\": %zu, \"batch_size\": %zu, "
                   "\"seconds\": %.6f, \"speedup\": %.4f, \"timeouts\": %zu}%s\n",
                   r.threads, r.batch_size, r.seconds,
                   r.seconds > 0 ? baseline.seconds / r.seconds : 0.0,
                   r.timeouts, i + 1 < results.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("\nwrote %s\n", json_path);
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
