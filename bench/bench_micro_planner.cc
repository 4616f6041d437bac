// Micro-benchmark of the planner: plans every STATS-CEB query repeatedly
// through Optimizer::Plan over the query's precompiled QueryGraph, and
// through the convenience overload that compiles a throwaway graph per
// plan, and reports plans/second plus the estimation share of planning
// time for each. The shape to verify: reusing the compiled graph is faster,
// and the gap is the per-plan compile cost. Results go to stdout and to
// bench_micro_planner.json (consumed by scripts/run_all_benches.sh).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/cpu_info.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/str_util.h"
#include "harness/bench_env.h"

namespace cardbench {
namespace {

struct PathResult {
  std::string path;
  double seconds = 0.0;             ///< total planning wall time
  double estimation_seconds = 0.0;  ///< portion inside EstimateCard dispatch
  size_t plans = 0;

  double PlansPerSecond() const {
    return seconds > 0.0 ? static_cast<double>(plans) / seconds : 0.0;
  }
};

int Run(const BenchFlags& flags) {
  auto env_result = BenchEnv::Create(BenchDataset::kStats, flags);
  CARDBENCH_CHECK(env_result.ok(), "env creation failed: %s",
                  env_result.status().ToString().c_str());
  BenchEnv& env = **env_result;
  const Optimizer& opt = env.optimizer();
  const auto& contexts = env.query_contexts();
  CARDBENCH_CHECK(!contexts.empty(), "empty workload");

  const size_t repeats = std::max<size_t>(3, flags.exec_repeats);
  const std::string estimator_name =
      flags.estimators.empty() ? "PostgreSQL" : flags.estimators[0];
  auto est = env.MakeNamedEstimator(estimator_name);
  CARDBENCH_CHECK(est.ok(), "estimator %s failed: %s", estimator_name.c_str(),
                  est.status().ToString().c_str());
  const CardinalityEstimator& estimator = **est;

  std::printf("planner micro-bench: %zu queries x %zu repeats, "
              "estimator %s, scale %g\n\n",
              contexts.size(), repeats, estimator_name.c_str(), flags.scale);

  // One timed sweep: `plan` maps a context to a PlanResult.
  auto run_path = [&](const char* name, auto&& plan) {
    PathResult result;
    result.path = name;
    Stopwatch wall;
    for (size_t r = 0; r < repeats; ++r) {
      for (const auto& ctx : contexts) {
        auto planned = plan(ctx);
        CARDBENCH_CHECK(planned.ok(), "planning failed: %s",
                        planned.status().ToString().c_str());
        result.estimation_seconds += planned->estimation_seconds;
        ++result.plans;
      }
    }
    result.seconds = wall.ElapsedSeconds();
    return result;
  };

  const PathResult graph = run_path("graph", [&](const auto& ctx) {
    return opt.Plan(*ctx.graph, estimator);
  });
  // The convenience overload compiles a throwaway graph per plan — the cost
  // a caller pays for not reusing the IR.
  const PathResult compile = run_path("graph+compile", [&](const auto& ctx) {
    return opt.Plan(*ctx.query, estimator);
  });

  std::printf("%-14s %12s %10s %14s\n", "path", "plans/s", "total",
              "estimation");
  const std::vector<const PathResult*> rows = {&graph, &compile};
  for (const PathResult* r : rows) {
    std::printf("%-14s %12.1f %10s %14s\n", r->path.c_str(),
                r->PlansPerSecond(), FormatDuration(r->seconds).c_str(),
                FormatDuration(r->estimation_seconds).c_str());
  }
  std::printf("\nshape check: reusing the compiled graph faster %s "
              "(%.2fx), per-plan compile overhead %s\n",
              graph.seconds < compile.seconds ? "yes" : "NO",
              graph.seconds > 0.0 ? compile.seconds / graph.seconds : 0.0,
              FormatDuration((compile.seconds - graph.seconds) /
                             std::max<size_t>(1, compile.plans))
                  .c_str());

  const char* json_path = "bench_micro_planner.json";
  if (std::FILE* out = std::fopen(json_path, "w")) {
    std::fprintf(out,
                 "{\n  \"bench\": \"bench_micro_planner\",\n  %s,\n"
                 "  \"dataset\": \"%s\",\n  \"scale\": %g,\n"
                 "  \"estimator\": \"%s\",\n  \"queries\": %zu,\n"
                 "  \"repeats\": %zu,\n  \"paths\": [\n",
                 CpuInfoJson().c_str(), env.dataset_name().c_str(), flags.scale,
                 estimator_name.c_str(), contexts.size(), repeats);
    for (size_t i = 0; i < rows.size(); ++i) {
      const PathResult& r = *rows[i];
      std::fprintf(out,
                   "    {\"path\": \"%s\", \"plans_per_second\": %.1f, "
                   "\"seconds\": %.6f, \"estimation_seconds\": %.6f}%s\n",
                   r.path.c_str(), r.PlansPerSecond(), r.seconds,
                   r.estimation_seconds, i + 1 < rows.size() ? "," : "");
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
