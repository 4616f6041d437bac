// perfbench: the repository benchmark. Runs one named workload against the
// library's public entry points and prints every metric by name with its
// unit; the last stdout line is one JSON object
//
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
//
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1). Usage (perfbench/run.py builds and calls this):
//
//   perfbench --workload ceb-oltp|ceb-olap|serve-mixed --seed N
//             --seconds S --trace 0|1 [--cache-dir DIR] [--source-id ID]
//
// Exits 1 when an output was wrong, 2 on bad arguments.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/cpu_info.h"
#include "common/json.h"
#include "common/str_util.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// What BENCHMARK.json lists as end_to_end; every workload reports each.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"op_p50_us", "us"},
    {"op_p99_us", "us"},
    {"ops_per_s", "1/s"},
};

// What BENCHMARK.json lists as per_layer. A workload that bypasses a layer
// reports it as 0: the layer did no work in that run.
const std::vector<MetricSpec> kPerLayer = {
    {"query.parse_us", "us"},
    {"query.compile_us", "us"},
    {"cardest.estimate_us", "us"},
    {"cardest.ns_per_subplan", "ns"},
    {"cardest.PostgreSQL.ns_per_subplan", "ns"},
    {"cardest.BayesCard.ns_per_subplan", "ns"},
    {"cardest.DeepDB.ns_per_subplan", "ns"},
    {"cardest.FLAT.ns_per_subplan", "ns"},
    {"cardest.subplans", "count"},
    {"cardest.build_s", "s"},
    {"optimizer.plan_self_us", "us"},
    {"optimizer.p_error_p90", "ratio"},
    {"exec.exec_us", "us"},
    {"exec.intermediate_rows", "count"},
    {"exec.ns_per_intermediate_row", "ns"},
    {"harness.env_s", "s"},
    {"service.hit_rate", "ratio"},
    {"service.inproc_p50_us", "us"},
    {"service.inproc_p99_us", "us"},
    {"service.queue_depth_p99", "count"},
    {"service.process_us", "us"},
    {"service.swap_us", "us"},
    {"server.compile_us", "us"},
    {"server.side_p50_us", "us"},
    {"server.side_p99_us", "us"},
    {"server.wire_us", "us"},
    {"loadgen.open_p50_us", "us"},
    {"loadgen.open_p99_us", "us"},
    {"loadgen.lag_p99_us", "us"},
    {"trace.unattributed_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "ceb-oltp|ceb-olap|serve-mixed --seed N --seconds S "
               "--trace 0|1 [--cache-dir DIR] [--source-id ID]\n",
               problem.c_str());
  std::exit(2);
}

uint64_t ParseUnsigned(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || text[0] == '-') {
    Usage(flag + " needs a whole number, got '" + text + "'");
  }
  return value;
}

/// Orders the workload's metrics as the spec lists them, fills layers the
/// workload bypassed with 0, and rejects names or units off the spec.
bool Conform(const std::vector<MetricSpec>& spec, WorkloadResult& result) {
  std::map<std::string, Metric> given;
  for (const Metric& m : result.metrics) given[m.name] = m;
  std::vector<Metric> ordered;
  bool ok = true;
  for (const MetricSpec& s : spec) {
    auto it = given.find(s.name);
    if (it == given.end()) {
      ordered.push_back(Metric{s.name, 0.0, s.unit, 0});
      continue;
    }
    if (it->second.unit != s.unit || !std::isfinite(it->second.value)) {
      std::fprintf(stderr, "perfbench: metric %s is %g %s, spec unit %s\n",
                   s.name, it->second.value, it->second.unit.c_str(), s.unit);
      ok = false;
    }
    ordered.push_back(it->second);
    given.erase(it);
  }
  for (const auto& [name, m] : given) {
    std::fprintf(stderr, "perfbench: metric %s is not in the spec\n",
                 name.c_str());
    ok = false;
  }
  result.metrics = std::move(ordered);
  return ok;
}

int Main(int argc, char** argv) {
  Args args;
  std::string source_id = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = ParseUnsigned(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(ParseUnsigned(flag, value));
      if (args.seconds < 1) Usage("--seconds must be at least 1");
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--cache-dir") {
      args.cache_dir = value;
    } else if (flag == "--source-id") {
      source_id = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  if (args.cache_dir.empty()) args.cache_dir = ".bench_build/perfbench-cache";
  const int pinned_cpu = PinToOneCpu();
  // The first measurement builds the memory kernel's table.
  MeasureReference();
  const ReferenceTimes reference = MeasureReference();

  WorkloadResult result;
  if (args.workload == "ceb-oltp" || args.workload == "ceb-olap") {
    result = RunCebWorkload(args, args.workload == "ceb-oltp");
  } else if (args.workload == "serve-mixed") {
    result = RunServeWorkload(args);
  } else {
    Usage("unknown workload " + args.workload);
  }
  if (!Conform(args.trace ? kPerLayer : kEndToEnd, result)) {
    result.Mismatch("metric set does not match the spec");
  }

  // Numbers are comparable only on the same CPU and source.
  std::string source_json;
  cardbench::AppendJsonString(source_id, &source_json);
  std::printf("{\"stamp\": {%s, \"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"source\": %s, "
              "\"pinned_cpu\": %d, \"reference_s\": {\"compute\": %.6f, "
              "\"memory\": %.6f}}}\n",
              cardbench::CpuInfoJson().c_str(), args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, source_json.c_str(), pinned_cpu,
              reference.compute_s, reference.memory_s);
  for (const std::string& note : result.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  for (const std::string& error : result.errors) {
    std::printf("MISMATCH: %s\n", error.c_str());
  }
  std::string metrics;
  for (const Metric& m : result.metrics) {
    std::printf("%-36s %16.6f %-6s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(),
                m.samples > 0
                    ? cardbench::StrFormat(" (n=%zu)", m.samples).c_str()
                    : "");
    // A non-finite value already failed Conform; keep the line valid JSON.
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    if (!metrics.empty()) metrics += ", ";
    metrics += cardbench::StrFormat(
        "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", m.name.c_str(),
        value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
