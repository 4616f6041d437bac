// Perf regression gate over the kernel and join layers' micro-bench
// artifacts.
//
//   check_perf_floor FLOOR.json MEASURED.json [MEASURED.json ...]
//
// FLOOR.json (checked in as bench/perf_floor.json) pins the minimum
// acceptable vector-tier speedups and join-table throughput:
//   {
//     "kernel_floors": [
//       {"kernel": "dot", "level": "avx2", "min_speedup_vs_scalar": 2.0}, ...
//     ],
//     "join_floors": [
//       {"rows": 262144, "threads": 4,
//        "max_build_ns_per_row": 60, "max_probe_ns_per_row": 40,
//        "min_probe_speedup_vs_legacy": 2.0}, ...
//     ],
//     "counter_floors": {"min_ipc": 1.0, "max_branch_miss_rate": 0.05,
//                        "max_cache_miss_rate": 0.2}
//   }
// Each MEASURED file is dispatched by content: a "bench" of
// "bench_kernels" is checked against kernel_floors, "bench_micro_join"
// against join_floors, and a file carrying a "counters" object
// (scripts/perf_stat.sh output) against counter_floors. A floor whose
// measurement point is absent — e.g. an avx512 floor on an avx2-only host,
// or a sweep point the quick bench mode skips — is reported as SKIP, so
// the gate is portable across machines. Counter floors are enforced only
// when the counters object is non-null (perf may be unavailable in
// containers — that run records null and the gate degrades to the other
// floors).
//
// Exit 0 iff every applicable floor holds.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json.h"

namespace cardbench {
namespace {

Result<JsonValue> LoadJson(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();  // JsonParser keeps a reference
  JsonParser parser(text);
  return parser.Parse();
}

/// Measured speedup of (kernel, level), or -1 when the pair is absent.
double FindSpeedup(const JsonValue& measured, const std::string& kernel,
                   const std::string& level) {
  const JsonValue* rows = measured.Find("rows");
  if (rows == nullptr || rows->kind != JsonValue::Kind::kArray) return -1.0;
  for (const JsonValue& row : rows->array) {
    if (JsonStringOr(row.Find("kernel"), "") == kernel &&
        JsonStringOr(row.Find("level"), "") == level) {
      return JsonNumberOr(row.Find("speedup_vs_scalar"), -1.0);
    }
  }
  return -1.0;
}

int CheckKernelFloors(const JsonValue& floor, const JsonValue& measured) {
  const JsonValue* floors = floor.Find("kernel_floors");
  if (floors == nullptr || floors->kind != JsonValue::Kind::kArray) {
    std::fprintf(stderr, "floor file has no \"kernel_floors\" array\n");
    return 1;
  }
  int failures = 0;
  int checked = 0, skipped = 0;
  for (const JsonValue& f : floors->array) {
    const std::string kernel = JsonStringOr(f.Find("kernel"), "");
    const std::string level = JsonStringOr(f.Find("level"), "");
    const double min_speedup =
        JsonNumberOr(f.Find("min_speedup_vs_scalar"), 0.0);
    if (kernel.empty() || level.empty() || min_speedup <= 0.0) {
      std::fprintf(stderr, "malformed kernel floor entry\n");
      ++failures;
      continue;
    }
    const double got = FindSpeedup(measured, kernel, level);
    if (got < 0.0) {
      // Level not available on this host/build: floor does not apply.
      std::printf("SKIP %-14s %-8s (not measured on this host)\n",
                  kernel.c_str(), level.c_str());
      ++skipped;
      continue;
    }
    ++checked;
    if (got < min_speedup) {
      std::printf("FAIL %-14s %-8s speedup %.2fx < floor %.2fx\n",
                  kernel.c_str(), level.c_str(), got, min_speedup);
      ++failures;
    } else {
      std::printf("OK   %-14s %-8s speedup %.2fx >= floor %.2fx\n",
                  kernel.c_str(), level.c_str(), got, min_speedup);
    }
  }
  if (checked == 0 && skipped > 0) {
    // A host where nothing applies (pure-scalar build) passes vacuously,
    // but an empty floor list or an empty measurement is suspicious.
    std::printf("all %d floors skipped (scalar-only host/build)\n", skipped);
  }
  return failures;
}

/// The bench_micro_join config matching (rows, threads), or nullptr when
/// the sweep did not include that point.
const JsonValue* FindJoinConfig(const JsonValue& measured, double rows,
                                double threads) {
  const JsonValue* configs = measured.Find("configs");
  if (configs == nullptr || configs->kind != JsonValue::Kind::kArray) {
    return nullptr;
  }
  for (const JsonValue& c : configs->array) {
    if (JsonNumberOr(c.Find("rows"), -1.0) == rows &&
        JsonNumberOr(c.Find("threads"), -1.0) == threads) {
      return &c;
    }
  }
  return nullptr;
}

int CheckJoinFloors(const JsonValue& floor, const JsonValue& measured) {
  const JsonValue* floors = floor.Find("join_floors");
  if (floors == nullptr || floors->kind != JsonValue::Kind::kArray) {
    std::fprintf(stderr, "floor file has no \"join_floors\" array\n");
    return 1;
  }
  int failures = 0;
  for (const JsonValue& f : floors->array) {
    const double rows = JsonNumberOr(f.Find("rows"), -1.0);
    const double threads = JsonNumberOr(f.Find("threads"), -1.0);
    if (rows < 0.0 || threads < 0.0) {
      std::fprintf(stderr, "malformed join floor entry\n");
      ++failures;
      continue;
    }
    char label[96];
    std::snprintf(label, sizeof(label), "join r%.0f t%.0f", rows, threads);
    const JsonValue* config = FindJoinConfig(measured, rows, threads);
    if (config == nullptr) {
      std::printf("SKIP %-24s (not measured in this run)\n", label);
      continue;
    }
    const struct {
      const char* metric;
      const char* bound;
      bool is_ceiling;
    } kBounds[] = {
        {"build_ns_per_row", "max_build_ns_per_row", true},
        {"probe_ns_per_row", "max_probe_ns_per_row", true},
        {"probe_speedup_vs_legacy", "min_probe_speedup_vs_legacy", false},
    };
    for (const auto& b : kBounds) {
      const double bound = JsonNumberOr(f.Find(b.bound), 0.0);
      if (bound <= 0.0) continue;  // bound not pinned for this point
      const double got = JsonNumberOr(config->Find(b.metric), -1.0);
      if (got < 0.0) {
        std::printf("FAIL %-24s %s missing from measurement\n", label,
                    b.metric);
        ++failures;
        continue;
      }
      const bool ok = b.is_ceiling ? got <= bound : got >= bound;
      std::printf("%s %-24s %s %.2f %s %.2f\n", ok ? "OK  " : "FAIL", label,
                  b.metric, got, b.is_ceiling ? "<= ceiling" : ">= floor",
                  bound);
      if (!ok) ++failures;
    }
  }
  return failures;
}

int CheckCounterFloors(const JsonValue& floor, const JsonValue& counters) {
  const JsonValue* limits = floor.Find("counter_floors");
  if (limits == nullptr || limits->kind != JsonValue::Kind::kObject) return 0;
  const JsonValue* c = counters.Find("counters");
  if (c == nullptr || c->kind != JsonValue::Kind::kObject) {
    std::printf("counters unavailable (perf not usable here); counter floors "
                "not enforced\n");
    return 0;
  }
  int failures = 0;
  const double ipc = JsonNumberOr(c->Find("ipc"), -1.0);
  const double min_ipc = JsonNumberOr(limits->Find("min_ipc"), 0.0);
  if (min_ipc > 0.0 && ipc >= 0.0) {
    if (ipc < min_ipc) {
      std::printf("FAIL ipc %.3f < floor %.3f\n", ipc, min_ipc);
      ++failures;
    } else {
      std::printf("OK   ipc %.3f >= floor %.3f\n", ipc, min_ipc);
    }
  }
  const struct {
    const char* counter;
    const char* limit;
  } kRates[] = {{"branch_miss_rate", "max_branch_miss_rate"},
                {"cache_miss_rate", "max_cache_miss_rate"}};
  for (const auto& r : kRates) {
    const double rate = JsonNumberOr(c->Find(r.counter), -1.0);
    const double max_rate = JsonNumberOr(limits->Find(r.limit), 0.0);
    if (max_rate <= 0.0 || rate < 0.0) continue;
    if (rate > max_rate) {
      std::printf("FAIL %s %.4f > ceiling %.4f\n", r.counter, rate, max_rate);
      ++failures;
    } else {
      std::printf("OK   %s %.4f <= ceiling %.4f\n", r.counter, rate, max_rate);
    }
  }
  return failures;
}

int Run(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: %s FLOOR.json MEASURED.json [MEASURED.json ...]\n",
                 argv[0]);
    return 2;
  }
  auto floor = LoadJson(argv[1]);
  if (!floor.ok()) {
    std::fprintf(stderr, "floor: %s\n", floor.status().ToString().c_str());
    return 2;
  }
  int failures = 0;
  for (int i = 2; i < argc; ++i) {
    auto measured = LoadJson(argv[i]);
    if (!measured.ok()) {
      std::fprintf(stderr, "%s: %s\n", argv[i],
                   measured.status().ToString().c_str());
      return 2;
    }
    const std::string bench = JsonStringOr(measured->Find("bench"), "");
    if (bench == "bench_kernels") {
      failures += CheckKernelFloors(*floor, *measured);
    } else if (bench == "bench_micro_join") {
      failures += CheckJoinFloors(*floor, *measured);
    } else if (measured->Find("counters") != nullptr) {
      failures += CheckCounterFloors(*floor, *measured);
    } else {
      std::fprintf(stderr,
                   "%s: unrecognized measurement (no known \"bench\" tag and "
                   "no \"counters\" object)\n",
                   argv[i]);
      return 2;
    }
  }
  if (failures != 0) {
    std::printf("check_perf_floor: %d floor(s) violated\n", failures);
    return 1;
  }
  std::printf("check_perf_floor: all applicable floors hold\n");
  return 0;
}

}  // namespace
}  // namespace cardbench

int main(int argc, char** argv) { return cardbench::Run(argc, argv); }
