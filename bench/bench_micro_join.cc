// Micro-benchmark of the hash join's table (src/storage/index.h): builds a
// HashIndex from key vectors, as the executor does from a build side's
// gathered keys, and count-probes it with the executor's prefetching loop,
// against a bench-local chained `std::unordered_map<Value,
// std::vector<uint32_t>>` baseline (the "legacy" columns, named after the
// executor's first join table) over a (rows × threads) sweep with
// STATS-like key duplication. Match counts are asserted identical between
// the two tables at every point. Both builds are serial; threads split
// the probes into morsels. The JSON artifact feeds the check_perf_floor
// gate: the shape to verify is multi-x probe throughput over the baseline
// on STATS-scale build sides.
//
//   bench_micro_join [--json=PATH] [--reps=N] [--quick]
//
// Timing method: paired rounds. Per configuration, `reps` rounds each time
// a baseline build, an index build, a baseline probe and an index probe,
// the baseline first in even rounds and second in odd ones. A speedup is
// the median over rounds of (baseline time / index time) from the same
// round, so a host-speed shift between rounds cancels instead of landing
// in the ratio; ns-per-row figures are medians over rounds, and the
// quartiles of the per-round probe ratios are reported as the spread.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cpu_info.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "paired_timing.h"
#include "storage/index.h"

namespace cardbench {
namespace {

constexpr size_t kProbeMorselTuples = size_t{1} << 14;

struct Input {
  std::vector<Value> keys;
  std::vector<uint8_t> valid;
};

/// STATS-like key column: a skew-free key domain a quarter the row count
/// (average fanout 4, like the FK sides of the STATS join graph) with 2%
/// NULLs.
Input MakeInput(size_t rows, int64_t domain, uint64_t seed) {
  std::mt19937_64 rng(seed);
  Input input;
  input.keys.resize(rows);
  input.valid.resize(rows);
  for (size_t i = 0; i < rows; ++i) {
    input.keys[i] = static_cast<Value>(rng() % static_cast<uint64_t>(domain));
    input.valid[i] = rng() % 50 != 0;
  }
  return input;
}

using LegacyTable = std::unordered_map<Value, std::vector<uint32_t>>;

LegacyTable BuildLegacy(const Input& build) {
  LegacyTable ht;
  ht.reserve(build.keys.size());
  for (size_t i = 0; i < build.keys.size(); ++i) {
    if (build.valid[i]) {
      ht[build.keys[i]].push_back(static_cast<uint32_t>(i));
    }
  }
  return ht;
}

/// Count-probe of the baseline table over one morsel (the count-only fast
/// path: sum bucket sizes).
uint64_t ProbeLegacyMorsel(const LegacyTable& ht, const Input& probe,
                           size_t lo, size_t hi) {
  uint64_t count = 0;
  for (size_t i = lo; i < hi; ++i) {
    if (!probe.valid[i]) continue;
    auto it = ht.find(probe.keys[i]);
    if (it != ht.end()) count += it->second.size();
  }
  return count;
}

/// Count-probe of the index over one morsel, through the executor's
/// hash-join probe loop (HashIndex::ProbeBatch): each key is hashed once,
/// its home slot prefetched kIndexPrefetchDistance keys ahead of its
/// lookup, and a repeated key reuses the previous run.
uint64_t ProbeIndexMorsel(const HashIndex& index, const Input& probe,
                          size_t lo, size_t hi) {
  uint64_t count = 0;
  RunMemo memo;
  index.ProbeBatch(probe.keys.data() + lo, probe.valid.data() + lo, hi - lo,
                   memo, [&count](size_t, std::span<const uint32_t> run) {
                     count += run.size();
                     return true;
                   });
  return count;
}

/// Fans `fn(m)` over morsels, serially or on `pool`, and sums the counts.
uint64_t RunMorsels(ThreadPool* pool, size_t total,
                    const std::function<uint64_t(size_t, size_t)>& fn) {
  const size_t num_morsels =
      (total + kProbeMorselTuples - 1) / kProbeMorselTuples;
  std::vector<uint64_t> counts(num_morsels, 0);
  auto morsel = [&](size_t m) {
    counts[m] = fn(m * kProbeMorselTuples,
                   std::min(total, (m + 1) * kProbeMorselTuples));
  };
  if (pool == nullptr) {
    for (size_t m = 0; m < num_morsels; ++m) morsel(m);
  } else {
    ParallelFor(*pool, num_morsels, morsel);
  }
  uint64_t count = 0;
  for (uint64_t c : counts) count += c;
  return count;
}

double Seconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

struct ConfigResult {
  size_t rows = 0;
  size_t threads = 0;
  double build_ns_per_row = 0.0;
  double probe_ns_per_row = 0.0;
  double legacy_build_ns_per_row = 0.0;
  double legacy_probe_ns_per_row = 0.0;
  double probe_speedup_vs_legacy = 0.0;
  double build_speedup_vs_legacy = 0.0;
  double probe_speedup_p25 = 0.0;  // quartiles of the per-round ratios
  double probe_speedup_p75 = 0.0;
};

int Run(int argc, char** argv) {
  std::string json_path;
  size_t reps = 15;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--reps=", 0) == 0) {
      reps = std::stoul(arg.substr(7));
    } else if (arg == "--quick") {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: %s [--json=PATH] [--reps=N] [--quick]\n",
                   argv[0]);
      return 2;
    }
  }
  reps = std::max<size_t>(reps, 1);

  // STATS-scale build sides: the large STATS tables land in the 10^5-10^6
  // row range at scale 1. --quick keeps one representative size for the
  // ctest floor gate.
  const std::vector<size_t> row_counts =
      quick ? std::vector<size_t>{size_t{1} << 18}
            : std::vector<size_t>{size_t{1} << 16, size_t{1} << 20};
  const std::vector<size_t> thread_sweep = {size_t{1}, size_t{4}};

  std::printf(
      "join micro-bench: %zu paired rounds, cpu \"%s\" (best tier %s)\n",
      reps, CpuModelName().c_str(), CpuSimdCapability());
  std::printf("%9s %8s %11s %11s %11s %11s %9s\n", "rows", "threads",
              "build ns/r", "probe ns/r", "leg bld ns", "leg prb ns",
              "speedup");

  std::vector<ConfigResult> results;
  for (size_t rows : row_counts) {
    const int64_t domain = static_cast<int64_t>(rows / 4);
    const Input build = MakeInput(rows, domain, /*seed=*/rows + 1);
    const Input probe = MakeInput(rows * 2, domain, /*seed=*/rows + 2);

    for (size_t threads : thread_sweep) {
      ThreadPool pool_storage(threads);
      ThreadPool* pool = threads > 1 ? &pool_storage : nullptr;

      std::vector<double> build_s, probe_s, legacy_build_s, legacy_probe_s;
      std::vector<double> build_ratio, probe_ratio;
      for (size_t r = 0; r < reps; ++r) {
        double lb = 0, lp = 0, ib = 0, ip = 0;
        uint64_t legacy_count = 0, count = 0;
        // Each side probes the table it has just built.
        auto time_legacy = [&] {
          LegacyTable legacy;
          lb = Seconds([&] { legacy = BuildLegacy(build); });
          lp = Seconds([&] {
            legacy_count = RunMorsels(
                pool, probe.keys.size(), [&](size_t lo, size_t hi) {
                  return ProbeLegacyMorsel(legacy, probe, lo, hi);
                });
          });
        };
        auto time_index = [&] {
          std::optional<HashIndex> index;
          ib = Seconds([&] { index.emplace(build.keys, build.valid); });
          ip = Seconds([&] {
            count = RunMorsels(pool, probe.keys.size(),
                               [&](size_t lo, size_t hi) {
                                 return ProbeIndexMorsel(*index, probe, lo, hi);
                               });
          });
        };
        if (r % 2 == 0) {
          time_legacy();
          time_index();
        } else {
          time_index();
          time_legacy();
        }
        CARDBENCH_CHECK(legacy_count > 0, "degenerate workload: zero matches");
        CARDBENCH_CHECK(count == legacy_count,
                        "index counted %llu, legacy %llu at rows=%zu "
                        "threads=%zu — join table bug",
                        static_cast<unsigned long long>(count),
                        static_cast<unsigned long long>(legacy_count), rows,
                        threads);
        legacy_build_s.push_back(lb);
        legacy_probe_s.push_back(lp);
        build_s.push_back(ib);
        probe_s.push_back(ip);
        build_ratio.push_back(ib > 0 ? lb / ib : 0.0);
        probe_ratio.push_back(ip > 0 ? lp / ip : 0.0);
      }

      ConfigResult res;
      res.rows = rows;
      res.threads = threads;
      const double rows_d = static_cast<double>(rows);
      const double probes_d = static_cast<double>(probe.keys.size());
      res.build_ns_per_row = Quantile(build_s, 0.5) * 1e9 / rows_d;
      res.probe_ns_per_row = Quantile(probe_s, 0.5) * 1e9 / probes_d;
      res.legacy_build_ns_per_row =
          Quantile(legacy_build_s, 0.5) * 1e9 / rows_d;
      res.legacy_probe_ns_per_row =
          Quantile(legacy_probe_s, 0.5) * 1e9 / probes_d;
      res.probe_speedup_vs_legacy = Quantile(probe_ratio, 0.5);
      res.build_speedup_vs_legacy = Quantile(build_ratio, 0.5);
      res.probe_speedup_p25 = Quantile(probe_ratio, 0.25);
      res.probe_speedup_p75 = Quantile(probe_ratio, 0.75);
      results.push_back(res);
      std::printf("%9zu %8zu %11.2f %11.2f %11.2f %11.2f %8.2fx\n", rows,
                  threads, res.build_ns_per_row, res.probe_ns_per_row,
                  res.legacy_build_ns_per_row, res.legacy_probe_ns_per_row,
                  res.probe_speedup_vs_legacy);
    }
  }

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out, "{\n  \"bench\": \"bench_micro_join\",\n  %s,\n",
                 CpuInfoJson().c_str());
    std::fprintf(out, "  \"reps\": %zu,\n  \"configs\": [\n", reps);
    for (size_t i = 0; i < results.size(); ++i) {
      const ConfigResult& r = results[i];
      std::fprintf(
          out,
          "    {\"rows\": %zu, \"threads\": %zu, "
          "\"build_ns_per_row\": %.3f, \"probe_ns_per_row\": %.3f, "
          "\"legacy_build_ns_per_row\": %.3f, "
          "\"legacy_probe_ns_per_row\": %.3f, "
          "\"build_speedup_vs_legacy\": %.3f, "
          "\"probe_speedup_vs_legacy\": %.3f, "
          "\"probe_speedup_p25\": %.3f, \"probe_speedup_p75\": %.3f}%s\n",
          r.rows, r.threads, r.build_ns_per_row,
          r.probe_ns_per_row, r.legacy_build_ns_per_row,
          r.legacy_probe_ns_per_row, r.build_speedup_vs_legacy,
          r.probe_speedup_vs_legacy, r.probe_speedup_p25, r.probe_speedup_p75,
          i + 1 < results.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("configs -> %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace cardbench

int main(int argc, char** argv) { return cardbench::Run(argc, argv); }
