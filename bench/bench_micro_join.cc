// Micro-benchmark of the join hash path (src/exec/join_hash.h): builds and
// count-probes the radix-partitioned open-addressing table against a
// bench-local chained `std::unordered_map<Value, std::vector<uint32_t>>`
// baseline (the "legacy" columns, named after the executor's join table
// that the radix table replaced) over a (rows × radix_bits × threads)
// sweep with STATS-like key duplication. Match counts are asserted
// identical between the two tables at every point — layout, fan-out and
// parallelism are performance knobs only. The JSON artifact feeds the
// check_perf_floor gate: the shape to verify is multi-x probe throughput
// over the baseline on STATS-scale build sides.
//
//   bench_micro_join [--json=PATH] [--reps=N] [--quick]
//
// Timing method: per configuration, `reps` full build (and probe) passes;
// the minimum wall time is reported — insensitive to one-off scheduler
// noise, cheap enough for a ctest gate in --quick mode.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cpu_info.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "exec/join_hash.h"

namespace cardbench {
namespace {

constexpr size_t kProbeMorselTuples = size_t{1} << 14;

/// JoinKeySource over plain vectors (the bench's stand-in for the
/// executor's TupleSet-backed source).
class VectorKeySource final : public JoinKeySource {
 public:
  VectorKeySource(const std::vector<Value>& keys,
                  const std::vector<uint8_t>& valid)
      : keys_(keys), valid_(valid) {}

  void GatherKeys(size_t lo, size_t hi, Value* keys,
                  uint8_t* valid) const override {
    for (size_t i = lo; i < hi; ++i) {
      keys[i - lo] = keys_[i];
      valid[i - lo] = valid_[i];
    }
  }

 private:
  const std::vector<Value>& keys_;
  const std::vector<uint8_t>& valid_;
};

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

/// Count-probe of the radix table over one morsel, mirroring the
/// executor's RadixProbeMorsel: batch-hashed keys with software prefetch
/// kJoinPrefetchDistance probes ahead.
uint64_t ProbeRadixMorsel(const JoinHashTable& ht, const Input& probe,
                          size_t lo, size_t hi,
                          std::vector<uint64_t>& hash_scratch) {
  uint64_t count = 0;
  uint64_t* hashes = hash_scratch.data();
  for (size_t i = lo; i < hi; ++i) {
    hashes[i - lo] = probe.valid[i] ? JoinKeyHash(probe.keys[i]) : 0;
  }
  const size_t n = hi - lo;
  for (size_t i = 0; i < std::min(kJoinPrefetchDistance, n); ++i) {
    if (probe.valid[lo + i]) ht.Prefetch(hashes[i]);
  }
  for (size_t i = 0; i < n; ++i) {
    const size_t ahead = i + kJoinPrefetchDistance;
    if (ahead < n && probe.valid[lo + ahead]) ht.Prefetch(hashes[ahead]);
    if (!probe.valid[lo + i]) continue;
    count += ht.CountMatches(probe.keys[lo + i], hashes[i]);
  }
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
  size_t radix_bits = 0;
  size_t threads = 0;
  double build_ns_per_row = 0.0;
  double probe_ns_per_row = 0.0;
  double legacy_build_ns_per_row = 0.0;
  double legacy_probe_ns_per_row = 0.0;
  double probe_speedup_vs_legacy = 0.0;
  double build_speedup_vs_legacy = 0.0;
};

int Run(int argc, char** argv) {
  std::string json_path;
  size_t reps = 3;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--reps=", 0) == 0) {
      reps = std::stoul(arg.substr(7));
    } else if (arg == "--quick") {
      quick = true;
      reps = std::min<size_t>(reps, 2);
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
  const std::vector<size_t> radix_bits_sweep =
      quick ? std::vector<size_t>{size_t{4}}
            : std::vector<size_t>{size_t{0}, size_t{4}, size_t{8}};
  const std::vector<size_t> thread_sweep = {size_t{1}, size_t{4}};

  std::printf(
      "join micro-bench: %zu reps, cpu \"%s\" (best tier %s)\n",
      reps, CpuModelName().c_str(), CpuSimdCapability());
  std::printf("%9s %5s %8s %11s %11s %11s %11s %9s\n", "rows", "bits",
              "threads", "build ns/r", "probe ns/r", "leg bld ns",
              "leg prb ns", "speedup");

  std::vector<ConfigResult> results;
  for (size_t rows : row_counts) {
    const int64_t domain = static_cast<int64_t>(rows / 4);
    const Input build = MakeInput(rows, domain, /*seed=*/rows + 1);
    const Input probe = MakeInput(rows * 2, domain, /*seed=*/rows + 2);
    const VectorKeySource source(build.keys, build.valid);

    // Legacy baseline at each thread count (the build is inherently
    // serial; only its probe parallelizes).
    const LegacyTable legacy = BuildLegacy(build);
    double legacy_build_s = 1e300;
    for (size_t r = 0; r < reps; ++r) {
      legacy_build_s =
          std::min(legacy_build_s, Seconds([&] { (void)BuildLegacy(build); }));
    }
    std::vector<double> legacy_probe_s(thread_sweep.size(), 1e300);
    std::vector<uint64_t> expected(thread_sweep.size(), 0);
    for (size_t t = 0; t < thread_sweep.size(); ++t) {
      ThreadPool pool_storage(std::max<size_t>(thread_sweep[t], 1));
      ThreadPool* pool = thread_sweep[t] > 1 ? &pool_storage : nullptr;
      for (size_t r = 0; r < reps; ++r) {
        uint64_t count = 0;
        const double s = Seconds([&] {
          count = RunMorsels(pool, probe.keys.size(),
                             [&](size_t lo, size_t hi) {
                               return ProbeLegacyMorsel(legacy, probe, lo, hi);
                             });
        });
        legacy_probe_s[t] = std::min(legacy_probe_s[t], s);
        expected[t] = count;
      }
    }
    CARDBENCH_CHECK(expected[0] > 0, "degenerate workload: zero matches");

    for (size_t radix : radix_bits_sweep) {
      for (size_t t = 0; t < thread_sweep.size(); ++t) {
        const size_t threads = thread_sweep[t];
        ThreadPool pool_storage(threads);
        ThreadPool* pool = threads > 1 ? &pool_storage : nullptr;
        JoinMorselRunner runner;
        if (pool != nullptr) {
          runner = [pool](size_t count,
                          const std::function<void(size_t)>& fn) {
            ParallelFor(*pool, count, fn);
          };
        }
        JoinHashConfig config;
        config.radix_bits = radix;

        double build_s = 1e300;
        double probe_s = 1e300;
        for (size_t r = 0; r < reps; ++r) {
          JoinHashTable table;
          build_s = std::min(build_s, Seconds([&] {
            CARDBENCH_CHECK(table.Build(source, build.keys.size(), config,
                                        runner, nullptr),
                            "build aborted without a budget");
          }));
          uint64_t count = 0;
          probe_s = std::min(probe_s, Seconds([&] {
            count = RunMorsels(
                pool, probe.keys.size(), [&](size_t lo, size_t hi) {
                  // Reused per-thread hash scratch, like the executor's
                  // arena-backed KeyScratch (which never zero-fills).
                  thread_local std::vector<uint64_t> scratch;
                  scratch.resize(kProbeMorselTuples);
                  return ProbeRadixMorsel(table, probe, lo, hi, scratch);
                });
          }));
          CARDBENCH_CHECK(count == expected[t],
                          "radix join counted %llu, legacy %llu at rows=%zu "
                          "radix_bits=%zu threads=%zu — join table bug",
                          static_cast<unsigned long long>(count),
                          static_cast<unsigned long long>(expected[t]), rows,
                          radix, threads);
        }

        ConfigResult res;
        res.rows = rows;
        res.radix_bits = radix;
        res.threads = threads;
        const double rows_d = static_cast<double>(rows);
        const double probes_d = static_cast<double>(probe.keys.size());
        res.build_ns_per_row = build_s * 1e9 / rows_d;
        res.probe_ns_per_row = probe_s * 1e9 / probes_d;
        res.legacy_build_ns_per_row = legacy_build_s * 1e9 / rows_d;
        res.legacy_probe_ns_per_row = legacy_probe_s[t] * 1e9 / probes_d;
        res.probe_speedup_vs_legacy =
            probe_s > 0 ? legacy_probe_s[t] / probe_s : 0.0;
        res.build_speedup_vs_legacy =
            build_s > 0 ? legacy_build_s / build_s : 0.0;
        results.push_back(res);
        std::printf("%9zu %5zu %8zu %11.2f %11.2f %11.2f %11.2f %8.2fx\n",
                    rows, radix, threads, res.build_ns_per_row,
                    res.probe_ns_per_row, res.legacy_build_ns_per_row,
                    res.legacy_probe_ns_per_row, res.probe_speedup_vs_legacy);
      }
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
          "    {\"rows\": %zu, \"radix_bits\": %zu, \"threads\": %zu, "
          "\"build_ns_per_row\": %.3f, \"probe_ns_per_row\": %.3f, "
          "\"legacy_build_ns_per_row\": %.3f, "
          "\"legacy_probe_ns_per_row\": %.3f, "
          "\"build_speedup_vs_legacy\": %.3f, "
          "\"probe_speedup_vs_legacy\": %.3f}%s\n",
          r.rows, r.radix_bits, r.threads, r.build_ns_per_row,
          r.probe_ns_per_row, r.legacy_build_ns_per_row,
          r.legacy_probe_ns_per_row, r.build_speedup_vs_legacy,
          r.probe_speedup_vs_legacy, i + 1 < results.size() ? "," : "");
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
