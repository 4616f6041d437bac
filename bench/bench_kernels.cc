// Micro-benchmark of the shared kernel layer (src/common/simd.h): times
// every kernel at every SIMD tier the host can execute and reports each
// tier's speedup over the scalar reference. The JSON artifact feeds the
// check_perf_floor gate — a refactor that silently drops a vector tier back
// to scalar-level throughput fails the test suite instead of landing.
//
//   bench_kernels [--json=PATH] [--reps=N] [--quick]
//
// Timing method: paired, interleaved chunks. kRounds rounds each run
// pinned to the next allowed CPU in turn, over their own freshly
// allocated copy of the working set; a round times, for every kernel, one
// chunk of `reps` passes at every tier, back to back, the first tier
// rotating from round to round. A tier's speedup is the median over rounds of (scalar
// chunk / tier chunk) from the same round, so a host-speed shift between
// rounds cancels instead of landing in the ratio; its ns/element is the
// median of its chunks, and the quartiles of the per-round ratios are
// reported as the spread.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/cpu_info.h"
#include "common/rng.h"
#include "common/simd.h"
#include "paired_timing.h"

namespace cardbench {
namespace {

using simd::Cmp;
using simd::KernelTable;
using simd::Level;

// L1-resident working set: the hot callers run over L1-sized spans (GEMM
// inner rows, 1-4K-row filter batches), and an L2-bound sweep would measure
// memory bandwidth instead of kernel throughput.
constexpr size_t kN = 1024;

// Paired rounds: enough for a median that a few disturbed rounds cannot
// move, at about a second for the gate's --reps=2000; a multiple of 4 so
// a 4-CPU host gives each CPU the same share.
constexpr size_t kRounds = 32;

// Sink defeating dead-code elimination of result values.
volatile double g_sink = 0.0;

/// The kernels' inputs and outputs. A kernel's speed can depend on where
/// its working set lands in physical memory: on a 4-vCPU VM, the AVX2
/// filter_rows kernel ran below scalar speed on about one freshly
/// allocated copy in nine, and a process that timed a single copy failed
/// its 1.05x floor about one time in eight. Each round therefore gets its
/// own copy, and the median is over placements rather than one.
struct WorkingSet {
  std::vector<double> a, b, dst;
  std::vector<int64_t> values;
  std::vector<uint8_t> valid;
  std::vector<uint32_t> rows, out;
  std::vector<int64_t> keys;
  std::vector<uint8_t> valid_out;
};

/// A copy with the same contents every time.
WorkingSet MakeWorkingSet() {
  Rng rng(2021);
  WorkingSet ws;
  ws.a.resize(kN);
  ws.b.resize(kN);
  ws.dst.assign(kN, 0.0);
  ws.values.resize(kN);
  ws.valid.resize(kN);
  ws.rows.resize(kN);
  ws.out.resize(kN + 8);
  ws.keys.resize(kN);
  ws.valid_out.resize(kN);
  for (size_t i = 0; i < kN; ++i) {
    ws.a[i] = rng.NextDouble();
    ws.b[i] = rng.NextDouble() - 0.5;
    ws.values[i] = static_cast<int64_t>(rng.NextUint64(100));
    ws.valid[i] = rng.NextUint64(16) != 0;
    ws.rows[i] = static_cast<uint32_t>(rng.NextUint64(kN));
  }
  return ws;
}

struct KernelCase {
  const char* name;
  // One pass over kN elements of the working set.
  std::function<void(const KernelTable&, WorkingSet&)> run;
};

struct Row {
  std::string kernel;
  std::string level;
  double ns_per_element = 0.0;
  double speedup_vs_scalar = 0.0;
  double speedup_p25 = 0.0;  // quartiles of the per-round ratios
  double speedup_p75 = 0.0;
};

std::vector<KernelCase> BuildCases() {
  return {
      {"dot",
       [](const KernelTable& kt, WorkingSet& ws) {
         g_sink = kt.dot(ws.a.data(), ws.b.data(), kN);
       }},
      {"axpy",
       [](const KernelTable& kt, WorkingSet& ws) {
         kt.axpy(ws.dst.data(), ws.a.data(), 1.0001, kN);
       }},
      {"relu",
       [](const KernelTable& kt, WorkingSet& ws) {
         kt.relu(ws.dst.data(), kN);
       }},
      {"filter_range",
       [](const KernelTable& kt, WorkingSet& ws) {
         g_sink = static_cast<double>(
             kt.filter_range(ws.values.data(), ws.valid.data(), 0, kN,
                             Cmp::kLt, 50, ws.out.data()));
       }},
      {"filter_rows",
       [](const KernelTable& kt, WorkingSet& ws) {
         // Rebuild the row list each pass: filter_rows compacts in place.
         std::memcpy(ws.out.data(), ws.rows.data(), kN * sizeof(uint32_t));
         g_sink = static_cast<double>(kt.filter_rows(
             ws.values.data(), ws.valid.data(), ws.out.data(), kN, Cmp::kGe,
             50));
       }},
      {"gather",
       [](const KernelTable& kt, WorkingSet& ws) {
         kt.gather(ws.values.data(), ws.valid.data(), ws.rows.data(), kN,
                   ws.keys.data(), ws.valid_out.data());
       }},
  };
}

/// Wall time per element of one chunk of `reps` passes.
double TimeChunk(const KernelCase& kc, const KernelTable& kt, WorkingSet& ws,
                 size_t reps) {
  const auto start = std::chrono::steady_clock::now();
  for (size_t r = 0; r < reps; ++r) kc.run(kt, ws);
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(stop - start).count() /
         (static_cast<double>(reps) * static_cast<double>(kN));
}

int Run(int argc, char** argv) {
  std::string json_path;
  size_t reps = 500;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--reps=", 0) == 0) {
      reps = std::stoul(arg.substr(7));
    } else if (arg == "--quick") {
      reps = 50;
    } else {
      std::fprintf(stderr, "usage: %s [--json=PATH] [--reps=N] [--quick]\n",
                   argv[0]);
      return 2;
    }
  }

  std::vector<Level> levels = {Level::kScalar};
  for (Level l : {Level::kAvx2, Level::kAvx512}) {
    if (l <= simd::DetectLevel()) levels.push_back(l);
  }

  std::printf("kernel micro-bench: %zu elements/pass, %zu reps x %zu paired "
              "rounds, cpu \"%s\" (best tier %s)\n",
              kN, reps, kRounds, CpuModelName().c_str(), CpuSimdCapability());
  std::printf("%-14s %-8s %14s %14s %15s\n", "kernel", "level", "ns/element",
              "vs scalar", "p25-p75");

  // ns[k][l][round]; levels[0] is the scalar tier. Every round visits
  // every kernel, so each kernel's rounds span the whole run rather than
  // one slice of it. All copies stay allocated to the end, so no round
  // reuses memory another round freed.
  const std::vector<KernelCase> cases = BuildCases();
  std::vector<WorkingSet> sets;
  for (size_t round = 0; round < kRounds; ++round) {
    sets.push_back(MakeWorkingSet());
  }
  // On a shared host the vector/scalar ratio also differs between CPUs (in
  // one process on a 4-vCPU VM, filter_range avx2 had a median of 1.03x on
  // one CPU and 1.43x on another), so the rounds visit every CPU, and no
  // chunk migrates mid-measurement.
  const std::vector<int> cpus = AllowedCpus();
  std::vector<std::vector<std::vector<double>>> ns(
      cases.size(), std::vector<std::vector<double>>(levels.size()));
  for (size_t round = 0; round < kRounds; ++round) {
    if (!cpus.empty()) PinToCpu(cpus[round % cpus.size()]);
    WorkingSet& ws = sets[round];
    // Untimed pass: pulls this round's copy into cache.
    for (const KernelCase& kc : cases) kc.run(simd::KernelsFor(levels[0]), ws);
    for (size_t k = 0; k < cases.size(); ++k) {
      for (size_t i = 0; i < levels.size(); ++i) {
        const size_t l = (round + i) % levels.size();
        ns[k][l].push_back(
            TimeChunk(cases[k], simd::KernelsFor(levels[l]), ws, reps));
      }
    }
  }

  std::vector<Row> rows;
  for (size_t k = 0; k < cases.size(); ++k) {
    for (size_t l = 0; l < levels.size(); ++l) {
      std::vector<double> ratios(kRounds);
      for (size_t round = 0; round < kRounds; ++round) {
        const double tier_ns = ns[k][l][round];
        ratios[round] = tier_ns > 0.0 ? ns[k][0][round] / tier_ns : 0.0;
      }
      Row row;
      row.kernel = cases[k].name;
      row.level = simd::LevelName(levels[l]);
      row.ns_per_element = Quantile(ns[k][l], 0.5);
      row.speedup_vs_scalar = Quantile(ratios, 0.5);
      row.speedup_p25 = Quantile(ratios, 0.25);
      row.speedup_p75 = Quantile(ratios, 0.75);
      rows.push_back(row);
      std::printf("%-14s %-8s %14.3f %13.2fx %7.2f-%-7.2f\n",
                  row.kernel.c_str(), row.level.c_str(), row.ns_per_element,
                  row.speedup_vs_scalar, row.speedup_p25, row.speedup_p75);
    }
  }

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out, "{\n  \"bench\": \"bench_kernels\",\n  %s,\n",
                 CpuInfoJson().c_str());
    std::fprintf(out,
                 "  \"elements_per_pass\": %zu,\n  \"reps\": %zu,\n"
                 "  \"rounds\": %zu,\n",
                 kN, reps, kRounds);
    std::fprintf(out, "  \"rows\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      std::fprintf(out,
                   "    {\"kernel\": \"%s\", \"level\": \"%s\", "
                   "\"ns_per_element\": %.4f, \"speedup_vs_scalar\": %.3f, "
                   "\"speedup_p25\": %.3f, \"speedup_p75\": %.3f}%s\n",
                   rows[i].kernel.c_str(), rows[i].level.c_str(),
                   rows[i].ns_per_element, rows[i].speedup_vs_scalar,
                   rows[i].speedup_p25, rows[i].speedup_p75,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("rows -> %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace cardbench

int main(int argc, char** argv) { return cardbench::Run(argc, argv); }
