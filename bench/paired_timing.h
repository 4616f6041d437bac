// Paired-measurement helpers for the micro-benches behind the
// check_perf_floor gate (bench_kernels, bench_micro_join). A speedup there
// is the median over rounds of a ratio whose two timings ran back to back
// in the same round, so a host-speed shift between rounds (VM steal, a
// frequency change) cancels instead of landing in the ratio.

#ifndef CARDBENCH_BENCH_PAIRED_TIMING_H_
#define CARDBENCH_BENCH_PAIRED_TIMING_H_

#include <algorithm>
#include <cmath>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

namespace cardbench {

/// Quantile `q` in [0, 1] of `values` (linear interpolation between
/// closest ranks); 0 for an empty input.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

/// The CPUs the calling thread may run on, ascending; empty where
/// affinity is unavailable.
inline std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
#endif
  return cpus;
}

/// Pins the calling thread to `cpu`. Best effort: a no-op where affinity
/// is unavailable.
inline void PinToCpu(int cpu) {
#ifdef __linux__
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof(one), &one);
#else
  (void)cpu;
#endif
}

}  // namespace cardbench

#endif  // CARDBENCH_BENCH_PAIRED_TIMING_H_
