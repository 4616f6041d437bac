#ifndef CARDBENCH_COMMON_CPU_INFO_H_
#define CARDBENCH_COMMON_CPU_INFO_H_

#include <string>

namespace cardbench {

/// CPU model name from /proc/cpuinfo ("model name" line), or "unknown" when
/// unavailable. Cached after the first read.
const std::string& CpuModelName();

/// Best SIMD tier this host + build can dispatch to ("scalar", "avx2",
/// "avx512"); simd::LevelName(simd::DetectLevel()).
const char* CpuSimdCapability();

/// JSON object fragment `"cpu": {"model": ..., "simd": ...}` recorded in
/// every bench JSON so perf trajectories are comparable across machines.
std::string CpuInfoJson();

}  // namespace cardbench

#endif  // CARDBENCH_COMMON_CPU_INFO_H_
