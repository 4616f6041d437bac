#ifndef CARDBENCH_COMMON_SIMD_INTERNAL_H_
#define CARDBENCH_COMMON_SIMD_INTERNAL_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "common/simd.h"

/// Shared between simd.cc (dispatch + scalar tier) and the
/// ISA-specific translation units (simd_avx2.cc / simd_avx512.cc, compiled
/// with their own -m flags when CARDBENCH_NATIVE is on). Nothing here is
/// part of the public kernel API.

namespace cardbench::simd::internal {

/// Scalar comparator used by every tier's tail loop.
inline bool CmpApply(Cmp op, int64_t a, int64_t b) {
  switch (op) {
    case Cmp::kEq: return a == b;
    case Cmp::kNeq: return a != b;
    case Cmp::kLt: return a < b;
    case Cmp::kLe: return a <= b;
    case Cmp::kGt: return a > b;
    case Cmp::kGe: return a >= b;
  }
  return false;
}

/// Calls `fn(std::integral_constant<Cmp, k>{})` for the `k` equal to `op`,
/// so every tier's filter entry points pick their `<Cmp kOp>` instantiation
/// once, outside the row loop.
template <typename Fn>
auto WithCmp(Cmp op, Fn&& fn) {
  switch (op) {
    case Cmp::kEq: return fn(std::integral_constant<Cmp, Cmp::kEq>{});
    case Cmp::kNeq: return fn(std::integral_constant<Cmp, Cmp::kNeq>{});
    case Cmp::kLt: return fn(std::integral_constant<Cmp, Cmp::kLt>{});
    case Cmp::kLe: return fn(std::integral_constant<Cmp, Cmp::kLe>{});
    case Cmp::kGt: return fn(std::integral_constant<Cmp, Cmp::kGt>{});
    case Cmp::kGe: return fn(std::integral_constant<Cmp, Cmp::kGe>{});
  }
  return fn(std::integral_constant<Cmp, Cmp::kEq>{});
}

/// The fixed lane-reduction tree of the dot contract (see simd.h). Every
/// tier materializes its accumulators into 16 doubles and reduces here, so
/// the final rounding sequence is identical by construction.
inline double ReduceDotLanes(const double* lanes) {
  const double g0 = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  const double g1 = (lanes[4] + lanes[5]) + (lanes[6] + lanes[7]);
  const double g2 = (lanes[8] + lanes[9]) + (lanes[10] + lanes[11]);
  const double g3 = (lanes[12] + lanes[13]) + (lanes[14] + lanes[15]);
  return (g0 + g1) + (g2 + g3);
}

/// Byte-shuffle table compressing 4 uint32 lanes by a 4-bit keep mask:
/// row m moves the kept lanes to the front (0x80 zeroes the rest). Drives
/// the AVX2 filter kernels' compress-store.
struct Compress4Lut {
  alignas(16) uint8_t b[16][16];
};

constexpr Compress4Lut MakeCompress4Lut() {
  Compress4Lut lut{};
  for (int m = 0; m < 16; ++m) {
    int out = 0;
    for (int p = 0; p < 4; ++p) {
      if ((m >> p) & 1) {
        for (int k = 0; k < 4; ++k) {
          lut.b[m][4 * out + k] = static_cast<uint8_t>(4 * p + k);
        }
        ++out;
      }
    }
    for (; out < 4; ++out) {
      for (int k = 0; k < 4; ++k) lut.b[m][4 * out + k] = 0x80;
    }
  }
  return lut;
}

inline constexpr Compress4Lut kCompress4 = MakeCompress4Lut();

/// Validity bytes -> keep-mask bits (bit i set iff v[i] != 0).
inline uint32_t ValidMask4(const uint8_t* v) {
  return (v[0] ? 1u : 0u) | (v[1] ? 2u : 0u) | (v[2] ? 4u : 0u) |
         (v[3] ? 8u : 0u);
}

/// Tier tables provided by the ISA-specific TUs; nullptr when the build
/// does not include them (CARDBENCH_NATIVE=OFF or non-x86 target).
const KernelTable* GetAvx2Kernels();
const KernelTable* GetAvx512Kernels();

}  // namespace cardbench::simd::internal

#endif  // CARDBENCH_COMMON_SIMD_INTERNAL_H_
