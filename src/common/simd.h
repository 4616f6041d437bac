#ifndef CARDBENCH_COMMON_SIMD_H_
#define CARDBENCH_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace cardbench::simd {

/// Dispatch tiers of the shared kernel layer. Every tier implements the same
/// kernel table; DetectLevel() picks the best one the host CPU and the build
/// (CARDBENCH_NATIVE) support, and the CARDBENCH_SIMD environment variable
/// ("scalar", "avx2", "avx512"; any other value aborts) clamps it down for
/// testing the fallback paths.
enum class Level : uint8_t {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// Comparison operator of the integer filter kernels. Mirrors the numeric
/// values of query/predicate.h's CompareOp so storage can cast between them
/// without depending on this header's ordering by accident (column.cc
/// static_asserts the correspondence).
enum class Cmp : uint8_t {
  kEq = 0,
  kNeq = 1,
  kLt = 2,
  kLe = 3,
  kGt = 4,
  kGe = 5,
};

/// Accumulator lanes of the dot-product contract. `dot` sums products into
/// 16 logical lanes — lane l accumulates the products of elements with
/// index ≡ l (mod 16), in ascending index order — and reduces them in a
/// fixed binary tree: g_i = (l_{4i} + l_{4i+1}) + (l_{4i+2} + l_{4i+3}),
/// result = (g_0 + g_1) + (g_2 + g_3). Every tier implements exactly this
/// structure (scalar keeps 16 independent accumulators; AVX2 four 4-wide
/// vectors; AVX-512 two 8-wide vectors), no tier uses FMA, and the build
/// disables FP contraction, so all tiers are bit-identical.
inline constexpr size_t kDotLanes = 16;

/// One tier's kernel implementations. The double kernels other than `dot`
/// are elementwise (no cross-element reduction), so bit-identity across
/// tiers is structural; `dot` follows the kDotLanes contract above; the
/// int64 filter/gather kernels are exact.
struct KernelTable {
  /// dst[i] += a * x[i] for i in [0, n).
  void (*axpy)(double* dst, const double* x, double a, size_t n);
  /// dst[i] += x[i] for i in [0, n).
  void (*vec_add)(double* dst, const double* x, size_t n);
  /// x[i] *= a for i in [0, n).
  void (*vec_scale)(double* x, double a, size_t n);
  /// x[i] += bias[i] for i in [0, n).
  void (*add_bias)(double* x, const double* bias, size_t n);
  /// x[i] = max(+0.0, x[i]); -0.0 maps to +0.0 and NaN to +0.0 in every
  /// tier (the scalar tier mirrors maxpd's second-operand-on-tie rule).
  void (*relu)(double* x, size_t n);
  /// 16-lane striped dot product of a[0..n) and b[0..n); see kDotLanes.
  double (*dot)(const double* a, const double* b, size_t n);
  /// Writes to out[] the ids of rows in [begin, end) whose value is valid
  /// (valid[row] != 0) and satisfies `op rhs`, ascending. Returns the count.
  /// `out` must have capacity for end - begin entries; vector tiers may
  /// store up to one full vector past the final count (never past the
  /// capacity).
  size_t (*filter_range)(const int64_t* values, const uint8_t* valid,
                         size_t begin, size_t end, Cmp op, int64_t rhs,
                         uint32_t* out);
  /// Compacts rows[0, n) in place, keeping (in order) ids whose value is
  /// valid and satisfies `op rhs`. Returns the new count. Row ids must be
  /// < 2^31 (they index the gather kernels' signed-int32 lanes).
  size_t (*filter_rows)(const int64_t* values, const uint8_t* valid,
                        uint32_t* rows, size_t n, Cmp op, int64_t rhs);
  /// keys[i] = values[rows[i]], valid_out[i] = valid[rows[i]] for [0, n).
  void (*gather)(const int64_t* values, const uint8_t* valid,
                 const uint32_t* rows, size_t n, int64_t* keys,
                 uint8_t* valid_out);
};

/// Best tier supported by this CPU and build. Stable for the process.
Level DetectLevel();

/// The dispatch decision: DetectLevel() clamped by CARDBENCH_SIMD and by
/// ForceLevel(). Reads the environment once, on the first call, and aborts
/// with a message if CARDBENCH_SIMD is set to an unknown level name.
Level ActiveLevel();

/// "scalar", "avx2" or "avx512".
const char* LevelName(Level level);

/// Parses a level name; false on unknown names.
bool ParseLevelName(const char* name, Level* out);

/// Kernel table of `level`, clamped to DetectLevel() so the returned
/// kernels are always executable on this host.
const KernelTable& KernelsFor(Level level);

/// Kernel table of ActiveLevel() — what the hot paths dispatch through.
const KernelTable& Active();

/// Test/bench-only override of ActiveLevel(), clamped to DetectLevel().
/// Not thread-safe; call before spawning workers.
void ForceLevel(Level level);
void ClearForcedLevel();

}  // namespace cardbench::simd

#endif  // CARDBENCH_COMMON_SIMD_H_
