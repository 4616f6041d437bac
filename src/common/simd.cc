#include "common/simd.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "common/simd_internal.h"

namespace cardbench::simd {

namespace {

using internal::CmpApply;
using internal::ReduceDotLanes;
using internal::WithCmp;

// ----------------------------------------------------------- scalar tier
//
// The scalar kernels fix the reference semantics: elementwise loops in
// ascending index order, the 16-lane striped dot, and branchless selection
// compaction. Every vector tier reproduces these bit-for-bit.

void AxpyScalar(double* dst, const double* x, double a, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] += a * x[i];
}

void VecAddScalar(double* dst, const double* x, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] += x[i];
}

void VecScaleScalar(double* x, double a, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] *= a;
}

void AddBiasScalar(double* x, const double* bias, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] += bias[i];
}

void ReluScalar(double* x, size_t n) {
  // std::max(0.0, v) returns the first argument on ties and when the
  // comparison is unordered — exactly maxpd(v, 0)'s second-operand rule —
  // so -0.0 and NaN both map to +0.0 in every tier.
  for (size_t i = 0; i < n; ++i) x[i] = std::max(0.0, x[i]);
}

double DotScalar(const double* a, const double* b, size_t n) {
  double lanes[kDotLanes] = {0.0};
  size_t i = 0;
  for (; i + kDotLanes <= n; i += kDotLanes) {
    for (size_t l = 0; l < kDotLanes; ++l) lanes[l] += a[i + l] * b[i + l];
  }
  for (; i < n; ++i) lanes[i % kDotLanes] += a[i] * b[i];
  return ReduceDotLanes(lanes);
}

template <Cmp kOp>
size_t FilterRangeScalarT(const int64_t* values, const uint8_t* valid,
                          size_t begin, size_t end, int64_t rhs,
                          uint32_t* out) {
  size_t count = 0;
  for (size_t row = begin; row < end; ++row) {
    out[count] = static_cast<uint32_t>(row);
    count += (valid[row] && CmpApply(kOp, values[row], rhs)) ? 1 : 0;
  }
  return count;
}

template <Cmp kOp>
size_t FilterRowsScalarT(const int64_t* values, const uint8_t* valid,
                         uint32_t* rows, size_t n, int64_t rhs) {
  size_t out = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t row = rows[i];
    rows[out] = row;
    out += (valid[row] && CmpApply(kOp, values[row], rhs)) ? 1 : 0;
  }
  return out;
}

size_t FilterRangeScalar(const int64_t* values, const uint8_t* valid,
                         size_t begin, size_t end, Cmp op, int64_t rhs,
                         uint32_t* out) {
  return WithCmp(op, [&](auto k) {
    return FilterRangeScalarT<decltype(k)::value>(values, valid, begin, end,
                                                  rhs, out);
  });
}

size_t FilterRowsScalar(const int64_t* values, const uint8_t* valid,
                        uint32_t* rows, size_t n, Cmp op, int64_t rhs) {
  return WithCmp(op, [&](auto k) {
    return FilterRowsScalarT<decltype(k)::value>(values, valid, rows, n, rhs);
  });
}

void GatherScalar(const int64_t* values, const uint8_t* valid,
                  const uint32_t* rows, size_t n, int64_t* keys,
                  uint8_t* valid_out) {
  for (size_t i = 0; i < n; ++i) {
    keys[i] = values[rows[i]];
    valid_out[i] = valid[rows[i]];
  }
}

constexpr KernelTable kScalarKernels = {
    AxpyScalar,       VecAddScalar,    VecScaleScalar,
    AddBiasScalar,    ReluScalar,      DotScalar,
    FilterRangeScalar, FilterRowsScalar, GatherScalar,
};

// -------------------------------------------------------------- dispatch

Level ClampToBuild(Level level) {
  if (level >= Level::kAvx512 && internal::GetAvx512Kernels() == nullptr) {
    level = Level::kAvx2;
  }
  if (level >= Level::kAvx2 && internal::GetAvx2Kernels() == nullptr) {
    level = Level::kScalar;
  }
  return level;
}

Level DetectImpl() {
  Level best = Level::kScalar;
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) best = Level::kAvx2;
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vl")) {
    best = Level::kAvx512;
  }
#endif
  return ClampToBuild(best);
}

/// ForceLevel state; plain (non-atomic) by contract — test/bench only,
/// mutated before workers exist.
bool g_forced = false;
Level g_forced_level = Level::kScalar;

/// DetectLevel() clamped by CARDBENCH_SIMD. An unknown value aborts: a
/// misspelled clamp would otherwise dispatch to the widest tier silently,
/// the opposite of what the variable asks for.
Level EnvLevel() {
  const char* env = std::getenv("CARDBENCH_SIMD");
  if (env == nullptr || *env == '\0') return DetectLevel();
  Level parsed;
  CARDBENCH_CHECK(ParseLevelName(env, &parsed),
                  "CARDBENCH_SIMD=%s is not one of scalar|avx2|avx512", env);
  return std::min(DetectLevel(), parsed);
}

}  // namespace

#if !defined(CARDBENCH_NATIVE_KERNELS)
namespace internal {
const KernelTable* GetAvx2Kernels() { return nullptr; }
const KernelTable* GetAvx512Kernels() { return nullptr; }
}  // namespace internal
#endif

Level DetectLevel() {
  static const Level detected = DetectImpl();
  return detected;
}

Level ActiveLevel() {
  if (g_forced) return g_forced_level;
  static const Level env_level = EnvLevel();
  return env_level;
}

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kAvx2: return "avx2";
    case Level::kAvx512: return "avx512";
  }
  return "unknown";
}

bool ParseLevelName(const char* name, Level* out) {
  if (name == nullptr) return false;
  for (Level level : {Level::kScalar, Level::kAvx2, Level::kAvx512}) {
    if (std::strcmp(name, LevelName(level)) == 0) {
      *out = level;
      return true;
    }
  }
  return false;
}

const KernelTable& KernelsFor(Level level) {
  level = std::min(level, DetectLevel());
  switch (level) {
    case Level::kAvx512: {
      const KernelTable* t = internal::GetAvx512Kernels();
      if (t != nullptr) return *t;
      [[fallthrough]];
    }
    case Level::kAvx2: {
      const KernelTable* t = internal::GetAvx2Kernels();
      if (t != nullptr) return *t;
      [[fallthrough]];
    }
    case Level::kScalar:
      return kScalarKernels;
  }
  return kScalarKernels;
}

const KernelTable& Active() { return KernelsFor(ActiveLevel()); }

void ForceLevel(Level level) {
  g_forced_level = std::min(level, DetectLevel());
  g_forced = true;
}

void ClearForcedLevel() { g_forced = false; }

}  // namespace cardbench::simd
