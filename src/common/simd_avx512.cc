// AVX-512 kernel tier (F+DQ+BW+VL). Compiled with the matching -mavx512*
// flags in its own translation unit; the dispatcher requires all four
// features before handing these kernels out. No FMA intrinsics — the
// bit-identity contract forbids fused rounding.

#include "common/simd_internal.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512BW__) && \
    defined(__AVX512VL__)

#include <immintrin.h>

#include <algorithm>

namespace cardbench::simd {

namespace {

using internal::CmpApply;
using internal::ReduceDotLanes;
using internal::WithCmp;

void AxpyAvx512(double* dst, const double* x, double a, size_t n) {
  const __m512d va = _mm512_set1_pd(a);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d r = _mm512_add_pd(
        _mm512_loadu_pd(dst + i), _mm512_mul_pd(va, _mm512_loadu_pd(x + i)));
    _mm512_storeu_pd(dst + i, r);
  }
  for (; i < n; ++i) dst[i] += a * x[i];
}

void VecAddAvx512(double* dst, const double* x, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(dst + i, _mm512_add_pd(_mm512_loadu_pd(dst + i),
                                            _mm512_loadu_pd(x + i)));
  }
  for (; i < n; ++i) dst[i] += x[i];
}

void VecScaleAvx512(double* x, double a, size_t n) {
  const __m512d va = _mm512_set1_pd(a);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(x + i, _mm512_mul_pd(_mm512_loadu_pd(x + i), va));
  }
  for (; i < n; ++i) x[i] *= a;
}

void AddBiasAvx512(double* x, const double* bias, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(x + i, _mm512_add_pd(_mm512_loadu_pd(x + i),
                                          _mm512_loadu_pd(bias + i)));
  }
  for (; i < n; ++i) x[i] += bias[i];
}

void ReluAvx512(double* x, size_t n) {
  const __m512d zero = _mm512_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // max(x, 0): ties and NaN resolve to the second operand (+0.0).
    _mm512_storeu_pd(x + i, _mm512_max_pd(_mm512_loadu_pd(x + i), zero));
  }
  for (; i < n; ++i) x[i] = std::max(0.0, x[i]);
}

double DotAvx512(const double* a, const double* b, size_t n) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  size_t i = 0;
  for (; i + kDotLanes <= n; i += kDotLanes) {
    acc0 = _mm512_add_pd(acc0, _mm512_mul_pd(_mm512_loadu_pd(a + i),
                                             _mm512_loadu_pd(b + i)));
    acc1 = _mm512_add_pd(acc1, _mm512_mul_pd(_mm512_loadu_pd(a + i + 8),
                                             _mm512_loadu_pd(b + i + 8)));
  }
  alignas(64) double lanes[kDotLanes];
  _mm512_store_pd(lanes, acc0);
  _mm512_store_pd(lanes + 8, acc1);
  for (; i < n; ++i) lanes[i % kDotLanes] += a[i] * b[i];
  return ReduceDotLanes(lanes);
}

/// _MM_CMPINT predicate matching `kOp` for signed 64-bit compares.
template <Cmp kOp>
constexpr int CmpImm() {
  if constexpr (kOp == Cmp::kEq) return _MM_CMPINT_EQ;
  if constexpr (kOp == Cmp::kNeq) return _MM_CMPINT_NE;
  if constexpr (kOp == Cmp::kLt) return _MM_CMPINT_LT;
  if constexpr (kOp == Cmp::kLe) return _MM_CMPINT_LE;
  if constexpr (kOp == Cmp::kGt) return _MM_CMPINT_NLE;
  return _MM_CMPINT_NLT;  // kGe
}

/// 8-bit keep mask of non-zero validity bytes at v[0..8).
inline __mmask8 ValidMask8(const uint8_t* v) {
  const __m128i bytes = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(v));
  return static_cast<__mmask8>(_mm_test_epi8_mask(bytes, bytes));
}

template <Cmp kOp>
size_t FilterRangeAvx512T(const int64_t* values, const uint8_t* valid,
                          size_t begin, size_t end, int64_t rhs,
                          uint32_t* out) {
  size_t count = 0;
  size_t row = begin;
  const __m512i vrhs = _mm512_set1_epi64(rhs);
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (; row + 8 <= end; row += 8) {
    const __m512i v = _mm512_loadu_si512(values + row);
    const __mmask8 m = _mm512_cmp_epi64_mask(v, vrhs, CmpImm<kOp>()) &
                       ValidMask8(valid + row);
    const __m256i idx =
        _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(row)), iota);
    // Compress-store writes exactly popcount(m) lanes — no slack needed.
    _mm256_mask_compressstoreu_epi32(out + count, m, idx);
    count += static_cast<size_t>(__builtin_popcount(m));
  }
  for (; row < end; ++row) {
    out[count] = static_cast<uint32_t>(row);
    count += (valid[row] && CmpApply(kOp, values[row], rhs)) ? 1 : 0;
  }
  return count;
}

template <Cmp kOp>
size_t FilterRowsAvx512T(const int64_t* values, const uint8_t* valid,
                         uint32_t* rows, size_t n, int64_t rhs) {
  size_t out = 0;
  size_t i = 0;
  const __m512i vrhs = _mm512_set1_epi64(rhs);
  for (; i + 8 <= n; i += 8) {
    const __m256i rid =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows + i));
    const __m512i v = _mm512_i32gather_epi64(rid, values, 8);
    __mmask8 m = _mm512_cmp_epi64_mask(v, vrhs, CmpImm<kOp>());
    __mmask8 vm = 0;
    for (int k = 0; k < 8; ++k) {
      vm = static_cast<__mmask8>(vm |
                                 ((valid[rows[i + k]] ? 1u : 0u) << k));
    }
    m &= vm;
    // In-place compaction: out <= i and rows[i..i+7] are already loaded.
    _mm256_mask_compressstoreu_epi32(rows + out, m, rid);
    out += static_cast<size_t>(__builtin_popcount(m));
  }
  for (; i < n; ++i) {
    const uint32_t row = rows[i];
    rows[out] = row;
    out += (valid[row] && CmpApply(kOp, values[row], rhs)) ? 1 : 0;
  }
  return out;
}

size_t FilterRangeAvx512(const int64_t* values, const uint8_t* valid,
                         size_t begin, size_t end, Cmp op, int64_t rhs,
                         uint32_t* out) {
  return WithCmp(op, [&](auto k) {
    return FilterRangeAvx512T<decltype(k)::value>(values, valid, begin, end,
                                                  rhs, out);
  });
}

size_t FilterRowsAvx512(const int64_t* values, const uint8_t* valid,
                        uint32_t* rows, size_t n, Cmp op, int64_t rhs) {
  return WithCmp(op, [&](auto k) {
    return FilterRowsAvx512T<decltype(k)::value>(values, valid, rows, n, rhs);
  });
}

void GatherAvx512(const int64_t* values, const uint8_t* valid,
                  const uint32_t* rows, size_t n, int64_t* keys,
                  uint8_t* valid_out) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i rid =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows + i));
    _mm512_storeu_si512(keys + i, _mm512_i32gather_epi64(rid, values, 8));
    for (int k = 0; k < 8; ++k) valid_out[i + k] = valid[rows[i + k]];
  }
  for (; i < n; ++i) {
    keys[i] = values[rows[i]];
    valid_out[i] = valid[rows[i]];
  }
}

constexpr KernelTable kAvx512Kernels = {
    AxpyAvx512,        VecAddAvx512,     VecScaleAvx512,
    AddBiasAvx512,     ReluAvx512,       DotAvx512,
    FilterRangeAvx512, FilterRowsAvx512, GatherAvx512,
};

}  // namespace

namespace internal {
const KernelTable* GetAvx512Kernels() { return &kAvx512Kernels; }
}  // namespace internal

}  // namespace cardbench::simd

#else  // !AVX-512 F+DQ+BW+VL

namespace cardbench::simd::internal {
const KernelTable* GetAvx512Kernels() { return nullptr; }
}  // namespace cardbench::simd::internal

#endif
