// AVX2 kernel tier. Compiled with -mavx2 (and nothing wider) in its own
// translation unit; the dispatcher only hands these kernels out after
// __builtin_cpu_supports("avx2"), so nothing here runs on older hosts.
// No FMA: fused multiply-add rounds once where mul+add round twice, which
// would break the bit-identity contract with the scalar tier.

#include "common/simd_internal.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>

namespace cardbench::simd {

namespace {

using internal::CmpApply;
using internal::kCompress4;
using internal::ReduceDotLanes;
using internal::ValidMask4;
using internal::WithCmp;

void AxpyAvx2(double* dst, const double* x, double a, size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d r = _mm256_add_pd(
        _mm256_loadu_pd(dst + i), _mm256_mul_pd(va, _mm256_loadu_pd(x + i)));
    _mm256_storeu_pd(dst + i, r);
  }
  for (; i < n; ++i) dst[i] += a * x[i];
}

void VecAddAvx2(double* dst, const double* x, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i, _mm256_add_pd(_mm256_loadu_pd(dst + i),
                                            _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) dst[i] += x[i];
}

void VecScaleAvx2(double* x, double a, size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), va));
  }
  for (; i < n; ++i) x[i] *= a;
}

void AddBiasAvx2(double* x, const double* bias, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, _mm256_add_pd(_mm256_loadu_pd(x + i),
                                          _mm256_loadu_pd(bias + i)));
  }
  for (; i < n; ++i) x[i] += bias[i];
}

void ReluAvx2(double* x, size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // max(x, 0): ties and NaN resolve to the second operand (+0.0).
    _mm256_storeu_pd(x + i, _mm256_max_pd(_mm256_loadu_pd(x + i), zero));
  }
  for (; i < n; ++i) x[i] = std::max(0.0, x[i]);
}

double DotAvx2(const double* a, const double* b, size_t n) {
  __m256d acc[kDotLanes / 4];
  for (auto& v : acc) v = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + kDotLanes <= n; i += kDotLanes) {
    for (size_t j = 0; j < kDotLanes / 4; ++j) {
      acc[j] = _mm256_add_pd(
          acc[j], _mm256_mul_pd(_mm256_loadu_pd(a + i + 4 * j),
                                _mm256_loadu_pd(b + i + 4 * j)));
    }
  }
  alignas(32) double lanes[kDotLanes];
  for (size_t j = 0; j < kDotLanes / 4; ++j) {
    _mm256_store_pd(lanes + 4 * j, acc[j]);
  }
  for (; i < n; ++i) lanes[i % kDotLanes] += a[i] * b[i];
  return ReduceDotLanes(lanes);
}

/// 4-bit keep mask of `op` over four packed int64 values. Only eq/gt
/// compares exist pre-AVX-512; the other four are derived by swapping
/// operands and inverting.
template <Cmp kOp>
uint32_t CmpMask4x64(__m256i v, __m256i rhs) {
  __m256i m;
  if constexpr (kOp == Cmp::kEq || kOp == Cmp::kNeq) {
    m = _mm256_cmpeq_epi64(v, rhs);
  } else if constexpr (kOp == Cmp::kGt || kOp == Cmp::kLe) {
    m = _mm256_cmpgt_epi64(v, rhs);
  } else {  // kLt, kGe
    m = _mm256_cmpgt_epi64(rhs, v);
  }
  uint32_t bits =
      static_cast<uint32_t>(_mm256_movemask_pd(_mm256_castsi256_pd(m)));
  if constexpr (kOp == Cmp::kNeq || kOp == Cmp::kLe || kOp == Cmp::kGe) {
    bits ^= 0xFu;
  }
  return bits;
}

/// Compresses the 4 uint32 lanes of `v` by `mask` to the front.
inline __m128i Compress4(__m128i v, uint32_t mask) {
  return _mm_shuffle_epi8(
      v, _mm_load_si128(reinterpret_cast<const __m128i*>(kCompress4.b[mask])));
}

template <Cmp kOp>
size_t FilterRangeAvx2T(const int64_t* values, const uint8_t* valid,
                        size_t begin, size_t end, int64_t rhs, uint32_t* out) {
  size_t count = 0;
  size_t row = begin;
  const __m256i vrhs = _mm256_set1_epi64x(rhs);
  const __m128i iota = _mm_setr_epi32(0, 1, 2, 3);
  for (; row + 4 <= end; row += 4) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(values + row));
    const uint32_t m = CmpMask4x64<kOp>(v, vrhs) & ValidMask4(valid + row);
    const __m128i idx =
        _mm_add_epi32(_mm_set1_epi32(static_cast<int>(row)), iota);
    // Full-vector store: count <= row - begin, so count + 4 <= end - begin
    // stays inside the caller-guaranteed capacity; the lanes past the new
    // count are overwritten by the next iteration or discarded.
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + count),
                     Compress4(idx, m));
    count += static_cast<size_t>(__builtin_popcount(m));
  }
  for (; row < end; ++row) {
    out[count] = static_cast<uint32_t>(row);
    count += (valid[row] && CmpApply(kOp, values[row], rhs)) ? 1 : 0;
  }
  return count;
}

template <Cmp kOp>
size_t FilterRowsAvx2T(const int64_t* values, const uint8_t* valid,
                       uint32_t* rows, size_t n, int64_t rhs) {
  // 8 elements per iteration: two 4-wide vpgatherqq for the values (the
  // wider batch amortizes the gather's micro-coded startup, which made the
  // 4-wide version lose to branchless scalar), a pinsrb-built vector for
  // the valid bytes (movemask beats the scalar shift-or chain), and a
  // shuffle-table compaction per half.
  size_t out = 0;
  size_t i = 0;
  const __m256i vrhs = _mm256_set1_epi64x(rhs);
  for (; i + 8 <= n; i += 8) {
    const __m128i rid_lo =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows + i));
    const __m128i rid_hi =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows + i + 4));
    const __m256i v_lo = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(values), rid_lo, 8);
    const __m256i v_hi = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(values), rid_hi, 8);
    __m128i vbytes = _mm_setzero_si128();
    vbytes = _mm_insert_epi8(vbytes, valid[rows[i + 0]], 0);
    vbytes = _mm_insert_epi8(vbytes, valid[rows[i + 1]], 1);
    vbytes = _mm_insert_epi8(vbytes, valid[rows[i + 2]], 2);
    vbytes = _mm_insert_epi8(vbytes, valid[rows[i + 3]], 3);
    vbytes = _mm_insert_epi8(vbytes, valid[rows[i + 4]], 4);
    vbytes = _mm_insert_epi8(vbytes, valid[rows[i + 5]], 5);
    vbytes = _mm_insert_epi8(vbytes, valid[rows[i + 6]], 6);
    vbytes = _mm_insert_epi8(vbytes, valid[rows[i + 7]], 7);
    const uint32_t vm = static_cast<uint32_t>(_mm_movemask_epi8(
        _mm_cmpgt_epi8(vbytes, _mm_setzero_si128())));
    const uint32_t m =
        (CmpMask4x64<kOp>(v_lo, vrhs) | (CmpMask4x64<kOp>(v_hi, vrhs) << 4)) &
        vm;
    // In-place compaction: out <= i, and rows[i..i+7] are already loaded,
    // so the (full-vector) stores never clobber unread input.
    const uint32_t m_lo = m & 0xFu;
    _mm_storeu_si128(reinterpret_cast<__m128i*>(rows + out),
                     Compress4(rid_lo, m_lo));
    out += static_cast<size_t>(__builtin_popcount(m_lo));
    const uint32_t m_hi = m >> 4;
    _mm_storeu_si128(reinterpret_cast<__m128i*>(rows + out),
                     Compress4(rid_hi, m_hi));
    out += static_cast<size_t>(__builtin_popcount(m_hi));
  }
  for (; i < n; ++i) {
    const uint32_t row = rows[i];
    rows[out] = row;
    out += (valid[row] && CmpApply(kOp, values[row], rhs)) ? 1 : 0;
  }
  return out;
}

size_t FilterRangeAvx2(const int64_t* values, const uint8_t* valid,
                       size_t begin, size_t end, Cmp op, int64_t rhs,
                       uint32_t* out) {
  return WithCmp(op, [&](auto k) {
    return FilterRangeAvx2T<decltype(k)::value>(values, valid, begin, end,
                                                rhs, out);
  });
}

size_t FilterRowsAvx2(const int64_t* values, const uint8_t* valid,
                      uint32_t* rows, size_t n, Cmp op, int64_t rhs) {
  return WithCmp(op, [&](auto k) {
    return FilterRowsAvx2T<decltype(k)::value>(values, valid, rows, n, rhs);
  });
}

void GatherAvx2(const int64_t* values, const uint8_t* valid,
                const uint32_t* rows, size_t n, int64_t* keys,
                uint8_t* valid_out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i rid =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows + i));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(keys + i),
        _mm256_i32gather_epi64(reinterpret_cast<const long long*>(values),
                               rid, 8));
    valid_out[i] = valid[rows[i]];
    valid_out[i + 1] = valid[rows[i + 1]];
    valid_out[i + 2] = valid[rows[i + 2]];
    valid_out[i + 3] = valid[rows[i + 3]];
  }
  for (; i < n; ++i) {
    keys[i] = values[rows[i]];
    valid_out[i] = valid[rows[i]];
  }
}

constexpr KernelTable kAvx2Kernels = {
    AxpyAvx2,        VecAddAvx2,     VecScaleAvx2,
    AddBiasAvx2,     ReluAvx2,       DotAvx2,
    FilterRangeAvx2, FilterRowsAvx2, GatherAvx2,
};

}  // namespace

namespace internal {
const KernelTable* GetAvx2Kernels() { return &kAvx2Kernels; }
}  // namespace internal

}  // namespace cardbench::simd

#else  // !__AVX2__

namespace cardbench::simd::internal {
const KernelTable* GetAvx2Kernels() { return nullptr; }
}  // namespace cardbench::simd::internal

#endif  // __AVX2__
