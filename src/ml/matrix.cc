#include "ml/matrix.h"

#include "common/logging.h"
#include "common/simd.h"

namespace cardbench {

Matrix Matrix::MatMul(const Matrix& other) const {
  CARDBENCH_CHECK(cols_ == other.rows(), "matmul shape mismatch");
  Matrix out(rows_, other.cols());
  const simd::KernelTable& kt = simd::Active();
  for (size_t i = 0; i < rows_; ++i) {
    const double* a = Row(i);
    double* o = out.Row(i);
    for (size_t k = 0; k < cols_; ++k) {
      const double av = a[k];
      // Zero-skip: one-hot / bitmap feature rows are mostly zeros, and
      // 0 * x contributes nothing (features are finite), so skipping is
      // bit-identical and saves the whole inner row pass.
      if (av == 0.0) continue;
      kt.axpy(o, other.Row(k), av, other.cols());
    }
  }
  return out;
}

Matrix Matrix::MatMulTransposed(const Matrix& other) const {
  CARDBENCH_CHECK(cols_ == other.cols(), "matmulT shape mismatch");
  Matrix out(rows_, other.rows());
  // Every output element is one kernel-layer dot product under the 16-lane
  // striped contract (simd.h), for every batch size: single-row inference
  // and batched inference produce bit-identical activations by construction,
  // and so do the scalar/AVX2/AVX-512 dispatch tiers.
  const simd::KernelTable& kt = simd::Active();
  for (size_t i = 0; i < rows_; ++i) {
    const double* a = Row(i);
    double* o = out.Row(i);
    for (size_t j = 0; j < other.rows(); ++j) {
      o[j] = kt.dot(a, other.Row(j), cols_);
    }
  }
  return out;
}

Matrix Matrix::TransposedMatMul(const Matrix& other) const {
  CARDBENCH_CHECK(rows_ == other.rows(), "Tmatmul shape mismatch");
  Matrix out(cols_, other.cols());
  const simd::KernelTable& kt = simd::Active();
  for (size_t i = 0; i < rows_; ++i) {
    const double* a = Row(i);
    const double* b = other.Row(i);
    for (size_t k = 0; k < cols_; ++k) {
      const double av = a[k];
      if (av == 0.0) continue;
      kt.axpy(out.Row(k), b, av, other.cols());
    }
  }
  return out;
}

void Matrix::AddInPlace(const Matrix& other, double scale) {
  CARDBENCH_CHECK(rows_ == other.rows() && cols_ == other.cols(),
                  "add shape mismatch");
  simd::Active().axpy(data_.data(), other.data().data(), scale, data_.size());
}

}  // namespace cardbench
