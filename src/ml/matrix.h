#ifndef CARDBENCH_ML_MATRIX_H_
#define CARDBENCH_ML_MATRIX_H_

#include <cstddef>
#include <vector>

namespace cardbench {

/// Dense row-major matrix of doubles. Deliberately minimal: the learned
/// estimators only need matmul, transposed matmul variants and elementwise
/// ops, at batch sizes where cache-friendly loops are plenty fast on CPU.
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& At(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double At(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  double* Row(size_t r) { return data_.data() + r * cols_; }
  const double* Row(size_t r) const { return data_.data() + r * cols_; }

  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

  /// this (m×k) times other (k×n) -> (m×n).
  Matrix MatMul(const Matrix& other) const;

  /// this (m×k) times other^T, other is (n×k) -> (m×n). The common layout
  /// for applying a weight matrix stored as (out×in) to activations (batch×in).
  Matrix MatMulTransposed(const Matrix& other) const;

  /// this^T (k×m)^T... i.e. returns this^T * other where this is (m×k),
  /// other (m×n) -> (k×n). Used for weight gradients.
  Matrix TransposedMatMul(const Matrix& other) const;

  void AddInPlace(const Matrix& other, double scale = 1.0);

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace cardbench

#endif  // CARDBENCH_ML_MATRIX_H_
