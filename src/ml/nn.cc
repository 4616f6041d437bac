#include "ml/nn.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/serde.h"
#include "common/simd.h"

namespace cardbench {

namespace {
constexpr double kAdamBeta1 = 0.9;
constexpr double kAdamBeta2 = 0.999;
constexpr double kAdamEps = 1e-8;
}  // namespace

LinearLayer::LinearLayer(size_t in_dim, size_t out_dim, Rng& rng)
    : weight_(out_dim, in_dim),
      bias_(out_dim, 0.0),
      grad_weight_(out_dim, in_dim),
      grad_bias_(out_dim, 0.0),
      m_weight_(out_dim, in_dim),
      v_weight_(out_dim, in_dim),
      m_bias_(out_dim, 0.0),
      v_bias_(out_dim, 0.0) {
  // He initialization, appropriate for ReLU nets.
  const double scale = std::sqrt(2.0 / static_cast<double>(in_dim));
  for (double& w : weight_.data()) w = rng.NextGaussian() * scale;
}

void LinearLayer::SetMask(Matrix mask) {
  CARDBENCH_CHECK(mask.rows() == weight_.rows() &&
                      mask.cols() == weight_.cols(),
                  "mask shape mismatch");
  mask_ = std::move(mask);
  ApplyMask();
}

void LinearLayer::ApplyMask() {
  if (mask_.rows() == 0) return;
  for (size_t i = 0; i < weight_.data().size(); ++i) {
    weight_.data()[i] *= mask_.data()[i];
  }
}

Matrix LinearLayer::Forward(const Matrix& x) const {
  Matrix y = x.MatMulTransposed(weight_);
  const simd::KernelTable& kt = simd::Active();
  for (size_t r = 0; r < y.rows(); ++r) {
    kt.add_bias(y.Row(r), bias_.data(), y.cols());
  }
  return y;
}

Matrix LinearLayer::Backward(const Matrix& x, const Matrix& grad_out) {
  // dW = grad_out^T x ; db = column sums of grad_out ; dx = grad_out W.
  grad_weight_.AddInPlace(grad_out.TransposedMatMul(x));
  const simd::KernelTable& kt = simd::Active();
  for (size_t r = 0; r < grad_out.rows(); ++r) {
    kt.vec_add(grad_bias_.data(), grad_out.Row(r), grad_out.cols());
  }
  return grad_out.MatMul(weight_);
}

void LinearLayer::Step(double lr) {
  ++step_;
  const double bc1 = 1.0 - std::pow(kAdamBeta1, static_cast<double>(step_));
  const double bc2 = 1.0 - std::pow(kAdamBeta2, static_cast<double>(step_));
  for (size_t i = 0; i < weight_.data().size(); ++i) {
    const double g = grad_weight_.data()[i];
    double& m = m_weight_.data()[i];
    double& v = v_weight_.data()[i];
    m = kAdamBeta1 * m + (1 - kAdamBeta1) * g;
    v = kAdamBeta2 * v + (1 - kAdamBeta2) * g * g;
    weight_.data()[i] -= lr * (m / bc1) / (std::sqrt(v / bc2) + kAdamEps);
    grad_weight_.data()[i] = 0.0;
  }
  for (size_t i = 0; i < bias_.size(); ++i) {
    const double g = grad_bias_[i];
    double& m = m_bias_[i];
    double& v = v_bias_[i];
    m = kAdamBeta1 * m + (1 - kAdamBeta1) * g;
    v = kAdamBeta2 * v + (1 - kAdamBeta2) * g * g;
    bias_[i] -= lr * (m / bc1) / (std::sqrt(v / bc2) + kAdamEps);
    grad_bias_[i] = 0.0;
  }
  ApplyMask();
}

Mlp::Mlp(const std::vector<size_t>& dims, Rng& rng) {
  CARDBENCH_CHECK(dims.size() >= 2, "Mlp needs at least input and output dim");
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.emplace_back(dims[i], dims[i + 1], rng);
  }
}

Matrix Mlp::Forward(const Matrix& x) {
  inputs_.clear();
  pre_act_.clear();
  Matrix h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    inputs_.push_back(h);
    Matrix z = layers_[i].Forward(h);
    if (i + 1 < layers_.size()) {
      pre_act_.push_back(z);
      simd::Active().relu(z.data().data(), z.data().size());
    } else {
      pre_act_.push_back(Matrix());
    }
    h = std::move(z);
  }
  return h;
}

Matrix Mlp::Infer(const Matrix& x) const {
  Matrix h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    Matrix z = layers_[i].Forward(h);
    if (i + 1 < layers_.size()) {
      simd::Active().relu(z.data().data(), z.data().size());
    }
    h = std::move(z);
  }
  return h;
}

Matrix Mlp::Backward(const Matrix& grad_out) {
  CARDBENCH_CHECK(inputs_.size() == layers_.size(),
                  "Backward without Forward");
  Matrix grad = grad_out;
  for (size_t i = layers_.size(); i-- > 0;) {
    if (i + 1 < layers_.size()) {
      // Chain through the ReLU applied to this layer's output.
      const Matrix& z = pre_act_[i];
      for (size_t k = 0; k < grad.data().size(); ++k) {
        if (z.data()[k] <= 0.0) grad.data()[k] = 0.0;
      }
    }
    grad = layers_[i].Backward(inputs_[i], grad);
  }
  return grad;
}

void Mlp::Step(double lr) {
  for (auto& layer : layers_) layer.Step(lr);
}

void LinearLayer::SerializeParams(SectionWriter& out) const {
  out.PutU64(weight_.rows());
  out.PutU64(weight_.cols());
  out.PutDoubles(weight_.data());
  out.PutDoubles(bias_);
}

Status LinearLayer::LoadParams(SectionReader& in) {
  CARDBENCH_ASSIGN_OR_RETURN(uint64_t rows, in.GetU64());
  CARDBENCH_ASSIGN_OR_RETURN(uint64_t cols, in.GetU64());
  if (rows != weight_.rows() || cols != weight_.cols()) {
    return Status::InvalidArgument(
        "layer shape mismatch: artifact " + std::to_string(rows) + "x" +
        std::to_string(cols) + ", model " + std::to_string(weight_.rows()) +
        "x" + std::to_string(weight_.cols()));
  }
  CARDBENCH_ASSIGN_OR_RETURN(std::vector<double> w, in.GetDoubles());
  CARDBENCH_ASSIGN_OR_RETURN(std::vector<double> b, in.GetDoubles());
  if (w.size() != weight_.data().size() || b.size() != bias_.size()) {
    return Status::InvalidArgument("layer parameter count mismatch");
  }
  weight_.data() = std::move(w);
  bias_ = std::move(b);
  ApplyMask();
  return Status::OK();
}

void Mlp::SerializeParams(SectionWriter& out) const {
  out.PutU64(layers_.size());
  for (const auto& layer : layers_) layer.SerializeParams(out);
}

Status Mlp::LoadParams(SectionReader& in) {
  CARDBENCH_ASSIGN_OR_RETURN(uint64_t n, in.GetU64());
  if (n != layers_.size()) {
    return Status::InvalidArgument(
        "layer count mismatch: artifact " + std::to_string(n) + ", model " +
        std::to_string(layers_.size()));
  }
  for (auto& layer : layers_) {
    CARDBENCH_RETURN_IF_ERROR(layer.LoadParams(in));
  }
  return Status::OK();
}

void SoftmaxRows(Matrix& m, size_t begin, size_t end) {
  for (size_t r = 0; r < m.rows(); ++r) {
    double* row = m.Row(r);
    double max_v = row[begin];
    for (size_t c = begin; c < end; ++c) max_v = std::max(max_v, row[c]);
    double sum = 0.0;
    for (size_t c = begin; c < end; ++c) {
      row[c] = std::exp(row[c] - max_v);
      sum += row[c];
    }
    for (size_t c = begin; c < end; ++c) row[c] /= sum;
  }
}

double MseLoss(const Matrix& y, const std::vector<double>& target,
               Matrix* grad) {
  CARDBENCH_CHECK(y.cols() == 1 && y.rows() == target.size(),
                  "MSE shape mismatch");
  *grad = Matrix(y.rows(), 1);
  double loss = 0.0;
  const double n = static_cast<double>(y.rows());
  for (size_t r = 0; r < y.rows(); ++r) {
    const double diff = y.At(r, 0) - target[r];
    loss += diff * diff;
    grad->At(r, 0) = 2.0 * diff / n;
  }
  return loss / n;
}

}  // namespace cardbench
