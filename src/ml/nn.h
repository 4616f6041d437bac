#ifndef CARDBENCH_ML_NN_H_
#define CARDBENCH_ML_NN_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "ml/matrix.h"

namespace cardbench {

class SectionWriter;
class SectionReader;

/// One fully connected layer (weights stored out×in) with optional binary
/// connectivity mask (used by MADE to enforce autoregressive structure) and
/// Adam state. ReLU is applied by the owning Mlp between layers.
class LinearLayer {
 public:
  LinearLayer(size_t in_dim, size_t out_dim, Rng& rng);

  /// Restricts connectivity: entries where mask is 0 are forced to stay 0.
  void SetMask(Matrix mask);

  /// y = x W^T + b for a batch x (batch×in) -> (batch×out).
  Matrix Forward(const Matrix& x) const;

  /// Given upstream grad (batch×out) and the input that produced the
  /// forward pass, accumulates parameter grads and returns grad wrt input.
  Matrix Backward(const Matrix& x, const Matrix& grad_out);

  /// Adam update with the accumulated grads; zeroes them afterwards.
  void Step(double lr);

  size_t in_dim() const { return weight_.cols(); }
  size_t out_dim() const { return weight_.rows(); }

  /// Appends the trained parameters (weights + bias) to a serde section.
  /// Optimizer state and masks are structural/transient and are not
  /// written; LoadParams re-applies the current mask after overwriting.
  void SerializeParams(SectionWriter& out) const;
  Status LoadParams(SectionReader& in);

 private:
  void ApplyMask();

  Matrix weight_;  // out×in
  std::vector<double> bias_;
  Matrix mask_;  // empty if unmasked
  // Accumulated gradients.
  Matrix grad_weight_;
  std::vector<double> grad_bias_;
  // Adam moments.
  Matrix m_weight_, v_weight_;
  std::vector<double> m_bias_, v_bias_;
  long step_ = 0;
};

/// Multi-layer perceptron with ReLU between layers and a linear output.
/// Supports per-layer masks (MADE). Used for the query-driven estimators
/// (MSCN modules, LW-NN) and the autoregressive data-driven ones
/// (NeuroCard, UAE).
class Mlp {
 public:
  /// dims = {in, h1, ..., out}.
  Mlp(const std::vector<size_t>& dims, Rng& rng);

  LinearLayer& layer(size_t i) { return layers_[i]; }
  size_t num_layers() const { return layers_.size(); }

  /// Forward pass; caches per-layer inputs for a subsequent Backward.
  Matrix Forward(const Matrix& x);

  /// Forward without caching (inference).
  Matrix Infer(const Matrix& x) const;

  /// Backprop from output gradient; returns gradient wrt the network input.
  Matrix Backward(const Matrix& grad_out);

  /// Adam step on all layers.
  void Step(double lr);

  /// Parameter dump/restore across all layers, in layer order. Loading
  /// validates that layer count and dims match the constructed topology.
  void SerializeParams(SectionWriter& out) const;
  Status LoadParams(SectionReader& in);

 private:
  std::vector<LinearLayer> layers_;
  // Cached inputs per layer (post-ReLU of previous layer) and pre-ReLU
  // outputs, from the last Forward call.
  std::vector<Matrix> inputs_;
  std::vector<Matrix> pre_act_;
};

/// In-place row-wise softmax over [begin, end) columns of `m`.
void SoftmaxRows(Matrix& m, size_t begin, size_t end);

/// Mean squared error loss and its gradient for 1-D regression output.
/// Returns the loss; writes dL/dy into grad (same shape as y).
double MseLoss(const Matrix& y, const std::vector<double>& target,
               Matrix* grad);

}  // namespace cardbench

#endif  // CARDBENCH_ML_NN_H_
