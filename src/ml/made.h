#ifndef CARDBENCH_ML_MADE_H_
#define CARDBENCH_ML_MADE_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "ml/nn.h"

namespace cardbench {

/// Masked autoregressive density estimator (Germain et al., MADE) over a
/// tuple of discretized columns: models P(x) = Π_i P(x_i | x_<i) with one
/// masked MLP, the model class behind Naru/NeuroCard and the UAE family.
/// Inputs are concatenated one-hot bin encodings; outputs are concatenated
/// per-column logit segments.
class MadeModel {
 public:
  /// `domains[i]` is the number of bins of column i (autoregressive order is
  /// the given column order).
  MadeModel(std::vector<size_t> domains, size_t hidden_units,
            size_t hidden_layers, Rng& rng);

  size_t num_columns() const { return domains_.size(); }
  size_t input_dim() const { return input_dim_; }
  const std::vector<size_t>& domains() const { return domains_; }

  /// Offset of column i's one-hot segment in the input / logit vector.
  size_t ColumnOffset(size_t col) const { return offsets_[col]; }

  /// One epoch of minibatch NLL training over binned rows; returns the mean
  /// negative log-likelihood per tuple. `mask_prob` zeroes each input
  /// column's one-hot with that probability (targets unchanged) — the
  /// wildcard-skipping training trick (Liang et al.) that lets inference
  /// leave unconstrained columns unsampled.
  double TrainEpoch(const std::vector<std::vector<uint16_t>>& rows,
                    size_t batch_size, double lr, Rng& rng,
                    double mask_prob = 0.0);

  /// Encodes binned prefixes: row r of the result one-hot-encodes
  /// `prefixes[r][0..prefix_len)`; remaining columns are zero.
  Matrix EncodePrefixes(const std::vector<std::vector<uint16_t>>& prefixes,
                        size_t prefix_len) const;

  /// P(column `col` = b | encoded prefix) for every row of `encoded`:
  /// returns (batch × domains[col]) probabilities.
  Matrix ConditionalProbs(const Matrix& encoded, size_t col) const;

  /// Mean NLL of `rows` without updating parameters (validation).
  double EvalNll(const std::vector<std::vector<uint16_t>>& rows);

  /// Parameter dump/restore of the masked net. Masks are structural (fully
  /// determined by `domains` and the layer sizes), so only weights travel;
  /// construct an identically-shaped model first, then LoadParams.
  void SerializeParams(SectionWriter& out) const {
    net_.SerializeParams(out);
  }
  Status LoadParams(SectionReader& in) { return net_.LoadParams(in); }

 private:
  double BatchStep(const std::vector<std::vector<uint16_t>>& rows,
                   const std::vector<size_t>& index, size_t begin, size_t end,
                   double lr, double mask_prob, Rng& rng);

  std::vector<size_t> domains_;
  std::vector<size_t> offsets_;
  size_t input_dim_ = 0;
  Mlp net_;
};

}  // namespace cardbench

#endif  // CARDBENCH_ML_MADE_H_
