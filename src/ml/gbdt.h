#ifndef CARDBENCH_ML_GBDT_H_
#define CARDBENCH_ML_GBDT_H_

#include <cstddef>
#include <vector>

#include "common/status.h"

namespace cardbench {

class SectionWriter;
class SectionReader;

/// Training options for gradient-boosted regression trees (the model behind
/// the LW-XGB estimator, Dutt et al. 2019).
struct GbdtOptions {
  size_t num_trees = 100;
  size_t max_depth = 6;
  size_t min_samples_per_leaf = 8;
  double learning_rate = 0.1;
  /// L2 regularization on leaf values (XGBoost's lambda).
  double l2_lambda = 1.0;
};

/// Gradient boosted regression trees with squared-error objective, built
/// from scratch: exact greedy splits over feature thresholds, depth-limited,
/// shrinkage, L2-regularized leaf values.
class GbdtRegressor {
 public:
  explicit GbdtRegressor(GbdtOptions options = GbdtOptions())
      : options_(options) {}

  /// Fits on features (n × d, row-major) and targets (n).
  void Fit(const std::vector<std::vector<double>>& features,
           const std::vector<double>& targets);

  /// Warm-start continuation: appends `extra_trees` boosting rounds fitted
  /// to the residuals of the *current* ensemble on the given data, without
  /// touching the existing trees or the base prediction. This is the
  /// incremental-refresh path of LW-XGB: a handful of rounds on a small
  /// fresh workload instead of a full retrain. On an unfitted model it
  /// degenerates to Fit with `extra_trees` rounds.
  void BoostMore(const std::vector<std::vector<double>>& features,
                 const std::vector<double>& targets, size_t extra_trees);

  /// Predicts a batch of examples, walking each tree over all rows before
  /// moving to the next (the tree stays hot in cache). Each row accumulates
  /// the base prediction, then the trees in order, so a row's prediction
  /// does not depend on the other rows.
  std::vector<double> PredictBatch(
      const std::vector<std::vector<double>>& rows) const;

  size_t num_trees() const { return trees_.size(); }
  const GbdtOptions& options() const { return options_; }

  /// Appends the fitted ensemble (base prediction + every tree's nodes) to
  /// a serde section; LoadParams replaces any fitted state.
  void SerializeParams(SectionWriter& out) const;
  Status LoadParams(SectionReader& in);

 private:
  struct Node {
    int feature = -1;        // -1 for leaf
    double threshold = 0.0;  // go left if x[feature] <= threshold
    double value = 0.0;      // leaf prediction
    int left = -1;
    int right = -1;
  };
  using Tree = std::vector<Node>;

  /// Runs `rounds` residual-boosting iterations, appending to trees_ and
  /// advancing `predictions` in place (shared by Fit and BoostMore).
  void BoostRounds(const std::vector<std::vector<double>>& features,
                   const std::vector<double>& targets,
                   std::vector<double>& predictions, size_t rounds);

  int BuildNode(Tree& tree, const std::vector<std::vector<double>>& features,
                const std::vector<double>& residuals,
                std::vector<size_t>& items, size_t begin, size_t end,
                size_t depth);

  GbdtOptions options_;
  double base_prediction_ = 0.0;
  std::vector<Tree> trees_;
};

}  // namespace cardbench

#endif  // CARDBENCH_ML_GBDT_H_
