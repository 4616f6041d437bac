#ifndef CARDBENCH_CARDEST_LW_EST_H_
#define CARDBENCH_CARDEST_LW_EST_H_

#include <iosfwd>
#include <memory>
#include <vector>

#include "cardest/estimator.h"
#include "cardest/query_features.h"
#include "common/rng.h"
#include "ml/gbdt.h"
#include "ml/nn.h"

namespace cardbench {

/// Training configuration for LW-NN.
struct LwNnOptions {
  size_t hidden_units = 128;
  size_t epochs = 40;
  size_t batch_size = 64;
  double learning_rate = 1e-3;
  uint64_t seed = 13;
};

/// LW-NN (§4.1 method 8, Dutt et al.): a lightweight fully connected
/// network regressing log2(cardinality) from flat query features
/// (tables + joins + normalized predicate ranges). Per the paper's setup,
/// the original single-table model is extended to joins by including the
/// join edges in the featurization.
class LwNnEstimator : public CardinalityEstimator {
 public:
  LwNnEstimator(const Database& db, const std::vector<TrainingQuery>& training,
                LwNnOptions options = LwNnOptions());

  std::string name() const override { return "LW-NN"; }
  using CardinalityEstimator::EstimateCard;
  double EstimateCard(const QueryGraph& graph, uint64_t mask) const override {
    return EstimateCards(graph, {&mask, 1})[0];
  }
  /// All masks featurized into one (N x flat_dim) matrix, one forward
  /// pass. A row's output does not depend on the others (row-independent
  /// GEMM).
  std::vector<double> EstimateCards(
      const QueryGraph& graph,
      std::span<const uint64_t> masks) const override;
  double TrainSeconds() const override { return train_seconds_; }

  /// Persists options + network parameters; the featurizer is rebuilt
  /// deterministically from the database on load.
  Status Serialize(std::ostream& out) const override;
  static Result<std::unique_ptr<LwNnEstimator>> Deserialize(
      const Database& db, std::istream& in);

 private:
  /// Query-driven: refreshing needs re-labeled queries, not raw rows, so a
  /// batch without `refresh_training` answers Unsupported. Warm-start
  /// fine-tune: continues SGD from the current weights for ~epochs/10
  /// passes over the refresh workload.
  Status UpdateImpl(const InsertionBatch& batch) override;

  struct DeferredInit {};
  /// Load path: seeded untrained topology, parameters injected afterwards.
  LwNnEstimator(const Database& db, LwNnOptions options, DeferredInit);
  /// Mini-batch SGD over `training`, continuing from the current weights.
  void TrainEpochs(const std::vector<TrainingQuery>& training, size_t epochs,
                   Rng& rng);

  QueryFeaturizer featurizer_;
  LwNnOptions options_;
  std::unique_ptr<Mlp> net_;
  double train_seconds_ = 0.0;
};

/// LW-XGB (§4.1 method 7): the same flat features fed to gradient boosted
/// regression trees (our from-scratch XGBoost-style GBDT).
class LwXgbEstimator : public CardinalityEstimator {
 public:
  LwXgbEstimator(const Database& db,
                 const std::vector<TrainingQuery>& training,
                 GbdtOptions options = GbdtOptions());

  std::string name() const override { return "LW-XGB"; }
  using CardinalityEstimator::EstimateCard;
  double EstimateCard(const QueryGraph& graph, uint64_t mask) const override {
    return EstimateCards(graph, {&mask, 1})[0];
  }
  /// One tree-major GBDT pass over all featurized masks.
  std::vector<double> EstimateCards(
      const QueryGraph& graph,
      std::span<const uint64_t> masks) const override;
  double TrainSeconds() const override { return train_seconds_; }

  /// Persists the fitted tree ensemble; the featurizer is rebuilt
  /// deterministically from the database on load.
  Status Serialize(std::ostream& out) const override;
  static Result<std::unique_ptr<LwXgbEstimator>> Deserialize(
      const Database& db, std::istream& in);

 private:
  /// Query-driven: refreshing needs re-labeled queries, not raw rows, so a
  /// batch without `refresh_training` answers Unsupported. Warm-start
  /// boosting: appends ~num_trees/10 rounds fitted to the current
  /// ensemble's residuals on the refresh workload — the existing trees are
  /// untouched, so the refresh costs a tenth of a retrain.
  Status UpdateImpl(const InsertionBatch& batch) override;

  struct DeferredInit {};
  /// Load path: empty ensemble, parameters injected afterwards.
  LwXgbEstimator(const Database& db, DeferredInit)
      : CardinalityEstimator(db), featurizer_(db) {}

  QueryFeaturizer featurizer_;
  GbdtRegressor gbdt_;
  double train_seconds_ = 0.0;
};

}  // namespace cardbench

#endif  // CARDBENCH_CARDEST_LW_EST_H_
