#ifndef CARDBENCH_CARDEST_MSCN_EST_H_
#define CARDBENCH_CARDEST_MSCN_EST_H_

#include <iosfwd>
#include <memory>
#include <vector>

#include "cardest/estimator.h"
#include "cardest/query_features.h"
#include "ml/nn.h"

namespace cardbench {

class Rng;

/// Training configuration for MSCN.
struct MscnOptions {
  size_t hidden_units = 64;
  size_t epochs = 30;
  double learning_rate = 1e-3;
  uint64_t seed = 11;
};

/// MSCN (§4.1 method 6, Kipf et al.): a multi-set convolutional network —
/// three per-element two-layer MLP modules (table set with sample bitmaps,
/// join set, predicate set), mean-pooled, concatenated into a final MLP
/// that regresses log2(cardinality). Query-driven: trained purely on
/// executed (query, cardinality) pairs.
class MscnEstimator : public CardinalityEstimator {
 public:
  MscnEstimator(const Database& db,
                const std::vector<TrainingQuery>& training,
                MscnOptions options = MscnOptions());

  std::string name() const override { return "MSCN"; }
  using CardinalityEstimator::EstimateCard;
  double EstimateCard(const QueryGraph& graph, uint64_t mask) const override {
    return EstimateCards(graph, {&mask, 1})[0];
  }
  /// Every distinct set element of the masks (tables/joins/predicates) is
  /// featurized into one matrix per module, each module runs a single
  /// forward pass, per-mask segments are mean-pooled (the summation order
  /// training's pooling uses) and the pooled rows feed one head forward
  /// pass. The GEMM is row-independent, so a mask's estimate does not
  /// depend on the rest of the batch.
  std::vector<double> EstimateCards(
      const QueryGraph& graph,
      std::span<const uint64_t> masks) const override;
  double TrainSeconds() const override { return train_seconds_; }

  /// Persists options + the four modules' parameters. The featurizer is
  /// rebuilt deterministically from the database on load, so vocabularies
  /// (and therefore feature vectors) match the training-time ones exactly.
  Status Serialize(std::ostream& out) const override;
  static Result<std::unique_ptr<MscnEstimator>> Deserialize(
      const Database& db, std::istream& in);

 private:
  /// Query-driven: refreshing needs re-labeled queries, so a batch without
  /// `refresh_training` answers Unsupported. Fine-tune: runs ~epochs/10 SGD
  /// epochs over the refresh workload from the current parameters (no
  /// re-init), shuffled by an RNG derived from (seed, data_version) so
  /// refreshes are deterministic per version.
  Status UpdateImpl(const InsertionBatch& batch) override;

  struct DeferredInit {};
  /// Load path: builds the featurizer and untrained module topology (same
  /// seeded init as training), then Deserialize overwrites the parameters.
  MscnEstimator(const Database& db, MscnOptions options, DeferredInit);

  /// Runs `epochs` epochs of per-example SGD over `training`, continuing
  /// from the current parameters (shared by the ctor and UpdateImpl).
  void TrainEpochs(const std::vector<TrainingQuery>& training, size_t epochs,
                   Rng& rng);

  QueryFeaturizer featurizer_;
  MscnOptions options_;
  std::unique_ptr<Mlp> table_module_;
  std::unique_ptr<Mlp> join_module_;
  std::unique_ptr<Mlp> pred_module_;
  std::unique_ptr<Mlp> head_;
  double train_seconds_ = 0.0;
};

}  // namespace cardbench

#endif  // CARDBENCH_CARDEST_MSCN_EST_H_
