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
  /// Mask-based dispatch: features come from the featurizer's graph
  /// overload (dense id-resolved vocabularies), then the same forward pass.
  double EstimateCard(const QueryGraph& graph, uint64_t mask) const override;
  /// Batched: every mask's set elements are concatenated into one matrix
  /// per module (tables/joins/predicates), each module runs a single
  /// forward pass, per-mask segments are mean-pooled (same summation order
  /// as the scalar path) and the pooled rows feed one head forward pass.
  /// Bit-identical to per-mask EstimateCard: the GEMM is row-independent.
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

  /// Forward through one module + mean pooling; returns (1 × hidden).
  Matrix ModuleForward(Mlp& module,
                       const std::vector<std::vector<double>>& elements,
                       Matrix* cache_in) const;
  double Forward(const QueryFeaturizer::SetFeatures& features) const;

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
