#ifndef CARDBENCH_CARDEST_AUTOREGRESSIVE_EST_H_
#define CARDBENCH_CARDEST_AUTOREGRESSIVE_EST_H_

#include <iosfwd>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "cardest/binner.h"
#include "cardest/estimator.h"
#include "cardest/foj_sampler.h"
#include "cardest/query_features.h"
#include "ml/made.h"

namespace cardbench {

/// What the autoregressive model is trained on.
enum class ArTraining {
  kData,    ///< uniform FOJ samples             -> NeuroCard^E
  kQuery,   ///< query-derived pseudo tuples     -> UAE-Q (simplified)
  kHybrid,  ///< half data, half query tuples    -> UAE   (simplified)
};

/// Hyper-parameters of the autoregressive (MADE) estimators. Defaults are
/// CPU-scale: the paper trained 4x128 networks with 8000 progressive
/// samples on a V100; we keep the architecture family and shrink widths
/// and sample counts (documented in DESIGN.md).
struct ArOptions {
  size_t training_samples = 6000;
  size_t bins_per_column = 12;
  size_t hidden_units = 72;
  size_t hidden_layers = 2;
  size_t epochs = 5;
  size_t batch_size = 128;
  double learning_rate = 2e-3;
  /// Wildcard-skipping mask probability during training.
  double mask_prob = 0.25;
  /// Progressive-sampling batch at inference (paper: 8000 on a V100; CPU
  /// default trades variance for tractable whole-workload planning time).
  size_t progressive_samples = 32;
  uint64_t seed = 23;
};

/// The NeuroCard^E / UAE family: one MADE over the spanning-tree full outer
/// join of the whole schema. Model columns per table: a presence bit, the
/// binned filterable attributes, the upward-duplication column U_t; plus
/// one edge-duplication column D_e per tree edge. A query on table set S is
/// answered as
///
///   Card = |FOJ| * E[ 1{S present, preds} / (U_top * Π_{t∈S, c∉S} D_{t→c}) ]
///
/// with the expectation evaluated by progressive sampling (constrained
/// columns only; unconstrained columns stay wildcard-masked). Queries whose
/// join edges leave the spanning tree (FK-FK shortcuts) fall back to an
/// independence combination of single-table estimates — reproducing the
/// tree-schema limitation that forced the paper to partition STATS for
/// NeuroCard (§6.2).
class AutoregressiveEstimator : public CardinalityEstimator {
 public:
  AutoregressiveEstimator(const Database& db, ArTraining mode,
                          const std::vector<TrainingQuery>* training_queries,
                          ArOptions options = ArOptions());

  std::string name() const override {
    switch (mode_) {
      case ArTraining::kData: return "NeuroCardE";
      case ArTraining::kQuery: return "UAE-Q";
      case ArTraining::kHybrid: return "UAE";
    }
    return "AR";
  }

  using CardinalityEstimator::EstimateCard;
  double EstimateCard(const QueryGraph& graph, uint64_t mask) const override {
    return EstimateCards(graph, {&mask, 1})[0];
  }
  /// Tables and join edges map onto the FOJ spanning tree by resolved ids.
  /// Every on-tree mask keeps its own progressive-sampling state (encoded
  /// matrix, weights, an RNG seeded by a hash of the sub-plan's canonical
  /// key, so estimates are deterministic per sub-plan and safe under
  /// concurrent callers) but the MADE forward passes are fused — one
  /// ConditionalProbs call per constrained column over the concatenation
  /// of all active masks' sample rows. The network is row-independent, so
  /// a mask's estimate does not depend on the batch that carries it.
  /// Off-tree masks take the independence fallback (OffTreeEstimate).
  std::vector<double> EstimateCards(
      const QueryGraph& graph,
      std::span<const uint64_t> masks) const override;
  double TrainSeconds() const override { return train_seconds_; }

  /// Persists mode + options, the model-column layout (including the
  /// binners over attributes and fanout columns) and the MADE parameters.
  /// The FOJ sampler is rebuilt deterministically from the database on
  /// load, so progressive-sampling streams match the trained instance.
  Status Serialize(std::ostream& out) const override;
  static Result<std::unique_ptr<AutoregressiveEstimator>> Deserialize(
      const Database& db, std::istream& in);

 private:
  /// Data-trained models (NeuroCard) re-sample the FOJ (fanouts changed)
  /// and fine-tune the net, whatever the batch — the slowest update path of
  /// all methods, as in the paper's Table 6. The query-aware UAE modes
  /// would need a fresh training workload: Unsupported.
  Status UpdateImpl(const InsertionBatch& batch) override;

  struct DeferredInit {};
  /// Load path: rebuilds sampler + id maps, leaves columns_ and made_ for
  /// Deserialize to restore from the artifact.
  AutoregressiveEstimator(const Database& db, ArTraining mode,
                          ArOptions options, DeferredInit);

  struct ModelColumn {
    enum class Kind : uint8_t { kPresence, kAttr, kUpward, kEdgeDup };
    Kind kind = Kind::kPresence;
    size_t table_idx = 0;
    std::string attr;                      // kAttr
    int attr_column_id = -1;               // kAttr: column index in the table
    int edge_idx = -1;                     // kEdgeDup
    std::unique_ptr<ColumnBinner> binner;  // null for presence
    size_t domain = 2;
  };

  void BuildColumns();
  std::vector<uint16_t> BinTuple(const std::vector<int64_t>& tuple) const;
  std::vector<std::vector<uint16_t>> DrawDataTuples(size_t count, Rng& rng)
      const;
  std::vector<std::vector<uint16_t>> DrawQueryTuples(size_t count, Rng& rng)
      const;
  void Train();

  /// The per-column factors of an on-tree sub-plan, in model column
  /// order — the autoregressive order progressive sampling walks.
  std::vector<std::pair<size_t, std::vector<double>>> BuildGraphFactors(
      const QueryGraph& graph, const std::vector<bool>& table_in_s,
      const std::vector<int>& local_of_sampler) const;

  /// Maps the mask's tables and join edges onto the FOJ spanning tree by
  /// resolved ids; false if any edge leaves the tree. Also records which
  /// local table occupies each sampler slot (-1 when absent from the
  /// mask).
  bool GraphMapToTree(const QueryGraph& graph, uint64_t mask,
                      std::vector<bool>* table_in_s,
                      std::vector<int>* local_of_sampler) const;

  /// Estimate of a mask whose join edges leave the spanning tree (FK-FK
  /// shortcut): the product of its tables' single-table estimates, in
  /// ascending local order, divided by each in-mask edge's
  /// JoinUniformityDivisor in edge order, then clamped to >= 1.
  double OffTreeEstimate(const QueryGraph& graph, uint64_t mask) const;

  /// Rebuilds the id-keyed views over the sampler's spanning tree (table id
  /// -> sampler slot; packed edge keys) — called whenever sampler_ is
  /// replaced (constructor, UpdateImpl).
  void RebuildIdMaps();

  const Database& db_;
  ArTraining mode_;
  const std::vector<TrainingQuery>* training_queries_;
  ArOptions options_;
  std::unique_ptr<FojSampler> sampler_;
  // Global table id -> sampler BFS slot (-1 when the sampler's tree does
  // not cover the table).
  std::vector<int> sampler_idx_by_table_id_;
  // Parent-first packed (table_id, column_id, table_id, column_id) keys of
  // the spanning-tree edges.
  std::unordered_set<uint64_t> tree_edge_keys_;
  std::vector<ModelColumn> columns_;
  std::unique_ptr<MadeModel> made_;
  double train_seconds_ = 0.0;
};

}  // namespace cardbench

#endif  // CARDBENCH_CARDEST_AUTOREGRESSIVE_EST_H_
