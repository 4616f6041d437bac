#ifndef CARDBENCH_CARDEST_FANOUT_ESTIMATOR_H_
#define CARDBENCH_CARDEST_FANOUT_ESTIMATOR_H_

#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cardest/estimator.h"
#include "cardest/extended_table.h"
#include "storage/catalog.h"

namespace cardbench {

/// One multiplicative factor on one extended-table column: per-bin values
/// (predicate pass fractions, or per-bin mean fanouts).
struct ColumnFactor {
  size_t col_idx = 0;
  std::vector<double> per_bin;
};

/// A distribution model over one extended table's binned columns. The only
/// query the join machinery needs is the expectation of a product of
/// per-column factors — exactly what BNs (variable elimination), SPNs and
/// FSPNs (bottom-up passes) evaluate efficiently.
class TableDistribution {
 public:
  virtual ~TableDistribution() = default;

  /// E[ Π_i factors[i].per_bin[bin(column factors[i].col_idx)] ] under the
  /// modeled joint distribution. Factors arrive merged (one per column).
  virtual double ExpectProduct(const std::vector<ColumnFactor>& factors)
      const = 0;

  virtual size_t ModelBytes() const = 0;

  /// Incremental parameter update after `ext` absorbed newly inserted rows
  /// (structure must be preserved — the paper's update protocol, §6.3).
  virtual void UpdateWithRows(const ExtendedTable& ext,
                              const std::vector<size_t>& new_rows) = 0;
};

/// Shared base for the ML data-driven estimators (BayesCard, DeepDB, FLAT):
/// builds one extended table + one TableDistribution per base table, and
/// answers multi-table queries with the fanout method over a spanning tree
/// of the query's join graph:
///
///   Card = |T_r| * E_r[pred_r * Π_c F_{r→c} * ρ(c)]
///   ρ(c) = E_c[F_{c→p} * pred_c * Π_{gc} F_{c→gc} ρ(gc)] / E_c[F_{c→p}]
///
/// which is exact when each per-table model captures its intra-table joint
/// and tables are conditionally independent given the join — the "right
/// balance of independence" the paper credits these methods with (§5.1).
class FanoutModelEstimator : public CardinalityEstimator {
 public:
  /// Builds extended tables and per-table models immediately (training time
  /// is recorded for Figure 3).
  FanoutModelEstimator(const Database& db, size_t max_bins);

  using CardinalityEstimator::EstimateCard;
  /// Mask-based dispatch: spanning tree built over local table ids and
  /// pre-resolved edges; predicate groups come from the graph (no per-call
  /// name grouping). Model lookups stay name-keyed (the per-table models
  /// are string-keyed internal state).
  double EstimateCard(const QueryGraph& graph, uint64_t mask) const override;
  /// Batched: the per-table predicate ColumnFactors and the model
  /// expectations (mask-independent per factor sequence) are computed once
  /// per query and shared across all masks; each mask then runs the
  /// unchanged fanout recursion over the same factor sequences —
  /// bit-identical to per-mask EstimateCard.
  std::vector<double> EstimateCards(
      const QueryGraph& graph,
      std::span<const uint64_t> masks) const override;
  double TrainSeconds() const override { return train_seconds_; }

  /// Ablation switch: when disabled, multi-table estimates fall back to the
  /// join-uniformity combination of single-table model estimates (the
  /// histogram/sampling methods' approach) instead of the fanout method —
  /// isolating how much of the data-driven methods' advantage comes from
  /// fanout-aware join handling.
  void set_use_fanout_join(bool enabled) { use_fanout_join_ = enabled; }

 protected:
  /// Deferred-initialization tag: constructs without building extended
  /// tables or models (used by subclass model-loading paths, which inject
  /// deserialized state via InjectState).
  struct DeferredInit {};
  FanoutModelEstimator(const Database& db, size_t max_bins, DeferredInit)
      : CardinalityEstimator(db), db_(db), max_bins_(max_bins) {}

  /// Installs deserialized per-table state (model-loading path).
  void InjectState(
      std::map<std::string, std::unique_ptr<ExtendedTable>> ext_tables,
      std::map<std::string, std::unique_ptr<TableDistribution>> models) {
    ext_tables_ = std::move(ext_tables);
    models_ = std::move(models);
  }

  const std::map<std::string, std::unique_ptr<ExtendedTable>>& ext_tables()
      const {
    return ext_tables_;
  }
  const std::map<std::string, std::unique_ptr<TableDistribution>>& models()
      const {
    return models_;
  }

  /// Subclasses create their model class (BN / SPN / FSPN) per table.
  virtual std::unique_ptr<TableDistribution> BuildModel(
      const ExtendedTable& ext) = 0;

  /// Shared artifact layout for the fanout family: a "meta" section
  /// (max_bins, train_seconds) plus one "tables" section holding, per base
  /// table, the extended-table metadata followed by the model payload
  /// (written by the subclass's SerializeModel). Subclasses expose this via
  /// their Serialize override with their own format tag.
  Status SerializeFanout(std::ostream& out, const std::string& tag) const;

  /// Restores state written by SerializeFanout into this (deferred-init)
  /// instance; model payloads are read back through LoadModelPayload.
  Status LoadFanout(std::istream& in, const std::string& tag);

  virtual void SerializeModel(const TableDistribution& model,
                              SectionWriter& out) const = 0;
  /// Reads one table's model; `ext` is the extended table loaded beside it,
  /// whose columns and bin domains the model must match.
  virtual Result<std::unique_ptr<TableDistribution>> LoadModelPayload(
      SectionReader& in, const ExtendedTable& ext) const = 0;

  /// Must be called at the end of the subclass constructor (virtual
  /// dispatch is not available during base construction).
  void TrainAll();

  const Database& db_;

 private:
  /// Refreshes every table's extended table and folds the rows it gained
  /// into the table's model, whatever the batch.
  Status UpdateImpl(const InsertionBatch& batch) override;

  /// Per-query memos, both mask-independent, so a batch fills them once:
  /// each local table's predicate ColumnFactors (built from the graph's
  /// pred_groups), and each ExpectWithFactors result keyed by the local
  /// table and the factor sequence pushed (see ExpectWithFactors).
  struct PredFactorCache {
    explicit PredFactorCache(size_t num_tables)
        : by_local(num_tables), expectations(num_tables) {}
    std::vector<std::unique_ptr<std::vector<ColumnFactor>>> by_local;
    std::vector<std::map<std::vector<int>, double>> expectations;
  };

  /// E[product of factors] under local table `local`'s model, the factors
  /// given by `key` in push order: -1 stands for the table's predicate
  /// factors, any other item for that fanout column's mean factor. Within
  /// one query the key determines the factors, so the value is memoized in
  /// `cache` (the query-invariant denominators E_c[F_{c->p}] and repeated
  /// numerators run once per query) and the factor vectors are built only
  /// on a miss. A hit returns the double the call would have computed.
  double ExpectWithFactors(const QueryGraph& graph, int local,
                           std::vector<int> key, PredFactorCache* cache) const;

  const std::vector<ColumnFactor>& PredFactorsFor(const QueryGraph& graph,
                                                  int local,
                                                  PredFactorCache* cache) const;

  /// EstimateCard(graph, mask) with the predicate-factor memo threaded
  /// through (the scalar overload passes a fresh one).
  double EstimateCardImpl(const QueryGraph& graph, uint64_t mask,
                          PredFactorCache* cache) const;

  /// Recursive ρ computation for a child subtree, keyed on local table ids.
  double GraphSubtreeRho(
      const QueryGraph& graph, int local, int parent_local,
      const QueryGraph::EdgeInfo& parent_edge,
      const std::map<int, std::vector<std::pair<const QueryGraph::EdgeInfo*,
                                                int>>>& tree_children,
      PredFactorCache* cache) const;

  size_t max_bins_;
  bool use_fanout_join_ = true;
  double train_seconds_ = 0.0;
  std::map<std::string, std::unique_ptr<ExtendedTable>> ext_tables_;
  std::map<std::string, std::unique_ptr<TableDistribution>> models_;
};

}  // namespace cardbench

#endif  // CARDBENCH_CARDEST_FANOUT_ESTIMATOR_H_
