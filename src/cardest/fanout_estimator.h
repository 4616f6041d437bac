#ifndef CARDBENCH_CARDEST_FANOUT_ESTIMATOR_H_
#define CARDBENCH_CARDEST_FANOUT_ESTIMATOR_H_

#include <iosfwd>
#include <map>
#include <memory>
#include <span>
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

  /// E[ Π_c factor_of_col[c][bin(column c)] ] under the modeled joint
  /// distribution, over the columns c whose factor is non-null.
  /// `factor_of_col` holds one entry per extended-table column, and each
  /// non-null factor one value per bin of its column. Allocates nothing on
  /// the heap: scratch comes from the calling thread's arena.
  virtual double ExpectProduct(
      std::span<const double* const> factor_of_col) const = 0;

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
  /// Mask-based dispatch: a spanning tree over the mask's join edges, the
  /// query's tables resolved to their extended tables and models once per
  /// call, predicate groups taken from the graph.
  double EstimateCard(const QueryGraph& graph, uint64_t mask) const override;
  /// Batched: the per-table resolution, predicate ColumnFactors and model
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

  /// What every sub-plan of one query shares, built once per EstimateCard
  /// or EstimateCards call (defined in the .cc): each query table's
  /// extended table, model and memos, each join edge side's fanout column,
  /// and the spanning-tree scratch that each mask reuses.
  struct QueryState;

  /// E[product of factors] under local table `local`'s model, the factors
  /// given by `key` in push order: kPredBlock stands for the table's
  /// predicate factors, any other item s for the mean factor of edge side
  /// s's fanout column (see QueryState). Within one query the key
  /// determines the factors, so the value is memoized per table (the
  /// query-invariant denominators E_c[F_{c->p}] and repeated numerators run
  /// once per query). A hit returns the double the call would have
  /// computed.
  double Expect(const QueryGraph& graph, QueryState& state, int local,
                std::span<const int> key) const;

  /// EstimateCard(graph, mask) over `state` (the scalar overload passes a
  /// fresh one).
  double EstimateCardImpl(const QueryGraph& graph, uint64_t mask,
                          QueryState& state) const;

  /// ρ of the spanning-tree subtree rooted at `local`, reached from its
  /// parent over edge side `up_side` (this table's side of the edge).
  double SubtreeRho(const QueryGraph& graph, QueryState& state, int local,
                    int up_side) const;

  size_t max_bins_;
  bool use_fanout_join_ = true;
  double train_seconds_ = 0.0;
  std::map<std::string, std::unique_ptr<ExtendedTable>> ext_tables_;
  std::map<std::string, std::unique_ptr<TableDistribution>> models_;
};

}  // namespace cardbench

#endif  // CARDBENCH_CARDEST_FANOUT_ESTIMATOR_H_
