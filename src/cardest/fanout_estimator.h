#ifndef CARDBENCH_CARDEST_FANOUT_ESTIMATOR_H_
#define CARDBENCH_CARDEST_FANOUT_ESTIMATOR_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
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

  /// Incremental parameter update after `ext` absorbed newly inserted rows
  /// (structure must be preserved — the paper's update protocol, §6.3).
  virtual void UpdateWithRows(const ExtendedTable& ext,
                              const std::vector<size_t>& new_rows) = 0;

  /// Writes the learned structure and parameters; each model class has a
  /// static Deserialize that reads them back against the extended table.
  virtual void Serialize(SectionWriter& out) const = 0;
};

/// Learning knobs shared by the SPN (DeepDB) and FSPN (FLAT) learners;
/// whether multi-leaves are learned is the estimator kind's choice.
struct SpnOptions {
  /// RDC-style dependence threshold below which column groups are treated
  /// as independent (paper: 0.3).
  double independence_threshold = 0.3;
  /// Dependence threshold above which FLAT factorizes a group into a joint
  /// multi-leaf (paper: 0.7). Ignored by the plain SPN.
  double high_correlation_threshold = 0.7;
  /// Do not split a slice holding less than this fraction of the table
  /// (paper: 1%).
  double min_slice_fraction = 0.01;
  size_t min_slice_rows = 64;
  /// Rows subsampled for dependence tests (speed).
  size_t dependence_sample = 2000;
  /// Cap on multi-leaf group size.
  size_t max_multi_leaf_cols = 4;
  uint64_t seed = 1234;
};

/// The per-table model a FanoutModelEstimator learns; the paper's three
/// data-driven PGM methods (§4.1) differ only in this.
enum class FanoutModelKind {
  kBayesCard,  ///< Chow–Liu tree BN (ChowLiuTreeModel)
  kDeepDb,     ///< SPN (SpnModel)
  kFlat,       ///< FSPN (SpnModel with multi-leaves)
};

/// The method name of `kind`: "BayesCard", "DeepDB" or "FLAT".
std::string FanoutModelName(FanoutModelKind kind);

/// The kind whose method name is `name`, if there is one.
std::optional<FanoutModelKind> FanoutKindNamed(const std::string& name);

/// The ML data-driven estimators BayesCard, DeepDB and FLAT: one extended
/// table + one TableDistribution of the estimator's kind per base table,
/// and multi-table queries answered with the fanout method over a spanning
/// tree of the query's join graph:
///
///   Card = |T_r| * E_r[pred_r * Π_c F_{r→c} * ρ(c)]
///   ρ(c) = E_c[F_{c→p} * pred_c * Π_{gc} F_{c→gc} ρ(gc)] / E_c[F_{c→p}]
///
/// which is exact when each per-table model captures its intra-table joint
/// and tables are conditionally independent given the join — the "right
/// balance of independence" the paper credits these methods with (§5.1).
class FanoutModelEstimator : public CardinalityEstimator {
 public:
  /// Builds the extended tables, then trains one model of `kind` per table
  /// (the training time recorded for Figure 3). `spn` configures DeepDB's
  /// and FLAT's learner; BayesCard ignores it.
  FanoutModelEstimator(const Database& db, FanoutModelKind kind,
                       size_t max_bins = 48,
                       const SpnOptions& spn = SpnOptions());

  std::string name() const override { return FanoutModelName(kind_); }

  using CardinalityEstimator::EstimateCard;
  double EstimateCard(const QueryGraph& graph, uint64_t mask) const override {
    return EstimateCards(graph, {&mask, 1})[0];
  }
  /// A spanning tree over each mask's join edges, predicate groups taken
  /// from the graph. The per-table resolution, predicate ColumnFactors and
  /// model expectations (mask-independent per factor sequence) are
  /// computed once per call and shared across all masks; each mask then
  /// runs the fanout recursion over the same factor sequences.
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

  /// Persists every table's extended-table metadata and model, and restores
  /// a ready-to-serve estimator without retraining — the paper's
  /// model-transfer deployment path (§4.3). The artifact, tagged by kind
  /// ("bayescard", "deepdb" or "flat"), holds a "meta" section (max_bins,
  /// train_seconds) and a "tables" section: per base table its name, its
  /// extended-table metadata and its model. Deserialize refuses another
  /// kind's artifact. The loaded estimator still supports Update (bins are
  /// recomputed lazily).
  Status Serialize(std::ostream& out) const override;
  static Result<std::unique_ptr<FanoutModelEstimator>> Deserialize(
      const Database& db, FanoutModelKind kind, std::istream& in);

 private:
  /// Load path: constructs without extended tables or models; Deserialize
  /// restores them.
  struct DeferredInit {};
  FanoutModelEstimator(const Database& db, FanoutModelKind kind, DeferredInit)
      : CardinalityEstimator(db), kind_(kind) {}

  /// Refreshes every table's extended table and folds the rows it gained
  /// into the table's model, whatever the batch.
  Status UpdateImpl(const InsertionBatch& batch) override;

  /// What every sub-plan of one query shares, built once per EstimateCards
  /// call (defined in the .cc): each query table's
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

  /// The estimate of one mask of the EstimateCards call that owns `state`.
  double EstimateCardImpl(const QueryGraph& graph, uint64_t mask,
                          QueryState& state) const;

  /// ρ of the spanning-tree subtree rooted at `local`, reached from its
  /// parent over edge side `up_side` (this table's side of the edge).
  double SubtreeRho(const QueryGraph& graph, QueryState& state, int local,
                    int up_side) const;

  FanoutModelKind kind_;
  size_t max_bins_ = 0;
  bool use_fanout_join_ = true;
  double train_seconds_ = 0.0;
  std::map<std::string, std::unique_ptr<ExtendedTable>> ext_tables_;
  std::map<std::string, std::unique_ptr<TableDistribution>> models_;
};

}  // namespace cardbench

#endif  // CARDBENCH_CARDEST_FANOUT_ESTIMATOR_H_
