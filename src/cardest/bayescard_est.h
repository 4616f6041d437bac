#ifndef CARDBENCH_CARDEST_BAYESCARD_EST_H_
#define CARDBENCH_CARDEST_BAYESCARD_EST_H_

#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "cardest/fanout_estimator.h"

namespace cardbench {

/// Chow–Liu tree Bayesian network over one extended table: the dependence
/// structure is the maximum-spanning tree of pairwise mutual information
/// (the construction BayesCard uses, §4.1), parameters are Laplace-smoothed
/// conditional probability tables over bins. Expectation queries run as
/// exact bottom-up sum-product over the tree (compiled variable
/// elimination). Updates add counts without touching the structure — the
/// reason BayesCard's update is near-instant and accuracy-preserving (O10).
class ChowLiuTreeModel : public TableDistribution {
 public:
  explicit ChowLiuTreeModel(const ExtendedTable& ext);

  double ExpectProduct(
      std::span<const double* const> factor_of_col) const override;
  void UpdateWithRows(const ExtendedTable& ext,
                      const std::vector<size_t>& new_rows) override;

  /// Parent column of each column in the learned tree (-1 for the root).
  const std::vector<int>& parents() const { return parent_; }

  /// Writes / restores the learned structure and CPT counts. Deserialize
  /// rejects a model that does not match `ext` (the extended table it was
  /// trained over: column count and bin domains), whose parents do not form
  /// one tree rooted at the root, or whose counts are not sized by the
  /// domains inference indexes them with.
  void Serialize(SectionWriter& out) const;
  static Result<std::unique_ptr<ChowLiuTreeModel>> Deserialize(
      SectionReader& in, const ExtendedTable& ext);

 private:
  ChowLiuTreeModel() = default;  // for Deserialize

  /// Recomputes what inference derives from the structure and counts:
  /// the children-first column order and every CPT row's smoothed mass.
  /// Runs at the end of training, loading and UpdateWithRows; never
  /// serialized.
  void RebuildDerived();

  size_t num_cols_ = 0;
  std::vector<size_t> domains_;
  std::vector<int> parent_;                  // -1 = root
  std::vector<std::vector<size_t>> children_;
  size_t root_ = 0;
  // CPT counts with Laplace smoothing applied at query time:
  // root: counts_[root][b]; child c: counts_[c][parent_bin * domain + b].
  std::vector<std::vector<double>> counts_;
  double total_rows_ = 0.0;
  // Derived (RebuildDerived): every column after all of its children, the
  // root last; and mass_[c][parent_bin] = sum over b of
  // counts_[c][parent_bin * domain + b] + kLaplace, summed in bin order (the
  // root has one row).
  std::vector<size_t> children_first_;
  std::vector<std::vector<double>> mass_;
  size_t max_domain_ = 0;
};

/// The BayesCard estimator: one Chow–Liu BN per table + the shared fanout
/// join method.
class BayesCardEstimator : public FanoutModelEstimator {
 public:
  explicit BayesCardEstimator(const Database& db, size_t max_bins = 48)
      : FanoutModelEstimator(db, max_bins) {
    TrainAll();
  }

  std::string name() const override { return "BayesCard"; }

  /// Persists all per-table BNs plus the extended-table metadata, and
  /// restores a ready-to-serve estimator without retraining — the paper's
  /// model-transfer deployment path (§4.3). The loaded estimator still
  /// supports Update (bins are recomputed lazily).
  Status Serialize(std::ostream& out) const override;
  static Result<std::unique_ptr<BayesCardEstimator>> Deserialize(
      const Database& db, std::istream& in);

 protected:
  std::unique_ptr<TableDistribution> BuildModel(
      const ExtendedTable& ext) override {
    return std::make_unique<ChowLiuTreeModel>(ext);
  }
  void SerializeModel(const TableDistribution& model,
                      SectionWriter& out) const override;
  Result<std::unique_ptr<TableDistribution>> LoadModelPayload(
      SectionReader& in, const ExtendedTable& ext) const override;

 private:
  /// Load path: constructs without training; state restored by Deserialize.
  BayesCardEstimator(const Database& db, size_t max_bins, DeferredInit tag)
      : FanoutModelEstimator(db, max_bins, tag) {}
};

}  // namespace cardbench

#endif  // CARDBENCH_CARDEST_BAYESCARD_EST_H_
