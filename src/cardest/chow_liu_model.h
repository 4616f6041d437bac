#ifndef CARDBENCH_CARDEST_CHOW_LIU_MODEL_H_
#define CARDBENCH_CARDEST_CHOW_LIU_MODEL_H_

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

  /// Writes / restores the learned structure and CPT counts. Deserialize
  /// rejects a model that does not match `ext` (the extended table it was
  /// trained over: column count and bin domains), whose parents do not form
  /// one tree rooted at the root, or whose counts are not sized by the
  /// domains inference indexes them with.
  void Serialize(SectionWriter& out) const override;
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

}  // namespace cardbench

#endif  // CARDBENCH_CARDEST_CHOW_LIU_MODEL_H_
