#ifndef CARDBENCH_CARDEST_DEEPDB_EST_H_
#define CARDBENCH_CARDEST_DEEPDB_EST_H_

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "cardest/fanout_estimator.h"
#include "common/rng.h"

namespace cardbench {

/// Learning knobs shared by the SPN (DeepDB) and FSPN (FLAT) learners.
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
  /// Enables factorize/multi-leaf nodes (the FSPN extension).
  bool enable_multi_leaf = false;
  /// Cap on multi-leaf group size.
  size_t max_multi_leaf_cols = 4;
  uint64_t seed = 1234;
};

/// Sum-product network over one extended table, learned top-down à la
/// DeepDB: product nodes from independence tests, sum nodes from two-means
/// row clustering, histogram leaves. With `enable_multi_leaf` it becomes
/// the simplified FSPN of FLAT: highly correlated column groups are kept
/// joint in sparse multi-leaves instead of being split further.
class SpnModel : public TableDistribution {
 public:
  SpnModel(const ExtendedTable& ext, const SpnOptions& options);

  double ExpectProduct(
      std::span<const double* const> factor_of_col) const override;
  void UpdateWithRows(const ExtendedTable& ext,
                      const std::vector<size_t>& new_rows) override;

  size_t num_nodes() const { return nodes_.size(); }

  /// Writes / restores the learned structure: options, node list (type,
  /// children, weights, scopes, histograms, multi-leaf joints). Deserialize
  /// rejects, with InvalidArgument, what Eval would index out of bounds or
  /// recurse on forever: a column count other than that of `ext` (the
  /// extended table it was trained over), a child index not below its
  /// parent's (training appends children first, so this also rules out
  /// cycles), a sum node whose weights and children differ in number, a
  /// leaf without exactly one column or whose histogram is not sized to its
  /// column's bin domain, a column id >= the model's column count, and
  /// multi-leaf keys of the wrong width, not strictly ascending, or holding
  /// a bin outside its column's domain.
  void Serialize(SectionWriter& out) const;
  static Result<std::unique_ptr<SpnModel>> Deserialize(
      SectionReader& in, const ExtendedTable& ext);

 private:
  SpnModel() = default;  // for Deserialize

  struct Node {
    enum class Type : uint8_t { kSum, kProduct, kLeaf, kMultiLeaf };
    Type type = Type::kLeaf;
    std::vector<size_t> children;
    std::vector<double> weights;  // sum node: child row counts
    std::vector<size_t> cols;     // column scope (leaf: 1; multi-leaf: >1)
    std::vector<double> histogram;  // leaf: counts per bin
    // Multi-leaf counts: the distinct bin keys, cols.size() bins each,
    // row-major in ascending lexicographic order, and each key's count.
    std::vector<uint16_t> joint_keys;
    std::vector<double> joint_counts;
    double total = 0.0;
    // Derived (RebuildDerived), never serialized: the ScopeBit of every
    // column in the node's subtree, and the node's value when no factor
    // touches that scope.
    uint64_t scope = 0;
    double idle = 1.0;
  };

  /// Where `key` (cols.size() bins) is or would be inserted among the
  /// multi-leaf keys of `nd` (binary search over the ordered flat keys),
  /// and whether it is there.
  static std::pair<size_t, bool> FindJointKey(
      const Node& nd, const std::vector<uint16_t>& key);

  size_t Learn(const ExtendedTable& ext, std::vector<size_t>& rows,
               size_t begin, size_t end, std::vector<size_t> cols, Rng& rng,
               size_t depth);
  size_t MakeLeaf(const ExtendedTable& ext, const std::vector<size_t>& rows,
                  size_t begin, size_t end, size_t col);
  size_t MakeMultiLeaf(const ExtendedTable& ext,
                       const std::vector<size_t>& rows, size_t begin,
                       size_t end, std::vector<size_t> cols);
  /// Column `col`'s bit in a scope word. One word covers every column
  /// below 63; the columns at or above 63 share bit 63, so a wider table
  /// prunes less but evaluates the same.
  static uint64_t ScopeBit(size_t col) {
    return uint64_t{1} << std::min<size_t>(col, 63);
  }
  /// Recomputes every node's scope and idle value, children first, through
  /// EvalNode. Runs at the end of training, loading and UpdateWithRows.
  void RebuildDerived();
  /// The value of `node` under `factor_of_col`, whose non-null columns'
  /// bits make up `scope`: the idle value when the node's scope misses it.
  double Eval(size_t node, const double* const* factor_of_col,
              uint64_t scope) const {
    const Node& nd = nodes_[node];
    return (nd.scope & scope) == 0 ? nd.idle
                                   : EvalNode(nd, factor_of_col, scope);
  }
  double EvalNode(const Node& nd, const double* const* factor_of_col,
                  uint64_t scope) const;
  double PointLikelihood(size_t node, const std::vector<uint16_t>& row) const;
  void Route(size_t node, const std::vector<uint16_t>& row);

  SpnOptions options_;
  std::vector<Node> nodes_;
  size_t root_ = 0;
  size_t num_cols_ = 0;
};

/// The DeepDB estimator: one SPN per table + the shared fanout join method.
class DeepDbEstimator : public FanoutModelEstimator {
 public:
  explicit DeepDbEstimator(const Database& db, size_t max_bins = 48,
                           SpnOptions options = SpnOptions())
      : FanoutModelEstimator(db, max_bins), options_(options) {
    options_.enable_multi_leaf = false;
    TrainAll();
  }

  std::string name() const override { return "DeepDB"; }

  Status Serialize(std::ostream& out) const override;
  static Result<std::unique_ptr<DeepDbEstimator>> Deserialize(
      const Database& db, std::istream& in);

 protected:
  std::unique_ptr<TableDistribution> BuildModel(
      const ExtendedTable& ext) override {
    return std::make_unique<SpnModel>(ext, options_);
  }
  void SerializeModel(const TableDistribution& model,
                      SectionWriter& out) const override;
  Result<std::unique_ptr<TableDistribution>> LoadModelPayload(
      SectionReader& in, const ExtendedTable& ext) const override;

 private:
  /// Load path: constructs without training; state restored by Deserialize.
  DeepDbEstimator(const Database& db, size_t max_bins, DeferredInit tag)
      : FanoutModelEstimator(db, max_bins, tag) {
    options_.enable_multi_leaf = false;
  }

  SpnOptions options_;
};

/// The FLAT estimator: FSPN = SPN + factorize/multi-leaf handling of highly
/// correlated column groups.
class FlatEstimator : public FanoutModelEstimator {
 public:
  explicit FlatEstimator(const Database& db, size_t max_bins = 48,
                         SpnOptions options = SpnOptions())
      : FanoutModelEstimator(db, max_bins), options_(options) {
    options_.enable_multi_leaf = true;
    TrainAll();
  }

  std::string name() const override { return "FLAT"; }

  Status Serialize(std::ostream& out) const override;
  static Result<std::unique_ptr<FlatEstimator>> Deserialize(
      const Database& db, std::istream& in);

 protected:
  std::unique_ptr<TableDistribution> BuildModel(
      const ExtendedTable& ext) override {
    return std::make_unique<SpnModel>(ext, options_);
  }
  void SerializeModel(const TableDistribution& model,
                      SectionWriter& out) const override;
  Result<std::unique_ptr<TableDistribution>> LoadModelPayload(
      SectionReader& in, const ExtendedTable& ext) const override;

 private:
  /// Load path: constructs without training; state restored by Deserialize.
  FlatEstimator(const Database& db, size_t max_bins, DeferredInit tag)
      : FanoutModelEstimator(db, max_bins, tag) {
    options_.enable_multi_leaf = true;
  }

  SpnOptions options_;
};

}  // namespace cardbench

#endif  // CARDBENCH_CARDEST_DEEPDB_EST_H_
