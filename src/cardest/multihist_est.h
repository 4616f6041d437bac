#ifndef CARDBENCH_CARDEST_MULTIHIST_EST_H_
#define CARDBENCH_CARDEST_MULTIHIST_EST_H_

#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cardest/binner.h"
#include "cardest/estimator.h"
#include "storage/catalog.h"

namespace cardbench {

/// MultiHist (§4.1 method 2, Poosala & Ioannidis): identifies correlated
/// attribute subsets per table and models each with a multi-dimensional
/// equi-depth histogram (coarse per-dimension bins, sparse joint counts);
/// remaining attributes keep 1-D histograms. Joins use the uniformity
/// assumption, so multi-join error still grows quickly (Table 3's -28%).
class MultiHistEstimator : public CardinalityEstimator {
 public:
  /// `dims_per_group` caps group size; `bins_per_dim` the per-dimension
  /// resolution (multi-dimensional buckets are necessarily coarse — the
  /// classic space tradeoff of this method).
  MultiHistEstimator(const Database& db, size_t dims_per_group = 4,
                     size_t bins_per_dim = 8,
                     double correlation_threshold = 0.3);

  std::string name() const override { return "MultiHist"; }
  using CardinalityEstimator::EstimateCard;
  /// Mask-based dispatch: groups looked up by table id, predicates matched
  /// to group dimensions by resolved column id.
  double EstimateCard(const QueryGraph& graph, uint64_t mask) const override;
  double TrainSeconds() const override { return train_seconds_; }

  Status Serialize(std::ostream& out) const override;
  static Result<std::unique_ptr<MultiHistEstimator>> Deserialize(
      const Database& db, std::istream& in);

 private:
  /// A full refresh rebuilds: re-derives groupings, binners and joint
  /// counts from the current data. A delta merges: its inserted rows are
  /// binned through the *frozen* per-group binners and added to the joint
  /// counts — cost is O(inserted rows x groups), no re-clustering, no
  /// binner rebuild. Bucket boundaries stay where training put them, so
  /// heavy distribution shift eventually needs the full rebuild; the drift
  /// bench measures exactly that gap.
  Status UpdateImpl(const InsertionBatch& batch) override;

  struct DeferredInit {};
  /// Load path: constructs without building; state injected by Deserialize.
  MultiHistEstimator(const Database& db, DeferredInit)
      : CardinalityEstimator(db), db_(db), dims_per_group_(0),
        bins_per_dim_(0), correlation_threshold_(0.0) {}

  struct Group {
    std::vector<std::string> columns;
    std::vector<int> column_ids;  // resolved at Build, parallel to columns
    std::vector<std::unique_ptr<ColumnBinner>> binners;
    std::map<std::vector<uint16_t>, double> joint;  // bucket counts
    double total = 0.0;
  };

  void Build(const Database& db);
  double GroupSelectivity(const Group& group,
                          const std::vector<std::vector<Predicate>>& preds)
      const;

  const Database& db_;
  size_t dims_per_group_;
  size_t bins_per_dim_;
  double correlation_threshold_;
  double train_seconds_ = 0.0;
  std::map<std::string, std::vector<Group>> groups_;  // per table
  // groups_ entries indexed by global table id (database table order).
  std::vector<const std::vector<Group>*> groups_by_id_;
};

}  // namespace cardbench

#endif  // CARDBENCH_CARDEST_MULTIHIST_EST_H_
