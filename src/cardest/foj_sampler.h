#ifndef CARDBENCH_CARDEST_FOJ_SAMPLER_H_
#define CARDBENCH_CARDEST_FOJ_SAMPLER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/catalog.h"

namespace cardbench {

/// Full-outer-join machinery behind the NeuroCard-style estimators.
///
/// The schema's join graph is reduced to a BFS spanning tree rooted at the
/// largest-degree hub; the sampler then supports *exact uniform* sampling
/// from the (root-anchored) full outer join of that tree by precomputing,
/// per row, the number of FOJ tuples flowing through it:
///
///   w_t(r)   — downward subtree weight: FOJ tuples of t's subtree rooted
///              at row r (product over child edges of max(1, sum of
///              matching child weights)),
///   U_t(r)   — upward duplication: FOJ tuples containing row r divided by
///              w_t(r),
///   D_e(r)   — per-edge duplication max(1, sum of matching child weights)
///              attached to the parent row.
///
/// These are exactly the scaling columns NeuroCard adds to its model to
/// down-weight tuple multiplicities when a query touches only a subset of
/// tables. Child rows with no matching parent never appear (the FOJ is
/// anchored at the root — a documented simplification; it reproduces the
/// paper's observation that NeuroCard's sample lacks tuples for some join
/// subsets).
class FojSampler {
 public:
  explicit FojSampler(const Database& db);

  struct TreeEdge {
    size_t parent_idx = 0;  // index into bfs_order()
    size_t child_idx = 0;
    std::string parent_col;
    std::string child_col;
  };

  /// Tables in BFS order (root first).
  const std::vector<std::string>& bfs_order() const { return order_; }
  /// One edge per non-root table, in BFS discovery order.
  const std::vector<TreeEdge>& edges() const { return edges_; }
  /// Exact size of the (root-anchored) spanning-tree full outer join.
  double foj_size() const { return foj_size_; }

  int TableIndex(const std::string& table) const;

  double SubtreeWeight(size_t table_idx, uint32_t row) const {
    return weight_[table_idx][row];
  }
  double Upward(size_t table_idx, uint32_t row) const {
    return upward_[table_idx][row];
  }
  double EdgeDup(size_t edge_idx, uint32_t parent_row) const {
    return edge_dup_[edge_idx][parent_row];
  }

  /// Draws one uniform FOJ tuple: row id per table in bfs_order(), or -1
  /// where the tuple is NULL-extended.
  std::vector<int64_t> SampleTuple(Rng& rng) const;

 private:
  const Database& db_;
  std::vector<std::string> order_;
  std::vector<TreeEdge> edges_;
  std::vector<std::vector<double>> weight_;    // per table, per row
  std::vector<std::vector<double>> upward_;    // per table, per row
  std::vector<std::vector<double>> edge_dup_;  // per edge, per parent row
  double foj_size_ = 0.0;
};

}  // namespace cardbench

#endif  // CARDBENCH_CARDEST_FOJ_SAMPLER_H_
