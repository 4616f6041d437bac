#include "cardest/foj_sampler.h"

#include <algorithm>
#include <queue>
#include <set>
#include <unordered_map>

#include "common/logging.h"

namespace cardbench {

FojSampler::FojSampler(const Database& db) : db_(db) {
  // Root the BFS tree at the table with the most schema relations (the hub
  // — `users`/`title` in the benchmark schemas).
  std::map<std::string, size_t> degree;
  for (const auto& rel : db.join_relations()) {
    ++degree[rel.left_table];
    ++degree[rel.right_table];
  }
  std::string root = db.table_names()[0];
  for (const auto& name : db.table_names()) {
    if (degree[name] > degree[root]) root = name;
  }

  order_ = {root};
  std::set<std::string> visited = {root};
  std::queue<size_t> frontier;
  frontier.push(0);
  while (!frontier.empty()) {
    const size_t at = frontier.front();
    frontier.pop();
    for (const auto& name : db.table_names()) {
      if (visited.count(name) > 0) continue;
      const auto rels = db.RelationsBetween(order_[at], name);
      if (rels.empty()) continue;
      TreeEdge edge;
      edge.parent_idx = at;
      edge.child_idx = order_.size();
      edge.parent_col = rels.front().left_column;   // normalized: left == parent
      edge.child_col = rels.front().right_column;
      edges_.push_back(edge);
      visited.insert(name);
      order_.push_back(name);
      frontier.push(order_.size() - 1);
    }
  }
  CARDBENCH_CHECK(order_.size() == db.num_tables(),
                  "schema join graph is disconnected");

  // --- Downward subtree weights (reverse BFS order). ---
  weight_.resize(order_.size());
  edge_dup_.resize(edges_.size());
  for (size_t t = 0; t < order_.size(); ++t) {
    weight_[t].assign(db.TableOrDie(order_[t]).num_rows(), 1.0);
  }
  for (size_t t = order_.size(); t-- > 0;) {
    const Table& table = db.TableOrDie(order_[t]);
    for (size_t e = 0; e < edges_.size(); ++e) {
      if (edges_[e].parent_idx != t) continue;
      const size_t c = edges_[e].child_idx;
      const Table& child = db.TableOrDie(order_[c]);
      const Column& child_key = child.ColumnByName(edges_[e].child_col);
      std::unordered_map<Value, double> sums;
      for (size_t row = 0; row < child.num_rows(); ++row) {
        if (child_key.IsValid(row)) {
          sums[child_key.Get(row)] += weight_[c][row];
        }
      }
      const Column& parent_key = table.ColumnByName(edges_[e].parent_col);
      edge_dup_[e].assign(table.num_rows(), 1.0);
      for (size_t row = 0; row < table.num_rows(); ++row) {
        double sum = 0.0;
        if (parent_key.IsValid(row)) {
          auto it = sums.find(parent_key.Get(row));
          if (it != sums.end()) sum = it->second;
        }
        edge_dup_[e][row] = std::max(1.0, sum);
        weight_[t][row] *= edge_dup_[e][row];
      }
    }
  }
  foj_size_ = 0.0;
  for (double w : weight_[0]) foj_size_ += w;

  // --- Upward duplication (forward BFS order). ---
  upward_.resize(order_.size());
  upward_[0].assign(weight_[0].size(), 1.0);
  for (size_t e = 0; e < edges_.size(); ++e) {
    const size_t p = edges_[e].parent_idx;
    const size_t c = edges_[e].child_idx;
    const Table& parent = db.TableOrDie(order_[p]);
    const Table& child = db.TableOrDie(order_[c]);
    const Column& parent_key = parent.ColumnByName(edges_[e].parent_col);
    // Sum over parents of U_p(rp) * w_p(rp) / D_e(rp), keyed by key value.
    std::unordered_map<Value, double> sums;
    for (size_t row = 0; row < parent.num_rows(); ++row) {
      if (!parent_key.IsValid(row)) continue;
      sums[parent_key.Get(row)] +=
          upward_[p][row] * weight_[p][row] / edge_dup_[e][row];
    }
    const Column& child_key = child.ColumnByName(edges_[e].child_col);
    upward_[c].assign(child.num_rows(), 0.0);
    for (size_t row = 0; row < child.num_rows(); ++row) {
      if (!child_key.IsValid(row)) continue;
      auto it = sums.find(child_key.Get(row));
      if (it != sums.end()) upward_[c][row] = it->second;
    }
  }
}

int FojSampler::TableIndex(const std::string& table) const {
  for (size_t t = 0; t < order_.size(); ++t) {
    if (order_[t] == table) return static_cast<int>(t);
  }
  return -1;
}

int FojSampler::EdgeToParent(size_t child_idx) const {
  for (size_t e = 0; e < edges_.size(); ++e) {
    if (edges_[e].child_idx == child_idx) return static_cast<int>(e);
  }
  return -1;
}

std::vector<int64_t> FojSampler::SampleTuple(Rng& rng) const {
  std::vector<int64_t> tuple(order_.size(), -1);
  // Root row proportional to its subtree weight.
  const std::vector<double>& root_w = weight_[0];
  double total = foj_size_;
  CARDBENCH_CHECK(total > 0, "empty FOJ");
  double u = rng.NextDouble() * total;
  size_t root_row = 0;
  for (size_t row = 0; row < root_w.size(); ++row) {
    u -= root_w[row];
    if (u <= 0) {
      root_row = row;
      break;
    }
  }
  tuple[0] = static_cast<int64_t>(root_row);

  // Descend edge by edge (BFS order guarantees parents come first).
  for (size_t e = 0; e < edges_.size(); ++e) {
    const size_t p = edges_[e].parent_idx;
    const size_t c = edges_[e].child_idx;
    if (tuple[p] < 0) continue;  // parent absent -> whole subtree absent
    const Table& parent = db_.TableOrDie(order_[p]);
    const Table& child = db_.TableOrDie(order_[c]);
    const Column& parent_key = parent.ColumnByName(edges_[e].parent_col);
    const uint32_t prow = static_cast<uint32_t>(tuple[p]);
    if (!parent_key.IsValid(prow)) continue;  // no matches -> absent
    const HashIndex& index =
        child.GetIndex(child.ColumnIndexOrDie(edges_[e].child_col));
    const auto matches = index.Lookup(parent_key.Get(prow));
    if (matches.empty()) continue;  // outer join keeps parent, child absent
    double mass = 0.0;
    for (uint32_t m : matches) mass += weight_[c][m];
    double pick = rng.NextDouble() * mass;
    uint32_t chosen = matches.back();
    for (uint32_t m : matches) {
      pick -= weight_[c][m];
      if (pick <= 0) {
        chosen = m;
        break;
      }
    }
    tuple[c] = static_cast<int64_t>(chosen);
  }
  return tuple;
}

}  // namespace cardbench
