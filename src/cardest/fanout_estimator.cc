#include "cardest/fanout_estimator.h"

#include <algorithm>
#include <bit>
#include <istream>
#include <ostream>
#include <queue>

#include "common/logging.h"
#include "common/serde.h"
#include "common/stopwatch.h"

namespace cardbench {

namespace {

/// Factor-sequence item standing for a table's predicate ColumnFactors; any
/// other item is a fanout column whose per-bin mean factor is pushed.
constexpr int kPredBlock = -1;

/// Merges factors that target the same column by elementwise product.
std::vector<ColumnFactor> MergeFactors(std::vector<ColumnFactor> factors) {
  std::vector<ColumnFactor> merged;
  for (auto& factor : factors) {
    bool found = false;
    for (auto& m : merged) {
      if (m.col_idx == factor.col_idx) {
        for (size_t b = 0; b < m.per_bin.size(); ++b) {
          m.per_bin[b] *= factor.per_bin[b];
        }
        found = true;
        break;
      }
    }
    if (!found) merged.push_back(std::move(factor));
  }
  return merged;
}

}  // namespace

FanoutModelEstimator::FanoutModelEstimator(const Database& db, size_t max_bins)
    : CardinalityEstimator(db), db_(db), max_bins_(max_bins) {
  for (const auto& name : db_.table_names()) {
    ext_tables_[name] = std::make_unique<ExtendedTable>(db_, name, max_bins_);
  }
}

void FanoutModelEstimator::TrainAll() {
  Stopwatch watch;
  for (const auto& name : db_.table_names()) {
    models_[name] = BuildModel(*ext_tables_[name]);
  }
  train_seconds_ = watch.ElapsedSeconds();
}

Status FanoutModelEstimator::SerializeFanout(std::ostream& out,
                                             const std::string& tag) const {
  ModelWriter writer(tag);
  SectionWriter& meta = writer.AddSection("meta");
  meta.PutU64(max_bins_);
  meta.PutDouble(train_seconds_);
  SectionWriter& tables = writer.AddSection("tables");
  tables.PutU64(ext_tables_.size());
  for (const auto& [name, ext] : ext_tables_) {
    tables.PutString(name);
    ext->SerializeMeta(tables);
    SerializeModel(*models_.at(name), tables);
  }
  return writer.WriteTo(out);
}

Status FanoutModelEstimator::LoadFanout(std::istream& in,
                                        const std::string& tag) {
  CARDBENCH_ASSIGN_OR_RETURN(ModelReader reader, ModelReader::Open(in, tag));
  CARDBENCH_ASSIGN_OR_RETURN(SectionReader meta, reader.Section("meta"));
  CARDBENCH_ASSIGN_OR_RETURN(max_bins_, meta.GetU64());
  CARDBENCH_ASSIGN_OR_RETURN(train_seconds_, meta.GetDouble());
  CARDBENCH_ASSIGN_OR_RETURN(SectionReader tables, reader.Section("tables"));
  uint64_t num_tables = 0;
  CARDBENCH_ASSIGN_OR_RETURN(num_tables, tables.GetU64());
  std::map<std::string, std::unique_ptr<ExtendedTable>> ext_tables;
  std::map<std::string, std::unique_ptr<TableDistribution>> models;
  for (uint64_t t = 0; t < num_tables; ++t) {
    std::string name;
    CARDBENCH_ASSIGN_OR_RETURN(name, tables.GetString());
    CARDBENCH_ASSIGN_OR_RETURN(std::unique_ptr<ExtendedTable> ext,
                               ExtendedTable::DeserializeMeta(db_, tables));
    CARDBENCH_ASSIGN_OR_RETURN(std::unique_ptr<TableDistribution> model,
                               LoadModelPayload(tables, *ext));
    ext_tables[name] = std::move(ext);
    models[name] = std::move(model);
  }
  // Every base table needs a model for estimation to work.
  for (const auto& table : db_.table_names()) {
    if (models.count(table) == 0) {
      return Status::InvalidArgument("fanout artifact misses table " + table);
    }
  }
  ext_tables_ = std::move(ext_tables);
  models_ = std::move(models);
  return Status::OK();
}

Status FanoutModelEstimator::UpdateImpl(const InsertionBatch&) {
  for (const auto& name : db_.table_names()) {
    const std::vector<size_t> new_rows =
        ext_tables_[name]->RefreshAfterInsert(db_);
    models_[name]->UpdateWithRows(*ext_tables_[name], new_rows);
  }
  return Status::OK();
}

double FanoutModelEstimator::ExpectWithFactors(
    const QueryGraph& graph, int local, std::vector<int> key,
    PredFactorCache* cache) const {
  std::map<std::vector<int>, double>& memo =
      cache->expectations[static_cast<size_t>(local)];
  const auto hit = memo.find(key);
  if (hit != memo.end()) return hit->second;
  const std::string& table = graph.table(local).name;
  const ExtendedTable& ext = *ext_tables_.at(table);
  std::vector<ColumnFactor> factors;
  for (int item : key) {
    if (item == kPredBlock) {
      const std::vector<ColumnFactor>& preds =
          PredFactorsFor(graph, local, cache);
      factors.insert(factors.end(), preds.begin(), preds.end());
    } else {
      const size_t idx = static_cast<size_t>(item);
      factors.push_back({idx, ext.FanoutMeanFactor(idx)});
    }
  }
  const double expectation =
      models_.at(table)->ExpectProduct(MergeFactors(std::move(factors)));
  memo.emplace(std::move(key), expectation);
  return expectation;
}

const std::vector<ColumnFactor>& FanoutModelEstimator::PredFactorsFor(
    const QueryGraph& graph, int local, PredFactorCache* cache) const {
  std::unique_ptr<std::vector<ColumnFactor>>& slot =
      cache->by_local[static_cast<size_t>(local)];
  if (!slot) {
    const QueryGraph::TableInfo& info = graph.table(local);
    const ExtendedTable& ext = *ext_tables_.at(info.name);
    auto factors = std::make_unique<std::vector<ColumnFactor>>();
    for (const auto& group : info.pred_groups) {
      const int idx = ext.AttrIndex(group.column);
      if (idx < 0) continue;  // predicate on unmodeled column: ignore
      factors->push_back(
          {static_cast<size_t>(idx),
           ext.PredicateFactor(static_cast<size_t>(idx), group.preds)});
    }
    slot = std::move(factors);
  }
  return *slot;
}

double FanoutModelEstimator::GraphSubtreeRho(
    const QueryGraph& graph, int local, int parent_local,
    const QueryGraph::EdgeInfo& parent_edge,
    const std::map<int, std::vector<std::pair<const QueryGraph::EdgeInfo*,
                                              int>>>& tree_children,
    PredFactorCache* cache) const {
  const QueryGraph::TableInfo& info = graph.table(local);
  const ExtendedTable& ext = *ext_tables_.at(info.name);

  // Fanout column counting this table's matches in the parent. Orientation
  // comes from the resolved local ids; column/table names from the edge.
  const JoinEdge& je = *parent_edge.edge;
  const bool i_am_left = parent_edge.left_local == local;
  const std::string& my_col = i_am_left ? je.left_column : je.right_column;
  const std::string& parent_col = i_am_left ? je.right_column : je.left_column;
  const std::string& parent_name = graph.table(parent_local).name;
  const int up_idx = ext.FanoutIndex(my_col, {parent_name, parent_col});
  CARDBENCH_CHECK(up_idx >= 0, "no fanout column %s.%s -> %s.%s",
                  info.name.c_str(), my_col.c_str(), parent_name.c_str(),
                  parent_col.c_str());

  std::vector<int> numer = {up_idx, kPredBlock};
  double child_scalars = 1.0;
  auto it = tree_children.find(local);
  if (it != tree_children.end()) {
    for (const auto& [edge, child] : it->second) {
      const JoinEdge& ce = *edge->edge;
      const bool child_is_right = edge->left_local == local;
      const std::string& down_col =
          child_is_right ? ce.left_column : ce.right_column;
      const std::string& child_col =
          child_is_right ? ce.right_column : ce.left_column;
      const int idx = ext.FanoutIndex(
          down_col, {graph.table(child).name, child_col});
      CARDBENCH_CHECK(idx >= 0, "no fanout column for child edge");
      numer.push_back(idx);
      child_scalars *=
          GraphSubtreeRho(graph, child, local, *edge, tree_children, cache);
    }
  }

  const double numer_e =
      ExpectWithFactors(graph, local, std::move(numer), cache);
  const double denom_e = ExpectWithFactors(graph, local, {up_idx}, cache);
  if (denom_e <= 1e-12) return 0.0;
  return (numer_e / denom_e) * child_scalars;
}

double FanoutModelEstimator::EstimateCard(const QueryGraph& graph,
                                          uint64_t mask) const {
  PredFactorCache cache(graph.num_tables());
  return EstimateCardImpl(graph, mask, &cache);
}

std::vector<double> FanoutModelEstimator::EstimateCards(
    const QueryGraph& graph, std::span<const uint64_t> masks) const {
  PredFactorCache cache(graph.num_tables());
  std::vector<double> out;
  out.reserve(masks.size());
  for (uint64_t mask : masks) {
    out.push_back(EstimateCardImpl(graph, mask, &cache));
  }
  return out;
}

double FanoutModelEstimator::EstimateCardImpl(const QueryGraph& graph,
                                              uint64_t mask,
                                              PredFactorCache* cache) const {
  CARDBENCH_CHECK(mask != 0, "empty query");

  // Single table: |T| * E[predicate factors].
  if (std::popcount(mask) == 1) {
    const int local = std::countr_zero(mask);
    const double rows =
        static_cast<double>(graph.table(local).table->num_rows());
    return std::max(
        1.0, rows * ExpectWithFactors(graph, local, {kPredBlock}, cache));
  }

  // Ablation mode: join uniformity over single-table model estimates (the
  // single-table recursion takes the popcount==1 branch above).
  if (!use_fanout_join_) {
    double card = 1.0;
    for (uint64_t rest = mask; rest != 0; rest &= rest - 1) {
      card *= EstimateCardImpl(graph, rest & ~(rest - 1), cache);
    }
    for (const auto& edge : graph.edges()) {
      if ((edge.mask & mask) != edge.mask) continue;
      card /= JoinUniformityDivisor(edge);
    }
    return std::max(card, 1e-6);
  }

  // Spanning tree of the query join graph rooted at the largest table;
  // non-tree (parallel) edges contribute independence selectivities.
  int root = std::countr_zero(mask);
  for (uint64_t rest = mask; rest != 0; rest &= rest - 1) {
    const int local = std::countr_zero(rest);
    if (graph.table(local).table->num_rows() >
        graph.table(root).table->num_rows()) {
      root = local;
    }
  }
  std::map<int, std::vector<std::pair<const QueryGraph::EdgeInfo*, int>>>
      tree_children;
  std::vector<const QueryGraph::EdgeInfo*> non_tree;
  {
    uint64_t visited = uint64_t{1} << root;
    std::queue<int> frontier;
    frontier.push(root);
    std::vector<bool> used(graph.edges().size(), false);
    while (!frontier.empty()) {
      const int at = frontier.front();
      frontier.pop();
      for (size_t e = 0; e < graph.edges().size(); ++e) {
        if (used[e]) continue;
        const QueryGraph::EdgeInfo& edge = graph.edges()[e];
        if ((edge.mask & mask) != edge.mask) continue;
        int other;
        if (edge.left_local == at) {
          other = edge.right_local;
        } else if (edge.right_local == at) {
          other = edge.left_local;
        } else {
          continue;
        }
        if ((visited >> other) & 1) continue;
        used[e] = true;
        visited |= uint64_t{1} << other;
        tree_children[at].push_back({&edge, other});
        frontier.push(other);
      }
    }
    for (size_t e = 0; e < graph.edges().size(); ++e) {
      const QueryGraph::EdgeInfo& edge = graph.edges()[e];
      if ((edge.mask & mask) != edge.mask) continue;
      if (!used[e]) non_tree.push_back(&edge);
    }
  }

  const QueryGraph::TableInfo& root_info = graph.table(root);
  const ExtendedTable& root_ext = *ext_tables_.at(root_info.name);
  std::vector<int> factors = {kPredBlock};
  double scalars = 1.0;
  auto it = tree_children.find(root);
  if (it != tree_children.end()) {
    for (const auto& [edge, child] : it->second) {
      const JoinEdge& je = *edge->edge;
      const bool child_is_right = edge->left_local == root;
      const std::string& my_col =
          child_is_right ? je.left_column : je.right_column;
      const std::string& child_col =
          child_is_right ? je.right_column : je.left_column;
      const int idx = root_ext.FanoutIndex(
          my_col, {graph.table(child).name, child_col});
      CARDBENCH_CHECK(idx >= 0, "no fanout column for root edge");
      factors.push_back(idx);
      scalars *=
          GraphSubtreeRho(graph, child, root, *edge, tree_children, cache);
    }
  }

  double card = static_cast<double>(root_info.table->num_rows()) *
                ExpectWithFactors(graph, root, std::move(factors), cache) *
                scalars;

  // Independence correction for parallel/non-tree edges (PostgreSQL's
  // 1/max(ndv) equi-join selectivity).
  for (const QueryGraph::EdgeInfo* edge : non_tree) {
    card /= JoinUniformityDivisor(*edge);
  }
  return std::max(card, 1e-6);
}

}  // namespace cardbench
