#include "cardest/query_features.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/arena.h"
#include "common/logging.h"
#include "storage/filter.h"
#include "storage/stats.h"

namespace cardbench {

std::string QueryFeaturizer::EdgeKey(const JoinEdge& edge) {
  const std::string a = edge.left_table + "." + edge.left_column;
  const std::string b = edge.right_table + "." + edge.right_column;
  return a < b ? a + "=" + b : b + "=" + a;
}

QueryFeaturizer::QueryFeaturizer(const Database& db, uint64_t seed,
                                 size_t bitmap_size)
    : bitmap_size_(bitmap_size) {
  Rng rng(seed);
  for (const auto& name : db.table_names()) {
    table_index_[name] = table_index_.size();
    const Table& table = db.TableOrDie(name);
    std::vector<uint32_t>& rows = bitmap_rows_[name];
    for (size_t i = 0; i < bitmap_size_; ++i) {
      if (table.num_rows() == 0) {
        rows.push_back(0);
      } else {
        rows.push_back(static_cast<uint32_t>(rng.NextUint64(table.num_rows())));
      }
    }
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const Column& col = table.column(c);
      if (col.kind() != ColumnKind::kNumeric &&
          col.kind() != ColumnKind::kCategorical) {
        continue;
      }
      column_index_[{name, col.name()}] = column_index_.size();
      const ColumnStats stats = ComputeColumnStats(col);
      ColumnInfo info;
      info.min = static_cast<double>(stats.min);
      info.max = std::max(static_cast<double>(stats.max), info.min + 1.0);
      column_info_[{name, col.name()}] = info;
    }
  }
  // Dense id-indexed views.
  table_slot_.clear();
  bitmap_by_id_.clear();
  column_slot_.clear();
  column_info_by_id_.clear();
  for (const auto& name : db.table_names()) {
    const Table& table = db.TableOrDie(name);
    table_slot_.push_back(table_index_.at(name));
    bitmap_by_id_.push_back(&bitmap_rows_.at(name));
    std::vector<int> slots(table.num_columns(), -1);
    std::vector<const ColumnInfo*> infos(table.num_columns(), nullptr);
    for (size_t c = 0; c < table.num_columns(); ++c) {
      auto it = column_index_.find({name, table.column(c).name()});
      if (it == column_index_.end()) continue;
      slots[c] = static_cast<int>(it->second);
      infos[c] = &column_info_.at({name, table.column(c).name()});
    }
    column_slot_.push_back(std::move(slots));
    column_info_by_id_.push_back(std::move(infos));
  }
  // Join vocabulary: all join-compatible unordered column pairs.
  for (const auto& group : JoinColumnGroups(db)) {
    for (size_t i = 0; i < group.size(); ++i) {
      for (size_t j = i + 1; j < group.size(); ++j) {
        if (group[i].table == group[j].table) continue;
        JoinEdge edge{group[i].table, group[i].column, group[j].table,
                      group[j].column};
        const std::string key = EdgeKey(edge);
        if (join_index_.count(key) == 0) {
          join_index_[key] = join_index_.size();
        }
      }
    }
  }
}

size_t QueryFeaturizer::flat_dim() const {
  return table_index_.size() + join_index_.size() + 3 * column_index_.size();
}

std::vector<double> QueryFeaturizer::FlatFeatures(const QueryGraph& graph,
                                                  uint64_t mask) const {
  std::vector<double> features(flat_dim(), 0.0);
  for (uint64_t rest = mask; rest != 0; rest &= rest - 1) {
    features[table_slot_[graph.table(std::countr_zero(rest)).table_id]] = 1.0;
  }
  const size_t join_base = table_index_.size();
  for (const auto& edge : graph.edges()) {
    if ((edge.mask & mask) != edge.mask) continue;
    auto it = join_index_.find(edge.canonical);
    if (it != join_index_.end()) features[join_base + it->second] = 1.0;
  }
  const size_t col_base = join_base + join_index_.size();
  // Fold predicates per column into a normalized range (in query order
  // within a column).
  std::map<std::pair<int, int>, ValueRange> ranges;
  for (const auto& pred : graph.predicates()) {
    if (((mask >> pred.local_table) & 1) == 0) continue;
    if (pred.pred.op == CompareOp::kNeq) {
      // Represent <> as "has predicate" with the full range.
      ranges.try_emplace({pred.table_id, pred.column_id});
      continue;
    }
    ranges[{pred.table_id, pred.column_id}].Apply(pred.pred.op,
                                                  pred.pred.value);
  }
  // Default encoding for unconstrained columns: has_pred=0, lo=0, hi=1.
  for (const auto& [key, idx] : column_index_) {
    features[col_base + 3 * idx + 1] = 0.0;
    features[col_base + 3 * idx + 2] = 1.0;
  }
  for (const auto& [key, range] : ranges) {
    const int slot = column_slot_[key.first][key.second];
    if (slot < 0) continue;
    const ColumnInfo& info = *column_info_by_id_[key.first][key.second];
    auto norm = [&](double v) {
      return std::clamp((v - info.min) / (info.max - info.min), 0.0, 1.0);
    };
    features[col_base + 3 * slot] = 1.0;
    features[col_base + 3 * slot + 1] = norm(static_cast<double>(range.lo));
    features[col_base + 3 * slot + 2] = norm(static_cast<double>(range.hi));
  }
  return features;
}

std::vector<double> QueryFeaturizer::MscnTableElement(
    const QueryGraph::TableInfo& info) const {
  std::vector<double> element(table_element_dim(), 0.0);
  MscnTableElementInto(info, element.data());
  return element;
}

std::vector<double> QueryFeaturizer::MscnJoinElement(
    const QueryGraph::EdgeInfo& edge) const {
  std::vector<double> element(join_element_dim(), 0.0);
  MscnJoinElementInto(edge, element.data());
  return element;
}

std::vector<double> QueryFeaturizer::MscnPredElement(
    const QueryGraph::PredInfo& pred) const {
  std::vector<double> element(predicate_element_dim(), 0.0);
  MscnPredElementInto(pred, element.data());
  return element;
}

void QueryFeaturizer::MscnTableElementInto(const QueryGraph::TableInfo& info,
                                           double* out) const {
  // One-hot table plus predicate-satisfaction bitmap over the table's
  // materialized sample, evaluated through the graph's pre-bound compiled
  // predicates. The sample is refined as one batch through the storage
  // filter kernels (arena scratch, unwound on return); a two-pointer walk
  // over the surviving subsequence then sets the per-sample bits —
  // duplicate sampled rows are unambiguous because equal row ids always
  // share one pass/fail outcome.
  out[table_slot_[info.table_id]] = 1.0;
  const auto& rows = *bitmap_by_id_[info.table_id];
  if (info.table->num_rows() == 0 || rows.empty()) return;
  double* bits = out + table_index_.size();
  if (info.compiled.empty()) {
    for (size_t i = 0; i < rows.size(); ++i) bits[i] = 1.0;
    return;
  }
  ArenaFrame frame(ThreadLocalArena());
  uint32_t* passing = frame.arena().AllocateArray<uint32_t>(rows.size());
  std::memcpy(passing, rows.data(), rows.size() * sizeof(uint32_t));
  const size_t count =
      FilterRowsConjunction(info.compiled, passing, rows.size());
  size_t j = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (j < count && passing[j] == rows[i]) {
      bits[i] = 1.0;
      ++j;
    }
  }
}

void QueryFeaturizer::MscnJoinElementInto(const QueryGraph::EdgeInfo& edge,
                                          double* out) const {
  auto it = join_index_.find(edge.canonical);
  if (it != join_index_.end()) out[it->second] = 1.0;
}

void QueryFeaturizer::MscnPredElementInto(const QueryGraph::PredInfo& pred,
                                          double* out) const {
  const int slot = column_slot_[pred.table_id][pred.column_id];
  if (slot >= 0) out[static_cast<size_t>(slot)] = 1.0;
  out[column_index_.size() + static_cast<size_t>(pred.pred.op)] = 1.0;
  const ColumnInfo* info = column_info_by_id_[pred.table_id][pred.column_id];
  if (info != nullptr) {
    out[column_index_.size() + 6] =
        std::clamp((static_cast<double>(pred.pred.value) - info->min) /
                       (info->max - info->min),
                   0.0, 1.0);
  }
}

QueryFeaturizer::SetFeatures QueryFeaturizer::MscnFeatures(
    const QueryGraph& graph, uint64_t mask) const {
  SetFeatures out;
  for (uint64_t rest = mask; rest != 0; rest &= rest - 1) {
    out.tables.push_back(
        MscnTableElement(graph.table(std::countr_zero(rest))));
  }
  for (const auto& edge : graph.edges()) {
    if ((edge.mask & mask) != edge.mask) continue;
    out.joins.push_back(MscnJoinElement(edge));
  }
  if (out.joins.empty()) {
    out.joins.push_back(std::vector<double>(join_element_dim(), 0.0));
  }
  for (const auto& pred : graph.predicates()) {
    if (((mask >> pred.local_table) & 1) == 0) continue;
    out.predicates.push_back(MscnPredElement(pred));
  }
  if (out.predicates.empty()) {
    out.predicates.push_back(
        std::vector<double>(predicate_element_dim(), 0.0));
  }
  return out;
}

FlatFeaturePlan::FlatFeaturePlan(const QueryFeaturizer& featurizer,
                                 const QueryGraph& graph) {
  // The default row: no tables, no joins, every column unconstrained
  // (has_pred=0, lo=0, hi=1) — exactly what FlatFeatures writes before the
  // range overrides.
  base_.assign(featurizer.flat_dim(), 0.0);
  const size_t join_base = featurizer.table_index_.size();
  const size_t col_base = join_base + featurizer.join_index_.size();
  for (const auto& [key, idx] : featurizer.column_index_) {
    base_[col_base + 3 * idx + 1] = 0.0;
    base_[col_base + 3 * idx + 2] = 1.0;
  }

  // Per local table: the one-hot slot plus the folded ranges of its
  // predicated columns. A column's range only folds predicates of its own
  // table, in query order — the same fold FlatFeatures runs per mask.
  table_patches_.resize(graph.num_tables());
  for (size_t local = 0; local < graph.num_tables(); ++local) {
    auto& patches = table_patches_[local];
    patches.emplace_back(
        featurizer.table_slot_[graph.table(local).table_id], 1.0);
    std::map<std::pair<int, int>, ValueRange> ranges;
    for (const auto& pred : graph.predicates()) {
      if (pred.local_table != static_cast<int>(local)) continue;
      if (pred.pred.op == CompareOp::kNeq) {
        ranges.try_emplace({pred.table_id, pred.column_id});
        continue;
      }
      ranges[{pred.table_id, pred.column_id}].Apply(pred.pred.op,
                                                    pred.pred.value);
    }
    for (const auto& [key, range] : ranges) {
      const int slot = featurizer.column_slot_[key.first][key.second];
      if (slot < 0) continue;
      const QueryFeaturizer::ColumnInfo& info =
          *featurizer.column_info_by_id_[key.first][key.second];
      auto norm = [&](double v) {
        return std::clamp((v - info.min) / (info.max - info.min), 0.0, 1.0);
      };
      patches.emplace_back(col_base + 3 * slot, 1.0);
      patches.emplace_back(col_base + 3 * slot + 1,
                           norm(static_cast<double>(range.lo)));
      patches.emplace_back(col_base + 3 * slot + 2,
                           norm(static_cast<double>(range.hi)));
    }
  }

  edge_slots_.reserve(graph.edges().size());
  for (const auto& edge : graph.edges()) {
    auto it = featurizer.join_index_.find(edge.canonical);
    edge_slots_.push_back(
        it == featurizer.join_index_.end()
            ? -1
            : static_cast<int>(join_base + it->second));
  }
}

void FlatFeaturePlan::FillRow(const QueryGraph& graph, uint64_t mask,
                              double* row) const {
  std::copy(base_.begin(), base_.end(), row);
  for (uint64_t rest = mask; rest != 0; rest &= rest - 1) {
    for (const auto& [idx, value] : table_patches_[std::countr_zero(rest)]) {
      row[idx] = value;
    }
  }
  const auto& edges = graph.edges();
  for (size_t e = 0; e < edges.size(); ++e) {
    if ((edges[e].mask & mask) != edges[e].mask) continue;
    if (edge_slots_[e] >= 0) row[edge_slots_[e]] = 1.0;
  }
}

}  // namespace cardbench
