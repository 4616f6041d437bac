#include "cardest/fanout_estimator.h"

#include <algorithm>
#include <bit>
#include <istream>
#include <ostream>

#include "common/arena.h"
#include "common/logging.h"
#include "common/serde.h"
#include "common/stopwatch.h"

namespace cardbench {

namespace {

/// Factor-sequence item standing for a table's predicate ColumnFactors; any
/// other item is a join edge side whose fanout column's per-bin mean factor
/// is pushed.
constexpr int kPredBlock = -1;

/// Expectations of one query table, keyed by factor sequence: every key's
/// items sit back to back in `items`, so a lookup compares a few ints and
/// allocates nothing.
class ExpectationMemo {
 public:
  const double* Find(std::span<const int> key) const {
    for (const Entry& entry : entries_) {
      if (entry.size == key.size() &&
          std::equal(key.begin(), key.end(), items_.begin() + entry.begin)) {
        return &entry.value;
      }
    }
    return nullptr;
  }

  void Add(std::span<const int> key, double value) {
    entries_.push_back({static_cast<uint32_t>(items_.size()),
                        static_cast<uint32_t>(key.size()), value});
    items_.insert(items_.end(), key.begin(), key.end());
  }

 private:
  struct Entry {
    uint32_t begin;
    uint32_t size;
    double value;
  };
  std::vector<int> items_;
  std::vector<Entry> entries_;
};

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

struct FanoutModelEstimator::QueryState {
  QueryState(const FanoutModelEstimator& estimator, const QueryGraph& graph)
      : tables(graph.num_tables()),
        side_column(2 * graph.edges().size()),
        side_mean(2 * graph.edges().size()),
        used(graph.edges().size()),
        children(graph.num_tables()) {
    for (size_t local = 0; local < tables.size(); ++local) {
      const QueryGraph::TableInfo& info = graph.table(local);
      tables[local].ext = estimator.ext_tables_.at(info.name).get();
      tables[local].model = estimator.models_.at(info.name).get();
    }
    for (size_t e = 0; e < graph.edges().size(); ++e) {
      const QueryGraph::EdgeInfo& edge = graph.edges()[e];
      const JoinEdge& je = *edge.edge;
      side_column[2 * e] = tables[static_cast<size_t>(edge.left_local)]
                               .ext->FanoutIndex(je.left_column,
                                                 {je.right_table,
                                                  je.right_column});
      side_column[2 * e + 1] = tables[static_cast<size_t>(edge.right_local)]
                                   .ext->FanoutIndex(je.right_column,
                                                     {je.left_table,
                                                      je.left_column});
    }
  }

  /// Edge `e`'s side on local table `local`: 2e for its left table, 2e + 1
  /// for its right one.
  static int SideOf(const QueryGraph::EdgeInfo& edge, size_t e, int local) {
    return static_cast<int>(2 * e) + (edge.left_local == local ? 0 : 1);
  }

  /// Builds the spanning tree of `mask` rooted at `root` into `children`
  /// and `used`: breadth-first from the root, each table taking the mask's
  /// edges in edge order; an edge to a visited table stays unused (a
  /// non-tree edge).
  void BuildTree(const QueryGraph& graph, uint64_t mask, int root) {
    const std::vector<QueryGraph::EdgeInfo>& edges = graph.edges();
    std::fill(used.begin(), used.end(), 0);
    tree.clear();
    order.assign(1, root);
    uint64_t visited = uint64_t{1} << root;
    for (size_t i = 0; i < order.size(); ++i) {
      const int at = order[i];
      const size_t begin = tree.size();
      for (size_t e = 0; e < edges.size(); ++e) {
        const QueryGraph::EdgeInfo& edge = edges[e];
        if (used[e] || (edge.mask & mask) != edge.mask) continue;
        int other;
        if (edge.left_local == at) {
          other = edge.right_local;
        } else if (edge.right_local == at) {
          other = edge.left_local;
        } else {
          continue;
        }
        if ((visited >> other) & 1) continue;
        used[e] = 1;
        visited |= uint64_t{1} << other;
        tree.push_back({e, other});
        order.push_back(other);
      }
      children[static_cast<size_t>(at)] = {begin, tree.size()};
    }
  }

  /// The tree edges from `local` to its children, as (edge, child) pairs.
  std::span<const std::pair<size_t, int>> ChildrenOf(int local) const {
    const auto [begin, end] = children[static_cast<size_t>(local)];
    return std::span<const std::pair<size_t, int>>(tree).subspan(begin,
                                                                 end - begin);
  }

  struct Table {
    const ExtendedTable* ext = nullptr;
    const TableDistribution* model = nullptr;
    /// Predicate ColumnFactors, built on first use.
    bool preds_built = false;
    std::vector<ColumnFactor> preds;
    ExpectationMemo memo;
  };
  std::vector<Table> tables;
  /// Per edge side: the fanout column of that side's table counting its
  /// matches on the other side (-1: the pair is not join-compatible), and
  /// its per-bin mean factor, built on first use.
  std::vector<int> side_column;
  std::vector<std::vector<double>> side_mean;

  // Spanning-tree scratch, rebuilt per mask: `used` per edge, the (edge,
  // child) pairs of every table in BFS order, each table's range of them,
  // and the BFS queue.
  std::vector<char> used;
  std::vector<std::pair<size_t, int>> tree;
  std::vector<std::pair<size_t, size_t>> children;
  std::vector<int> order;
  /// Factor-sequence scratch for Expect keys.
  std::vector<int> key;
};

double FanoutModelEstimator::Expect(const QueryGraph& graph, QueryState& state,
                                    int local, std::span<const int> key) const {
  QueryState::Table& table = state.tables[static_cast<size_t>(local)];
  if (const double* hit = table.memo.Find(key)) return *hit;

  const size_t num_cols = table.ext->num_columns();
  ArenaFrame frame(ThreadLocalArena());
  const double** factor_of_col =
      frame.arena().AllocateArray<const double*>(num_cols);
  std::fill_n(factor_of_col, num_cols, nullptr);
  // Predicate columns are distinct attributes, and a spanning tree reaches
  // each neighbour over one edge, so no two factors share a column.
  const auto place = [&](size_t col, const double* factor) {
    CARDBENCH_CHECK(factor_of_col[col] == nullptr,
                    "two factors on extended column %zu", col);
    factor_of_col[col] = factor;
  };
  for (int item : key) {
    if (item == kPredBlock) {
      if (!table.preds_built) {
        for (const auto& group : graph.table(local).pred_groups) {
          const int idx = table.ext->AttrIndex(group.column);
          if (idx < 0) continue;  // predicate on unmodeled column: ignore
          table.preds.push_back(
              {static_cast<size_t>(idx),
               table.ext->PredicateFactor(static_cast<size_t>(idx),
                                          group.preds)});
        }
        table.preds_built = true;
      }
      for (const ColumnFactor& pred : table.preds) {
        place(pred.col_idx, pred.per_bin.data());
      }
    } else {
      const size_t side = static_cast<size_t>(item);
      const size_t col = static_cast<size_t>(state.side_column[side]);
      std::vector<double>& mean = state.side_mean[side];
      if (mean.empty()) mean = table.ext->FanoutMeanFactor(col);
      place(col, mean.data());
    }
  }
  const double expectation =
      table.model->ExpectProduct({factor_of_col, num_cols});
  table.memo.Add(key, expectation);
  return expectation;
}

double FanoutModelEstimator::SubtreeRho(const QueryGraph& graph,
                                        QueryState& state, int local,
                                        int up_side) const {
  // Fanout column counting this table's matches in the parent.
  CARDBENCH_CHECK(state.side_column[static_cast<size_t>(up_side)] >= 0,
                  "no fanout column %s -> parent",
                  graph.table(local).name.c_str());
  double child_scalars = 1.0;
  for (const auto& [e, child] : state.ChildrenOf(local)) {
    const QueryGraph::EdgeInfo& edge = graph.edges()[e];
    child_scalars *= SubtreeRho(graph, state, child,
                                QueryState::SideOf(edge, e, child));
  }

  std::vector<int>& key = state.key;
  key.assign({up_side, kPredBlock});
  for (const auto& [e, child] : state.ChildrenOf(local)) {
    const int side = QueryState::SideOf(graph.edges()[e], e, local);
    CARDBENCH_CHECK(state.side_column[static_cast<size_t>(side)] >= 0,
                    "no fanout column for child edge");
    key.push_back(side);
  }
  const double numer_e = Expect(graph, state, local, key);
  const double denom_e = Expect(graph, state, local, {&up_side, 1});
  if (denom_e <= 1e-12) return 0.0;
  return (numer_e / denom_e) * child_scalars;
}

std::vector<double> FanoutModelEstimator::EstimateCards(
    const QueryGraph& graph, std::span<const uint64_t> masks) const {
  QueryState state(*this, graph);
  std::vector<double> out;
  out.reserve(masks.size());
  for (uint64_t mask : masks) {
    out.push_back(EstimateCardImpl(graph, mask, state));
  }
  return out;
}

double FanoutModelEstimator::EstimateCardImpl(const QueryGraph& graph,
                                              uint64_t mask,
                                              QueryState& state) const {
  CARDBENCH_CHECK(mask != 0, "empty query");

  // Single table: |T| * E[predicate factors].
  if (std::popcount(mask) == 1) {
    const int local = std::countr_zero(mask);
    const double rows =
        static_cast<double>(graph.table(local).table->num_rows());
    return std::max(1.0,
                    rows * Expect(graph, state, local, {&kPredBlock, 1}));
  }

  // Ablation mode: join uniformity over single-table model estimates (the
  // single-table recursion takes the popcount==1 branch above).
  if (!use_fanout_join_) {
    double card = 1.0;
    for (uint64_t rest = mask; rest != 0; rest &= rest - 1) {
      card *= EstimateCardImpl(graph, rest & ~(rest - 1), state);
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
  state.BuildTree(graph, mask, root);

  double scalars = 1.0;
  for (const auto& [e, child] : state.ChildrenOf(root)) {
    const QueryGraph::EdgeInfo& edge = graph.edges()[e];
    scalars *= SubtreeRho(graph, state, child,
                          QueryState::SideOf(edge, e, child));
  }
  std::vector<int>& key = state.key;
  key.assign(1, kPredBlock);
  for (const auto& [e, child] : state.ChildrenOf(root)) {
    const int side = QueryState::SideOf(graph.edges()[e], e, root);
    CARDBENCH_CHECK(state.side_column[static_cast<size_t>(side)] >= 0,
                    "no fanout column for root edge");
    key.push_back(side);
  }
  double card = static_cast<double>(graph.table(root).table->num_rows()) *
                Expect(graph, state, root, key) * scalars;

  // Independence correction for parallel/non-tree edges (PostgreSQL's
  // 1/max(ndv) equi-join selectivity).
  for (size_t e = 0; e < graph.edges().size(); ++e) {
    const QueryGraph::EdgeInfo& edge = graph.edges()[e];
    if ((edge.mask & mask) != edge.mask || state.used[e]) continue;
    card /= JoinUniformityDivisor(edge);
  }
  return std::max(card, 1e-6);
}

}  // namespace cardbench
