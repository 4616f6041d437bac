#include "cardest/postgres_est.h"

#include <algorithm>
#include <bit>
#include <istream>
#include <ostream>

#include "common/logging.h"
#include "common/serde.h"
#include "common/stopwatch.h"
#include "storage/stats.h"

namespace cardbench {

PostgresEstimator::PostgresEstimator(const Database& db, size_t stats_target)
    : CardinalityEstimator(db), db_(db), stats_target_(stats_target) {
  Stopwatch watch;
  Analyze();
  train_seconds_ = watch.ElapsedSeconds();
}

void PostgresEstimator::Analyze() {
  stats_.clear();
  for (const auto& table_name : db_.table_names()) {
    const Table& table = db_.TableOrDie(table_name);
    const double rows = std::max<double>(1.0, static_cast<double>(table.num_rows()));
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const Column& col = table.column(c);
      ColumnStatsEntry entry;
      entry.binner = std::make_unique<ColumnBinner>(col, stats_target_);
      entry.null_frac = static_cast<double>(col.null_count()) / rows;
      entry.ndv = std::max<double>(
          1.0, static_cast<double>(ValueFrequencies(col).size()));
      stats_[{table_name, col.name()}] = std::move(entry);
    }
  }
  RebuildIdIndex();
}

void PostgresEstimator::RebuildIdIndex() {
  stats_by_id_.assign(db_.num_tables(), {});
  for (size_t t = 0; t < db_.table_names().size(); ++t) {
    const Table& table = db_.TableOrDie(db_.table_names()[t]);
    stats_by_id_[t].assign(table.num_columns(), nullptr);
    for (size_t c = 0; c < table.num_columns(); ++c) {
      auto it = stats_.find({db_.table_names()[t], table.column(c).name()});
      if (it != stats_.end()) stats_by_id_[t][c] = &it->second;
    }
  }
}

Status PostgresEstimator::UpdateImpl(const InsertionBatch&) {
  Stopwatch watch;
  Analyze();
  train_seconds_ += watch.ElapsedSeconds();
  return Status::OK();
}

double PostgresEstimator::GraphTableSelectivity(
    const QueryGraph::TableInfo& info) const {
  // Fold each column's predicates through the column's histogram, multiply
  // columns under the attribute-independence assumption. The predicate
  // groups come sorted by column name, which fixes the product's order.
  double selectivity = 1.0;
  for (const auto& group : info.pred_groups) {
    const ColumnStatsEntry* entry = StatsById(info.table_id, group.column_id);
    if (entry == nullptr) continue;
    const ColumnBinner& binner = *entry->binner;
    const std::vector<double> fractions = binner.PredicateFractions(group.preds);
    double sel = 0.0;
    for (uint16_t b = 0; b < binner.num_bins(); ++b) {
      sel += binner.BinMass(b) * fractions[b];
    }
    selectivity *= sel;
  }
  return selectivity;
}

std::vector<double> PostgresEstimator::EstimateCards(
    const QueryGraph& graph, std::span<const uint64_t> masks) const {
  // Per-call memo of GraphTableSelectivity by local table id.
  std::vector<std::optional<double>> selectivities(graph.num_tables());
  std::vector<double> out;
  out.reserve(masks.size());
  for (uint64_t mask : masks) {
    double card = 1.0;
    for (uint64_t rest = mask; rest != 0; rest &= rest - 1) {
      const int local = std::countr_zero(rest);
      const QueryGraph::TableInfo& info = graph.table(local);
      std::optional<double>& selectivity =
          selectivities[static_cast<size_t>(local)];
      if (!selectivity) selectivity = GraphTableSelectivity(info);
      card *= static_cast<double>(info.table->num_rows()) * *selectivity;
    }
    for (const auto& edge : graph.edges()) {
      if ((edge.mask & mask) != edge.mask) continue;
      const ColumnStatsEntry* left =
          StatsById(edge.left_table_id, edge.left_column_id);
      const ColumnStatsEntry* right =
          StatsById(edge.right_table_id, edge.right_column_id);
      CARDBENCH_CHECK(left != nullptr && right != nullptr,
                      "missing join-column statistics");
      card *= (1.0 - left->null_frac) * (1.0 - right->null_frac) /
              std::max(left->ndv, right->ndv);
    }
    out.push_back(std::max(card, 1e-6));
  }
  return out;
}

Status PostgresEstimator::Serialize(std::ostream& out) const {
  ModelWriter writer("pgstats");
  SectionWriter& meta = writer.AddSection("meta");
  meta.PutU64(stats_target_);
  meta.PutDouble(train_seconds_);
  SectionWriter& stats = writer.AddSection("stats");
  stats.PutU64(stats_.size());
  for (const auto& [key, entry] : stats_) {
    stats.PutString(key.first);
    stats.PutString(key.second);
    stats.PutDouble(entry.ndv);
    stats.PutDouble(entry.null_frac);
    entry.binner->Serialize(stats);
  }
  return writer.WriteTo(out);
}

Result<std::unique_ptr<PostgresEstimator>> PostgresEstimator::Deserialize(
    const Database& db, std::istream& in) {
  CARDBENCH_ASSIGN_OR_RETURN(ModelReader reader,
                             ModelReader::Open(in, "pgstats"));
  auto est = std::unique_ptr<PostgresEstimator>(
      new PostgresEstimator(db, DeferredInit()));
  CARDBENCH_ASSIGN_OR_RETURN(SectionReader meta, reader.Section("meta"));
  CARDBENCH_ASSIGN_OR_RETURN(uint64_t stats_target, meta.GetU64());
  est->stats_target_ = stats_target;
  CARDBENCH_ASSIGN_OR_RETURN(est->train_seconds_, meta.GetDouble());
  CARDBENCH_ASSIGN_OR_RETURN(SectionReader stats, reader.Section("stats"));
  CARDBENCH_ASSIGN_OR_RETURN(uint64_t count, stats.GetU64());
  for (size_t i = 0; i < count; ++i) {
    CARDBENCH_ASSIGN_OR_RETURN(std::string table, stats.GetString());
    CARDBENCH_ASSIGN_OR_RETURN(std::string column, stats.GetString());
    ColumnStatsEntry entry;
    CARDBENCH_ASSIGN_OR_RETURN(entry.ndv, stats.GetDouble());
    CARDBENCH_ASSIGN_OR_RETURN(entry.null_frac, stats.GetDouble());
    CARDBENCH_ASSIGN_OR_RETURN(ColumnBinner binner,
                               ColumnBinner::Deserialize(stats));
    entry.binner = std::make_unique<ColumnBinner>(std::move(binner));
    est->stats_[{table, column}] = std::move(entry);
  }
  est->RebuildIdIndex();
  return est;
}

}  // namespace cardbench
