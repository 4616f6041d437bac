#include "cardest/multihist_est.h"

#include <algorithm>
#include <bit>
#include <istream>
#include <ostream>

#include "common/serde.h"
#include "common/stopwatch.h"
#include "common/str_util.h"
#include "ml/clustering.h"

namespace cardbench {

MultiHistEstimator::MultiHistEstimator(const Database& db,
                                       size_t dims_per_group,
                                       size_t bins_per_dim,
                                       double correlation_threshold)
    : CardinalityEstimator(db),
      db_(db),
      dims_per_group_(dims_per_group),
      bins_per_dim_(bins_per_dim),
      correlation_threshold_(correlation_threshold) {
  Stopwatch watch;
  Build(db);
  train_seconds_ = watch.ElapsedSeconds();
}

void MultiHistEstimator::Build(const Database& db) {
  for (const auto& table_name : db.table_names()) {
    const Table& table = db.TableOrDie(table_name);
    std::vector<size_t> filterable;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const ColumnKind kind = table.column(c).kind();
      if (kind == ColumnKind::kNumeric || kind == ColumnKind::kCategorical) {
        filterable.push_back(c);
      }
    }

    // Greedy correlated grouping: a column joins a group if it correlates
    // above threshold with the group's seed.
    const size_t n = table.num_rows();
    const size_t sample = std::min<size_t>(n, 2000);
    const size_t stride = std::max<size_t>(1, n / std::max<size_t>(1, sample));
    auto column_sample = [&](size_t c) {
      std::vector<double> values;
      values.reserve(sample);
      const Column& col = table.column(c);
      for (size_t i = 0; i < n && values.size() < sample; i += stride) {
        values.push_back(col.IsValid(i) ? static_cast<double>(col.Get(i))
                                        : -1e18);
      }
      return values;
    };
    std::vector<std::vector<double>> samples;
    samples.reserve(filterable.size());
    for (size_t c : filterable) samples.push_back(column_sample(c));

    std::vector<bool> taken(filterable.size(), false);
    std::vector<std::vector<size_t>> members;
    for (size_t i = 0; i < filterable.size(); ++i) {
      if (taken[i]) continue;
      taken[i] = true;
      std::vector<size_t> group = {i};
      for (size_t j = i + 1;
           j < filterable.size() && group.size() < dims_per_group_; ++j) {
        if (taken[j]) continue;
        if (DependenceScore(samples[i], samples[j]) >=
            correlation_threshold_) {
          taken[j] = true;
          group.push_back(j);
        }
      }
      members.push_back(std::move(group));
    }

    for (const auto& member : members) {
      Group group;
      const bool multi = member.size() > 1;
      // Multi-dimensional buckets are coarse; single columns keep fine
      // 1-D histograms.
      const size_t bins = multi ? bins_per_dim_ : 100;
      for (size_t m : member) {
        const Column& col = table.column(filterable[m]);
        group.columns.push_back(col.name());
        group.column_ids.push_back(static_cast<int>(filterable[m]));
        group.binners.push_back(std::make_unique<ColumnBinner>(col, bins));
      }
      for (size_t row = 0; row < n; ++row) {
        std::vector<uint16_t> key(member.size());
        for (size_t k = 0; k < member.size(); ++k) {
          const Column& col = table.column(filterable[member[k]]);
          key[k] = group.binners[k]->BinOf(
              col.IsValid(row) ? std::optional<Value>(col.Get(row))
                               : std::nullopt);
        }
        group.joint[key] += 1.0;
      }
      group.total = static_cast<double>(n);
      groups_[table_name].push_back(std::move(group));
    }
  }
  groups_by_id_.clear();
  for (const auto& table_name : db.table_names()) {
    groups_by_id_.push_back(&groups_.at(table_name));
  }
}

Status MultiHistEstimator::UpdateImpl(const InsertionBatch& batch) {
  if (batch.IsFullRefresh()) {
    Stopwatch watch;
    groups_.clear();
    groups_by_id_.clear();
    Build(db_);
    train_seconds_ += watch.ElapsedSeconds();
    return Status::OK();
  }
  for (const TableDelta& delta : batch.tables) {
    const Table& table = db_.TableOrDie(delta.table);
    // Build and Deserialize keep the groups of every table.
    for (Group& group : groups_.at(delta.table)) {
      std::vector<uint16_t> key(group.column_ids.size());
      for (size_t row = delta.old_num_rows; row < delta.new_num_rows; ++row) {
        for (size_t k = 0; k < group.column_ids.size(); ++k) {
          const Column& col =
              table.column(static_cast<size_t>(group.column_ids[k]));
          key[k] = group.binners[k]->BinOf(
              col.IsValid(row) ? std::optional<Value>(col.Get(row))
                               : std::nullopt);
        }
        group.joint[key] += 1.0;
      }
      group.total += static_cast<double>(delta.inserted_rows());
    }
  }
  return Status::OK();
}

double MultiHistEstimator::GroupSelectivity(
    const Group& group,
    const std::vector<std::vector<Predicate>>& preds) const {
  bool any = false;
  for (const auto& p : preds) any |= !p.empty();
  if (!any) return 1.0;
  if (group.total <= 0) return 0.0;

  std::vector<std::vector<double>> fractions(group.columns.size());
  for (size_t k = 0; k < group.columns.size(); ++k) {
    fractions[k] = group.binners[k]->PredicateFractions(preds[k]);
  }
  double pass = 0.0;
  for (const auto& [key, count] : group.joint) {
    double phi = 1.0;
    for (size_t k = 0; k < key.size(); ++k) phi *= fractions[k][key[k]];
    pass += count * phi;
  }
  return pass / group.total;
}

double MultiHistEstimator::EstimateCard(const QueryGraph& graph,
                                        uint64_t mask) const {
  double card = 1.0;
  for (uint64_t rest = mask; rest != 0; rest &= rest - 1) {
    const QueryGraph::TableInfo& info = graph.table(std::countr_zero(rest));
    double selectivity = 1.0;
    for (const auto& group : *groups_by_id_[info.table_id]) {
      std::vector<std::vector<Predicate>> preds(group.columns.size());
      for (size_t p = 0; p < info.preds.size(); ++p) {
        for (size_t k = 0; k < group.column_ids.size(); ++k) {
          if (group.column_ids[k] == info.compiled[p].column_id) {
            preds[k].push_back(info.preds[p]);
          }
        }
      }
      selectivity *= GroupSelectivity(group, preds);
    }
    card *= static_cast<double>(info.table->num_rows()) * selectivity;
  }
  // Join uniformity, like the other histogram methods.
  for (const auto& edge : graph.edges()) {
    if ((edge.mask & mask) != edge.mask) continue;
    card /= JoinUniformityDivisor(edge);
  }
  return std::max(card, 1e-6);
}

Status MultiHistEstimator::Serialize(std::ostream& out) const {
  ModelWriter writer("multihist");
  SectionWriter& meta = writer.AddSection("meta");
  meta.PutU64(dims_per_group_);
  meta.PutU64(bins_per_dim_);
  meta.PutDouble(correlation_threshold_);
  meta.PutDouble(train_seconds_);
  SectionWriter& hist = writer.AddSection("groups");
  hist.PutU64(groups_.size());
  for (const auto& [table, groups] : groups_) {
    hist.PutString(table);
    hist.PutU64(groups.size());
    for (const auto& group : groups) {
      hist.PutU64(group.columns.size());
      for (size_t k = 0; k < group.columns.size(); ++k) {
        hist.PutString(group.columns[k]);
        hist.PutI64(group.column_ids[k]);
        group.binners[k]->Serialize(hist);
      }
      hist.PutU64(group.joint.size());
      for (const auto& [key, count] : group.joint) {
        hist.PutU16s(key);
        hist.PutDouble(count);
      }
      hist.PutDouble(group.total);
    }
  }
  return writer.WriteTo(out);
}

Result<std::unique_ptr<MultiHistEstimator>> MultiHistEstimator::Deserialize(
    const Database& db, std::istream& in) {
  CARDBENCH_ASSIGN_OR_RETURN(ModelReader reader,
                             ModelReader::Open(in, "multihist"));
  auto est = std::unique_ptr<MultiHistEstimator>(
      new MultiHistEstimator(db, DeferredInit()));
  CARDBENCH_ASSIGN_OR_RETURN(SectionReader meta, reader.Section("meta"));
  CARDBENCH_ASSIGN_OR_RETURN(est->dims_per_group_, meta.GetU64());
  CARDBENCH_ASSIGN_OR_RETURN(est->bins_per_dim_, meta.GetU64());
  CARDBENCH_ASSIGN_OR_RETURN(est->correlation_threshold_, meta.GetDouble());
  CARDBENCH_ASSIGN_OR_RETURN(est->train_seconds_, meta.GetDouble());
  CARDBENCH_ASSIGN_OR_RETURN(SectionReader hist, reader.Section("groups"));
  CARDBENCH_ASSIGN_OR_RETURN(uint64_t num_tables, hist.GetU64());
  for (size_t t = 0; t < num_tables; ++t) {
    CARDBENCH_ASSIGN_OR_RETURN(std::string table, hist.GetString());
    const Table* base = db.FindTable(table);
    if (base == nullptr) {
      return Status::NotFound("multihist groups for unknown table " + table);
    }
    CARDBENCH_ASSIGN_OR_RETURN(uint64_t num_groups, hist.GetU64());
    std::vector<Group>& groups = est->groups_[table];
    for (size_t g = 0; g < num_groups; ++g) {
      Group group;
      CARDBENCH_ASSIGN_OR_RETURN(uint64_t num_cols, hist.GetU64());
      for (size_t k = 0; k < num_cols; ++k) {
        CARDBENCH_ASSIGN_OR_RETURN(std::string column, hist.GetString());
        group.columns.push_back(std::move(column));
        CARDBENCH_ASSIGN_OR_RETURN(int64_t column_id, hist.GetI64());
        // UpdateImpl reads the column by id; it must be the named one.
        if (column_id < 0 ||
            static_cast<uint64_t>(column_id) >= base->num_columns() ||
            base->column(static_cast<size_t>(column_id)).name() !=
                group.columns.back()) {
          return Status::InvalidArgument(
              StrFormat("multihist column id %lld does not name %s.%s",
                        static_cast<long long>(column_id), table.c_str(),
                        group.columns.back().c_str()));
        }
        group.column_ids.push_back(static_cast<int>(column_id));
        CARDBENCH_ASSIGN_OR_RETURN(ColumnBinner binner,
                                   ColumnBinner::Deserialize(hist));
        group.binners.push_back(
            std::make_unique<ColumnBinner>(std::move(binner)));
      }
      CARDBENCH_ASSIGN_OR_RETURN(uint64_t num_buckets, hist.GetU64());
      for (size_t b = 0; b < num_buckets; ++b) {
        CARDBENCH_ASSIGN_OR_RETURN(std::vector<uint16_t> key, hist.GetU16s());
        // GroupSelectivity indexes one bin per group column with each key.
        if (key.size() != group.binners.size()) {
          return Status::InvalidArgument(
              StrFormat("multihist bucket key of width %zu in a %zu-column "
                        "group of %s",
                        key.size(), group.binners.size(), table.c_str()));
        }
        for (size_t k = 0; k < key.size(); ++k) {
          if (key[k] >= group.binners[k]->num_bins()) {
            return Status::InvalidArgument(StrFormat(
                "multihist bucket bin %u of %s.%s is past its %zu bins",
                key[k], table.c_str(), group.columns[k].c_str(),
                group.binners[k]->num_bins()));
          }
        }
        CARDBENCH_ASSIGN_OR_RETURN(double count, hist.GetDouble());
        group.joint[std::move(key)] = count;
      }
      CARDBENCH_ASSIGN_OR_RETURN(group.total, hist.GetDouble());
      groups.push_back(std::move(group));
    }
  }
  est->groups_by_id_.clear();
  for (const auto& table_name : db.table_names()) {
    est->groups_by_id_.push_back(&est->groups_[table_name]);
  }
  return est;
}

}  // namespace cardbench
