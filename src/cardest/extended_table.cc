#include "cardest/extended_table.h"

#include <algorithm>

#include "common/logging.h"
#include "common/serde.h"

namespace cardbench {

namespace {

/// Union-find over join endpoints.
struct EndpointSets {
  std::map<JoinEndpoint, JoinEndpoint> parent;

  JoinEndpoint Find(JoinEndpoint e) {
    if (parent.find(e) == parent.end()) parent[e] = e;
    while (!(parent[e] == e)) {
      parent[e] = parent[parent[e]];
      e = parent[e];
    }
    return e;
  }
  void Union(const JoinEndpoint& a, const JoinEndpoint& b) {
    const JoinEndpoint ra = Find(a), rb = Find(b);
    if (!(ra == rb)) parent[ra] = rb;
  }
};

/// Materializes the fanout values of (table.my_column -> other) as a
/// storage Column so the shared ColumnBinner machinery applies.
Column BuildFanoutColumn(const Database& db, const std::string& table_name,
                         const std::string& my_column,
                         const JoinEndpoint& other) {
  const Table& table = db.TableOrDie(table_name);
  const Table& other_table = db.TableOrDie(other.table);
  const Column& my_col = table.ColumnByName(my_column);
  const HashIndex& index =
      other_table.GetIndex(other_table.ColumnIndexOrDie(other.column));
  Column fanout("fanout", ColumnKind::kNumeric);
  fanout.Reserve(table.num_rows());
  for (size_t row = 0; row < table.num_rows(); ++row) {
    if (!my_col.IsValid(row)) {
      fanout.Append(0);
    } else {
      fanout.Append(
          static_cast<Value>(index.Lookup(my_col.Get(row)).size()));
    }
  }
  return fanout;
}

}  // namespace

std::vector<std::vector<JoinEndpoint>> JoinColumnGroups(const Database& db) {
  EndpointSets sets;
  for (const auto& rel : db.join_relations()) {
    sets.Union({rel.left_table, rel.left_column},
               {rel.right_table, rel.right_column});
  }
  std::map<JoinEndpoint, std::vector<JoinEndpoint>> groups;
  for (const auto& [endpoint, unused] : sets.parent) {
    groups[sets.Find(endpoint)].push_back(endpoint);
  }
  std::vector<std::vector<JoinEndpoint>> out;
  for (auto& [root, members] : groups) {
    std::sort(members.begin(), members.end());
    out.push_back(std::move(members));
  }
  return out;
}

ExtendedTable::ExtendedTable(const Database& db, const std::string& table_name,
                             size_t max_bins)
    : table_name_(table_name), max_bins_(max_bins) {
  Build(db, /*initial=*/true);
}

void ExtendedTable::Build(const Database& db, bool initial) {
  const Table& table = db.TableOrDie(table_name_);
  num_rows_ = table.num_rows();

  if (initial) {
    columns_.clear();
    attr_index_.clear();
    fanout_index_.clear();
    // Filterable attributes.
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const Column& col = table.column(c);
      if (col.kind() != ColumnKind::kNumeric &&
          col.kind() != ColumnKind::kCategorical) {
        continue;
      }
      ExtColumn ext;
      ext.name = col.name();
      ext.is_fanout = false;
      ext.binner = std::make_unique<ColumnBinner>(col, max_bins_);
      attr_index_[col.name()] = columns_.size();
      columns_.push_back(std::move(ext));
    }
    // Fanout columns for every join-compatible pair touching this table.
    for (const auto& group : JoinColumnGroups(db)) {
      for (const auto& mine : group) {
        if (mine.table != table_name_) continue;
        for (const auto& other : group) {
          if (other.table == table_name_) continue;
          ExtColumn ext;
          ext.name = "fanout:" + mine.column + "->" + other.table + "." +
                     other.column;
          ext.is_fanout = true;
          ext.fanout_my_column = mine.column;
          ext.fanout_other = other;
          Column fanout = BuildFanoutColumn(db, table_name_, mine.column, other);
          ext.binner = std::make_unique<ColumnBinner>(fanout, max_bins_);
          fanout_index_[{mine.column, other.table + "." + other.column}] =
              columns_.size();
          columns_.push_back(std::move(ext));
        }
      }
    }
  }

  // (Re)compute binned rows; on refresh also recount binner masses.
  for (auto& ext : columns_) {
    if (ext.is_fanout) {
      Column fanout = BuildFanoutColumn(db, table_name_, ext.fanout_my_column,
                                        ext.fanout_other);
      if (!initial) ext.binner->Refresh(fanout);
      ext.bins.resize(num_rows_);
      for (size_t row = 0; row < num_rows_; ++row) {
        ext.bins[row] = ext.binner->BinOf(fanout.Get(row));
      }
    } else {
      const Column& col = table.ColumnByName(ext.name);
      if (!initial) ext.binner->Refresh(col);
      ext.bins.resize(num_rows_);
      for (size_t row = 0; row < num_rows_; ++row) {
        ext.bins[row] = ext.binner->BinOf(
            col.IsValid(row) ? std::optional<Value>(col.Get(row))
                             : std::nullopt);
      }
    }
  }
}

int ExtendedTable::AttrIndex(const std::string& name) const {
  auto it = attr_index_.find(name);
  return it == attr_index_.end() ? -1 : static_cast<int>(it->second);
}

int ExtendedTable::FanoutIndex(const std::string& my_column,
                               const JoinEndpoint& other) const {
  auto it =
      fanout_index_.find({my_column, other.table + "." + other.column});
  return it == fanout_index_.end() ? -1 : static_cast<int>(it->second);
}

std::vector<double> ExtendedTable::PredicateFactor(
    size_t col_idx, const std::vector<Predicate>& preds) const {
  return columns_[col_idx].binner->PredicateFractions(preds);
}

std::vector<double> ExtendedTable::FanoutMeanFactor(size_t col_idx) const {
  const ColumnBinner& binner = *columns_[col_idx].binner;
  std::vector<double> factor(binner.num_bins());
  for (uint16_t b = 0; b < binner.num_bins(); ++b) {
    factor[b] = binner.BinMean(b);
  }
  return factor;
}

std::vector<size_t> ExtendedTable::BinDomains() const {
  std::vector<size_t> domains;
  domains.reserve(columns_.size());
  for (const auto& ext : columns_) domains.push_back(ext.binner->num_bins());
  return domains;
}

std::vector<uint16_t> ExtendedTable::BinnedRow(size_t r) const {
  std::vector<uint16_t> row(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) row[c] = columns_[c].bins[r];
  return row;
}

std::vector<size_t> ExtendedTable::RefreshAfterInsert(const Database& db) {
  const size_t old_rows = num_rows_;
  Build(db, /*initial=*/false);
  std::vector<size_t> new_rows;
  for (size_t r = old_rows; r < num_rows_; ++r) new_rows.push_back(r);
  return new_rows;
}

void ExtendedTable::SerializeMeta(SectionWriter& out) const {
  out.PutString(table_name_);
  out.PutU64(max_bins_);
  out.PutU64(columns_.size());
  for (const auto& ext : columns_) {
    out.PutBool(ext.is_fanout);
    if (ext.is_fanout) {
      out.PutString(ext.fanout_my_column);
      out.PutString(ext.fanout_other.table);
      out.PutString(ext.fanout_other.column);
    } else {
      out.PutString(ext.name);
    }
    ext.binner->Serialize(out);
  }
}

Result<std::unique_ptr<ExtendedTable>> ExtendedTable::DeserializeMeta(
    const Database& db, SectionReader& in) {
  auto ext = std::unique_ptr<ExtendedTable>(new ExtendedTable());
  CARDBENCH_ASSIGN_OR_RETURN(ext->table_name_, in.GetString());
  CARDBENCH_ASSIGN_OR_RETURN(ext->max_bins_, in.GetU64());
  CARDBENCH_ASSIGN_OR_RETURN(uint64_t num_columns, in.GetU64());
  const Table* table = db.FindTable(ext->table_name_);
  if (table == nullptr) {
    return Status::NotFound("extended table for unknown table " +
                            ext->table_name_);
  }
  ext->num_rows_ = table->num_rows();
  // Update rebuilds every column from the database, which must hold each
  // column the artifact names.
  auto unknown = [&](const std::string& what) {
    return Status::InvalidArgument("extended table " + ext->table_name_ +
                                   " names unknown " + what);
  };
  for (size_t c = 0; c < num_columns; ++c) {
    ExtColumn col;
    CARDBENCH_ASSIGN_OR_RETURN(col.is_fanout, in.GetBool());
    if (col.is_fanout) {
      CARDBENCH_ASSIGN_OR_RETURN(col.fanout_my_column, in.GetString());
      CARDBENCH_ASSIGN_OR_RETURN(col.fanout_other.table, in.GetString());
      CARDBENCH_ASSIGN_OR_RETURN(col.fanout_other.column, in.GetString());
      const JoinEndpoint& other = col.fanout_other;
      if (!table->FindColumn(col.fanout_my_column).has_value()) {
        return unknown("column " + col.fanout_my_column);
      }
      const Table* other_table = db.FindTable(other.table);
      if (other_table == nullptr ||
          !other_table->FindColumn(other.column).has_value()) {
        return unknown("fanout target " + other.table + "." + other.column);
      }
      col.name = "fanout:" + col.fanout_my_column + "->" + other.table + "." +
                 other.column;
      ext->fanout_index_[{col.fanout_my_column,
                          other.table + "." + other.column}] = c;
    } else {
      CARDBENCH_ASSIGN_OR_RETURN(col.name, in.GetString());
      if (!table->FindColumn(col.name).has_value()) {
        return unknown("column " + col.name);
      }
      ext->attr_index_[col.name] = c;
    }
    CARDBENCH_ASSIGN_OR_RETURN(ColumnBinner binner,
                               ColumnBinner::Deserialize(in));
    col.binner = std::make_unique<ColumnBinner>(std::move(binner));
    ext->columns_.push_back(std::move(col));
  }
  return ext;
}

size_t ExtendedTable::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  for (const auto& ext : columns_) {
    bytes += ext.binner->MemoryBytes() + ext.bins.size() * sizeof(uint16_t);
  }
  return bytes;
}

}  // namespace cardbench
