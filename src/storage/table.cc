#include "storage/table.h"

#include "common/logging.h"
#include "common/str_util.h"

namespace cardbench {

Status Table::AddColumn(const std::string& col_name, ColumnKind kind) {
  if (column_index_.count(col_name) > 0) {
    return Status::AlreadyExists("column " + col_name + " already exists in " +
                                 name_);
  }
  if (num_rows() > 0) {
    return Status::InvalidArgument(
        "cannot add column after rows were inserted: " + col_name);
  }
  column_index_[col_name] = columns_.size();
  columns_.emplace_back(col_name, kind);
  indexes_.emplace_back(nullptr);
  return Status::OK();
}

std::optional<size_t> Table::FindColumn(const std::string& col_name) const {
  auto it = column_index_.find(col_name);
  if (it == column_index_.end()) return std::nullopt;
  return it->second;
}

const Column& Table::ColumnByName(const std::string& col_name) const {
  return columns_[ColumnIndexOrDie(col_name)];
}

size_t Table::ColumnIndexOrDie(const std::string& col_name) const {
  auto idx = FindColumn(col_name);
  CARDBENCH_CHECK(idx.has_value(), "no column %s in table %s",
                  col_name.c_str(), name_.c_str());
  return *idx;
}

Status Table::AppendRow(const std::vector<std::optional<Value>>& row) {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(StrFormat(
        "row width %zu != column count %zu in table %s", row.size(),
        columns_.size(), name_.c_str()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].has_value()) {
      columns_[i].Append(*row[i]);
    } else {
      columns_[i].AppendNull();
    }
    indexes_[i].reset();  // invalidate cached index
  }
  return Status::OK();
}

const HashIndex& Table::GetIndex(size_t col_idx) const {
  CARDBENCH_CHECK(col_idx < columns_.size(), "bad column index");
  std::lock_guard<std::mutex> lock(index_mu_);
  if (indexes_[col_idx] == nullptr) {
    indexes_[col_idx] = std::make_unique<HashIndex>(columns_[col_idx]);
  }
  return *indexes_[col_idx];
}

size_t Table::MemoryBytes() const {
  size_t total = 0;
  for (const auto& col : columns_) total += col.MemoryBytes();
  return total;
}

}  // namespace cardbench
