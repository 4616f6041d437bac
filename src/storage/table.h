#ifndef CARDBENCH_STORAGE_TABLE_H_
#define CARDBENCH_STORAGE_TABLE_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/column.h"
#include "storage/index.h"

namespace cardbench {

/// An in-memory columnar table. Rows are identified by dense 0-based ids.
/// Tables own their columns and lazily-built hash indexes on key columns.
class Table {
 public:
  explicit Table(std::string name) : name_(std::move(name)) {}

  // Tables are heavy, identity-carrying objects (indexes cache row ids);
  // they are neither copyable nor movable and live behind unique_ptr in the
  // Catalog.
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return name_; }

  /// Adds a column; all columns must be added before rows. Fails if a column
  /// with the same name exists.
  Status AddColumn(const std::string& col_name, ColumnKind kind);

  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const { return columns_.empty() ? 0 : columns_[0].size(); }

  /// Column accessors. Index-based access is bounds-checked by the vector in
  /// debug builds only; callers resolve names once and use indexes in loops.
  const Column& column(size_t idx) const { return columns_[idx]; }
  Column& column(size_t idx) { return columns_[idx]; }

  /// Returns the index of `col_name`, or nullopt.
  std::optional<size_t> FindColumn(const std::string& col_name) const;

  /// Returns the column by name or dies; for use in code paths where the
  /// schema is known to contain the column (workloads validated upfront).
  const Column& ColumnByName(const std::string& col_name) const;
  size_t ColumnIndexOrDie(const std::string& col_name) const;

  /// Appends one row given values for all columns in declaration order.
  /// nullopt entries become NULL. Invalidates indexes.
  Status AppendRow(const std::vector<std::optional<Value>>& row);

  /// Hash index value -> row ids on `col_idx`; built on first use and cached
  /// until the next AppendRow.
  const HashIndex& GetIndex(size_t col_idx) const;

  /// Approximate in-memory footprint in bytes (columns only).
  size_t MemoryBytes() const;

 private:
  std::string name_;
  std::vector<Column> columns_;
  std::unordered_map<std::string, size_t> column_index_;
  // Guards the lazy index builds below so concurrent readers can trigger
  // GetIndex safely; AppendRows (which invalidates) remains an
  // exclusive-access owner operation.
  mutable std::mutex index_mu_;
  // Lazily built per-column indexes; mutable because building an index does
  // not change the logical table state.
  mutable std::vector<std::unique_ptr<HashIndex>> indexes_;
};

}  // namespace cardbench

#endif  // CARDBENCH_STORAGE_TABLE_H_
