#ifndef CARDBENCH_CARDEST_EXTENDED_TABLE_H_
#define CARDBENCH_CARDEST_EXTENDED_TABLE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cardest/binner.h"
#include "storage/catalog.h"

namespace cardbench {

/// A join endpoint: one column of one table.
struct JoinEndpoint {
  std::string table;
  std::string column;

  bool operator<(const JoinEndpoint& other) const {
    return std::tie(table, column) < std::tie(other.table, other.column);
  }
  bool operator==(const JoinEndpoint& other) const {
    return table == other.table && column == other.column;
  }
};

/// Groups all join columns of `db` by shared key domain (union-find over the
/// schema's join relations). Two columns from different groups can never be
/// equi-joined; two from the same group can (PK-FK or FK-FK).
std::vector<std::vector<JoinEndpoint>> JoinColumnGroups(const Database& db);

/// The "extended table" of the fanout method (DeepDB §4): the base table's
/// filterable attributes plus one fanout column per join-compatible
/// (my column, other table's column) pair, where fanout(row) = number of
/// rows in the other table whose column matches. Data-driven estimators
/// build their per-table distribution models over these binned columns, and
/// the shared FanoutJoinEstimator combines them across a join tree.
class ExtendedTable {
 public:
  /// Discretizes attributes and computes fanout columns. `max_bins` bounds
  /// every column's bin count (including the NULL bin).
  ExtendedTable(const Database& db, const std::string& table_name,
                size_t max_bins);

  struct ExtColumn {
    std::string name;  // attribute name, or "fanout:<col>-><t>.<c>"
    bool is_fanout = false;
    // For fanout columns: the pair of join endpoints this column counts.
    std::string fanout_my_column;
    JoinEndpoint fanout_other;
    std::unique_ptr<ColumnBinner> binner;
    std::vector<uint16_t> bins;  // per base-table row
  };

  const std::string& table_name() const { return table_name_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }
  const ExtColumn& column(size_t idx) const { return columns_[idx]; }

  /// Index of the attribute column `name`, or -1.
  int AttrIndex(const std::string& name) const;

  /// Index of the fanout column counting matches of `my_column` against
  /// `other`, or -1 if the pair is not join-compatible.
  int FanoutIndex(const std::string& my_column,
                  const JoinEndpoint& other) const;

  /// Per-bin pass fraction of a predicate conjunction on attribute column
  /// `col_idx`.
  std::vector<double> PredicateFactor(size_t col_idx,
                                      const std::vector<Predicate>& preds) const;

  /// Per-bin mean fanout of fanout column `col_idx`.
  std::vector<double> FanoutMeanFactor(size_t col_idx) const;

  /// Bin domains of all columns (for model construction).
  std::vector<size_t> BinDomains() const;

  /// Binned row `r` across all columns.
  std::vector<uint16_t> BinnedRow(size_t r) const;

  /// Recomputes bins, masses and fanouts after rows were appended to the
  /// base tables (bin boundaries are kept — the incremental-update path).
  /// Returns the indexes of rows that are new since construction.
  std::vector<size_t> RefreshAfterInsert(const Database& db);

  /// Appends the inference-relevant state (column metadata + binners) to a
  /// serde section. Per-row bin arrays are data-derived and are NOT
  /// written: a deserialized table answers factor queries immediately and
  /// lazily recomputes row bins (via RefreshAfterInsert) if a model update
  /// needs them.
  void SerializeMeta(SectionWriter& out) const;
  static Result<std::unique_ptr<ExtendedTable>> DeserializeMeta(
      const Database& db, SectionReader& in);

 private:
  ExtendedTable() = default;  // for DeserializeMeta
  void Build(const Database& db, bool initial);

  std::string table_name_;
  size_t max_bins_;
  size_t num_rows_ = 0;
  std::vector<ExtColumn> columns_;
  std::map<std::pair<std::string, std::string>, size_t> fanout_index_;
  std::map<std::string, size_t> attr_index_;
};

}  // namespace cardbench

#endif  // CARDBENCH_CARDEST_EXTENDED_TABLE_H_
