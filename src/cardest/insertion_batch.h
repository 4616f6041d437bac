#ifndef CARDBENCH_CARDEST_INSERTION_BATCH_H_
#define CARDBENCH_CARDEST_INSERTION_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/str_util.h"
#include "storage/catalog.h"

namespace cardbench {

struct TrainingQuery;

/// One table's share of an applied insertion batch: rows
/// [old_num_rows, new_num_rows) of the named table are the fresh ones.
/// Deltas describe data that is *already in* the database when the
/// estimator sees the batch — CardinalityEstimator::Update reads the new
/// rows straight from the shared Database it was built on.
struct TableDelta {
  std::string table;
  size_t old_num_rows = 0;
  size_t new_num_rows = 0;

  size_t inserted_rows() const { return new_num_rows - old_num_rows; }
};

/// What an estimator is told about one applied micro-batch of streaming
/// inserts (the unit of the online-refresh pipeline). An empty `tables`
/// list means "full refresh": the deltas are unknown and the model
/// refreshes from the data as it stands.
struct InsertionBatch {
  /// Database::data_version after this batch was applied (0 for a
  /// full-refresh batch). Refreshed models are stamped with it: a model at
  /// model_version == data_version is fully caught up.
  uint64_t data_version = 0;

  /// Per-table row ranges of the fresh data; empty = full refresh.
  std::vector<TableDelta> tables;

  /// Optional refresh workload for query-driven estimators (LW-XGB
  /// warm-start rounds, MSCN fine-tune epochs): queries labeled with true
  /// cardinalities on the *post-insert* data. Borrowed; must outlive the
  /// Update call. Data-driven estimators ignore it.
  const std::vector<TrainingQuery>* refresh_training = nullptr;

  bool IsFullRefresh() const { return tables.empty(); }

  /// OK when `db` can hold these deltas: each names a table of `db` at most
  /// once, with old_num_rows <= new_num_rows <= the table's row count.
  /// NotFound for an unknown table, InvalidArgument for the rest.
  Status CheckAgainst(const Database& db) const {
    std::vector<bool> seen(db.num_tables(), false);
    for (const TableDelta& delta : tables) {
      const int id = db.TableId(delta.table);
      if (id < 0) {
        return Status::NotFound("insertion batch names unknown table " +
                                delta.table);
      }
      if (seen[static_cast<size_t>(id)]) {
        return Status::InvalidArgument("insertion batch names table " +
                                       delta.table + " twice");
      }
      seen[static_cast<size_t>(id)] = true;
      const size_t rows = db.TableById(id)->num_rows();
      if (delta.old_num_rows > delta.new_num_rows ||
          delta.new_num_rows > rows) {
        return Status::InvalidArgument(StrFormat(
            "insertion batch rows [%zu, %zu) of %s do not fit its %zu rows",
            delta.old_num_rows, delta.new_num_rows, delta.table.c_str(),
            rows));
      }
    }
    return Status::OK();
  }

  size_t total_inserted_rows() const {
    size_t total = 0;
    for (const TableDelta& delta : tables) total += delta.inserted_rows();
    return total;
  }
};

}  // namespace cardbench

#endif  // CARDBENCH_CARDEST_INSERTION_BATCH_H_
