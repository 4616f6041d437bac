#ifndef CARDBENCH_STORAGE_CATALOG_H_
#define CARDBENCH_STORAGE_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/table.h"

namespace cardbench {

/// Classification of a join relation in the schema. The paper distinguishes
/// one-to-many primary-key/foreign-key joins from many-to-many
/// foreign-key/foreign-key joins (STATS-CEB exercises both, JOB-LIGHT only
/// PK-FK).
enum class JoinKind : uint8_t {
  kPkFk = 0,  ///< left side is unique (primary key), right side references it
  kFkFk = 1,  ///< both sides are foreign keys into a shared domain
};

/// One edge of the schema join graph (Figure 1 of the paper): an
/// equi-join-able column pair between two tables.
struct JoinRelation {
  std::string left_table;
  std::string left_column;
  std::string right_table;
  std::string right_column;
  JoinKind kind = JoinKind::kPkFk;

  /// "t1.c1 = t2.c2" rendering for EXPLAIN output.
  std::string ToString() const {
    return left_table + "." + left_column + " = " + right_table + "." +
           right_column;
  }
};

/// The database: owns tables and the schema-level join relations between
/// them. All components (workload generator, optimizer, estimators) share a
/// const Database&.
class Database {
 public:
  explicit Database(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Creates an empty table; returns a pointer for column/row population.
  Result<Table*> AddTable(const std::string& table_name);

  /// Table lookup; nullptr if absent.
  const Table* FindTable(const std::string& table_name) const;
  Table* FindTable(const std::string& table_name);

  /// Catalog id of `table_name` (its index in table_names()), or -1.
  int TableId(const std::string& table_name) const;

  /// Table by catalog id in O(1); nullptr if `table_id` names no table.
  const Table* TableById(int table_id) const {
    return table_id >= 0 && static_cast<size_t>(table_id) < tables_.size()
               ? tables_[static_cast<size_t>(table_id)].get()
               : nullptr;
  }

  /// Column `column_id` of table `table_id` in O(1); nullptr if either id
  /// names nothing.
  const Column* ColumnById(int table_id, int column_id) const {
    const Table* table = TableById(table_id);
    return table != nullptr && column_id >= 0 &&
                   static_cast<size_t>(column_id) < table->num_columns()
               ? &table->column(static_cast<size_t>(column_id))
               : nullptr;
  }

  /// Table lookup that dies on absence (schema validated upfront).
  const Table& TableOrDie(const std::string& table_name) const;
  Table& TableOrDie(const std::string& table_name);

  /// Registers a join relation; both endpoints must exist.
  Status AddJoinRelation(JoinRelation relation);

  /// All registered join relations (schema edges).
  const std::vector<JoinRelation>& join_relations() const { return relations_; }

  /// Join relations between two tables in either orientation. The returned
  /// relations are normalized so that `left_table == t1`.
  std::vector<JoinRelation> RelationsBetween(const std::string& t1,
                                             const std::string& t2) const;

  /// All table names in insertion order.
  const std::vector<std::string>& table_names() const { return table_names_; }

  size_t num_tables() const { return table_names_.size(); }

  /// Sum of per-table memory footprints.
  size_t MemoryBytes() const;

  /// Monotonic data version: starts at 1 (the load-time state) and is
  /// bumped by every applied insertion batch (StreamingInsertFeed /
  /// ApplyInsertions). Models and cache entries are stamped with the
  /// version they were built against, which is what makes "is this model
  /// stale, and by how much?" a well-posed question for the refresh
  /// pipeline. Atomic so metrics threads may read it while a quiesced
  /// update section bumps it.
  uint64_t data_version() const {
    return data_version_.load(std::memory_order_acquire);
  }
  void BumpDataVersion() {
    data_version_.fetch_add(1, std::memory_order_acq_rel);
  }

 private:
  std::string name_;
  std::vector<std::string> table_names_;
  std::vector<std::unique_ptr<Table>> tables_;  // indexed by catalog id
  std::unordered_map<std::string, int> ids_by_name_;
  std::vector<JoinRelation> relations_;
  std::atomic<uint64_t> data_version_{1};
};

}  // namespace cardbench

#endif  // CARDBENCH_STORAGE_CATALOG_H_
