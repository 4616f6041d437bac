#include "storage/catalog.h"

#include "common/logging.h"

namespace cardbench {

Result<Table*> Database::AddTable(const std::string& table_name) {
  if (ids_by_name_.count(table_name) > 0) {
    return Status::AlreadyExists("table " + table_name + " already exists");
  }
  ids_by_name_[table_name] = static_cast<int>(tables_.size());
  tables_.push_back(std::make_unique<Table>(table_name));
  table_names_.push_back(table_name);
  return tables_.back().get();
}

int Database::TableId(const std::string& table_name) const {
  auto it = ids_by_name_.find(table_name);
  return it == ids_by_name_.end() ? -1 : it->second;
}

const Table* Database::FindTable(const std::string& table_name) const {
  return TableById(TableId(table_name));
}

Table* Database::FindTable(const std::string& table_name) {
  const int id = TableId(table_name);
  return id < 0 ? nullptr : tables_[static_cast<size_t>(id)].get();
}

const Table& Database::TableOrDie(const std::string& table_name) const {
  const Table* t = FindTable(table_name);
  CARDBENCH_CHECK(t != nullptr, "no table named %s", table_name.c_str());
  return *t;
}

Table& Database::TableOrDie(const std::string& table_name) {
  Table* t = FindTable(table_name);
  CARDBENCH_CHECK(t != nullptr, "no table named %s", table_name.c_str());
  return *t;
}

Status Database::AddJoinRelation(JoinRelation relation) {
  const Table* lt = FindTable(relation.left_table);
  const Table* rt = FindTable(relation.right_table);
  if (lt == nullptr || rt == nullptr) {
    return Status::NotFound("join relation references unknown table: " +
                            relation.ToString());
  }
  if (!lt->FindColumn(relation.left_column).has_value() ||
      !rt->FindColumn(relation.right_column).has_value()) {
    return Status::NotFound("join relation references unknown column: " +
                            relation.ToString());
  }
  relations_.push_back(std::move(relation));
  return Status::OK();
}

std::vector<JoinRelation> Database::RelationsBetween(
    const std::string& t1, const std::string& t2) const {
  std::vector<JoinRelation> out;
  for (const auto& rel : relations_) {
    if (rel.left_table == t1 && rel.right_table == t2) {
      out.push_back(rel);
    } else if (rel.left_table == t2 && rel.right_table == t1) {
      JoinRelation flipped;
      flipped.left_table = rel.right_table;
      flipped.left_column = rel.right_column;
      flipped.right_table = rel.left_table;
      flipped.right_column = rel.left_column;
      flipped.kind = rel.kind;
      out.push_back(flipped);
    }
  }
  return out;
}

size_t Database::MemoryBytes() const {
  size_t total = 0;
  for (const auto& table : tables_) total += table->MemoryBytes();
  return total;
}

}  // namespace cardbench
