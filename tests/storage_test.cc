#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "datagen/stats_gen.h"
#include "storage/catalog.h"
#include "storage/csv.h"
#include "storage/filter.h"
#include "storage/stats.h"
#include "storage/table.h"

namespace cardbench {
namespace {

void FillSmallTable(Table& t) {
  EXPECT_TRUE(t.AddColumn("id", ColumnKind::kKey).ok());
  EXPECT_TRUE(t.AddColumn("x", ColumnKind::kNumeric).ok());
  EXPECT_TRUE(t.AppendRow({1, 10}).ok());
  EXPECT_TRUE(t.AppendRow({2, std::nullopt}).ok());
  EXPECT_TRUE(t.AppendRow({3, 30}).ok());
}

TEST(TableTest, AppendAndRead) {
  Table t("t");
  FillSmallTable(t);
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_EQ(t.column(0).Get(2), 3);
  EXPECT_FALSE(t.column(1).IsValid(1));
  EXPECT_TRUE(t.column(1).IsValid(2));
  EXPECT_EQ(t.column(1).null_count(), 1u);
}

TEST(TableTest, DuplicateColumnRejected) {
  Table t("t");
  EXPECT_TRUE(t.AddColumn("x", ColumnKind::kNumeric).ok());
  EXPECT_EQ(t.AddColumn("x", ColumnKind::kNumeric).code(),
            StatusCode::kAlreadyExists);
}

TEST(TableTest, RowWidthMismatchRejected) {
  Table t("t");
  FillSmallTable(t);
  EXPECT_EQ(t.AppendRow({1}).code(), StatusCode::kInvalidArgument);
}

TEST(TableTest, FindColumn) {
  Table t("t");
  FillSmallTable(t);
  EXPECT_EQ(t.FindColumn("x").value(), 1u);
  EXPECT_FALSE(t.FindColumn("nope").has_value());
}

TEST(IndexTest, LookupSkipsNulls) {
  Table t("t");
  ASSERT_TRUE(t.AddColumn("k", ColumnKind::kKey).ok());
  ASSERT_TRUE(t.AppendRow({5}).ok());
  ASSERT_TRUE(t.AppendRow({std::nullopt}).ok());
  ASSERT_TRUE(t.AppendRow({5}).ok());
  ASSERT_TRUE(t.AppendRow({7}).ok());
  const HashIndex& idx = t.GetIndex(0);
  EXPECT_EQ(idx.num_entries(), 3u);
  EXPECT_EQ(idx.num_distinct(), 2u);
  EXPECT_EQ(idx.Lookup(5).size(), 2u);
  EXPECT_EQ(idx.Lookup(7).size(), 1u);
  EXPECT_TRUE(idx.Lookup(999).empty());
}

TEST(IndexTest, InvalidatedByAppend) {
  Table t("t");
  ASSERT_TRUE(t.AddColumn("k", ColumnKind::kKey).ok());
  ASSERT_TRUE(t.AppendRow({5}).ok());
  EXPECT_EQ(t.GetIndex(0).Lookup(5).size(), 1u);
  ASSERT_TRUE(t.AppendRow({5}).ok());
  EXPECT_EQ(t.GetIndex(0).Lookup(5).size(), 2u);
}

/// The semantics HashIndex must reproduce: per-value row ids in ascending
/// order (push_back over ascending rows), NULLs skipped.
using IndexModel = std::unordered_map<Value, std::vector<uint32_t>>;

IndexModel ModelOf(const Column& column) {
  IndexModel model;
  for (size_t row = 0; row < column.size(); ++row) {
    if (column.IsValid(row)) {
      model[column.Get(row)].push_back(static_cast<uint32_t>(row));
    }
  }
  return model;
}

std::vector<uint32_t> ToVector(std::span<const uint32_t> rows) {
  return std::vector<uint32_t>(rows.begin(), rows.end());
}

/// Checks column 0 of `t`'s index against the model: every value's exact
/// postings in order, the counts, one ForEachKey visit per distinct value,
/// and empty lookups for `misses` (values the column does not hold).
void ExpectIndexMatchesModel(const Table& t,
                             const std::vector<Value>& misses = {}) {
  const HashIndex& index = t.GetIndex(0);
  const IndexModel model = ModelOf(t.column(0));
  size_t entries = 0;
  for (const auto& [value, rows] : model) {
    EXPECT_EQ(ToVector(index.Lookup(value)), rows) << "value " << value;
    entries += rows.size();
  }
  EXPECT_EQ(index.num_distinct(), model.size());
  EXPECT_EQ(index.num_entries(), entries);
  size_t visits = 0;
  index.ForEachKey([&](Value value, std::span<const uint32_t> rows) {
    ++visits;
    const auto it = model.find(value);
    ASSERT_NE(it, model.end()) << "value " << value;
    EXPECT_EQ(ToVector(rows), it->second) << "value " << value;
  });
  EXPECT_EQ(visits, model.size());
  for (Value miss : misses) {
    ASSERT_EQ(model.count(miss), 0u) << "value " << miss;
    EXPECT_TRUE(index.Lookup(miss).empty()) << "value " << miss;
  }
}

/// A one-column key table holding `values` (nullopt = NULL) in row order.
std::unique_ptr<Table> KeyTable(const std::vector<std::optional<Value>>& values) {
  auto t = std::make_unique<Table>("t");
  EXPECT_TRUE(t->AddColumn("k", ColumnKind::kKey).ok());
  for (const auto& v : values) EXPECT_TRUE(t->AppendRow({v}).ok());
  return t;
}

TEST(IndexTest, MatchesModelOnRandomColumns) {
  // Domains from heavy duplication to mostly unique, so the slot array
  // grows from its minimum through several doublings.
  std::mt19937_64 rng(7);
  for (uint64_t domain : {3u, 300u, 30000u, 1u << 30}) {
    std::vector<std::optional<Value>> values;
    for (size_t i = 0; i < 20000; ++i) {
      if (rng() % 10 == 0) {
        values.push_back(std::nullopt);
      } else {
        values.push_back(static_cast<Value>(rng() % domain) - 100);
      }
    }
    SCOPED_TRACE(domain);
    ExpectIndexMatchesModel(*KeyTable(values),
                            {-101, static_cast<Value>(domain) - 100});
  }
}

TEST(IndexTest, EmptyAndAllNullColumnsIndexNothing) {
  ExpectIndexMatchesModel(*KeyTable({}), {0, 1, -1});
  ExpectIndexMatchesModel(
      *KeyTable({std::nullopt, std::nullopt, std::nullopt}), {0, 1, -1});
  EXPECT_EQ(KeyTable({std::nullopt})->GetIndex(0).num_entries(), 0u);
}

TEST(IndexTest, OneKeyOnEveryRow) {
  const std::vector<std::optional<Value>> values(1000, Value{42});
  const auto t = KeyTable(values);
  ExpectIndexMatchesModel(*t, {0, 41, 43});
  EXPECT_EQ(t->GetIndex(0).Lookup(42).size(), 1000u);
}

TEST(IndexTest, ExtremeKeys) {
  constexpr Value kMin = std::numeric_limits<Value>::min();
  constexpr Value kMax = std::numeric_limits<Value>::max();
  ExpectIndexMatchesModel(
      *KeyTable({kMax, kMin, 0, std::nullopt, -1, kMin, kMax, 0, kMax}),
      {1, kMin + 1, kMax - 1});
}

TEST(IndexTest, KeysSharingAHomeSlot) {
  // With at most 8 distinct values the index keeps its minimum 16 slots,
  // whose home slot is the low 4 hash bits. Six values homed on the last
  // slot make one probe chain that wraps around the array's end; a seventh
  // value homed there is a miss that must walk the whole chain.
  std::vector<Value> shared;
  for (Value v = 0; shared.size() < 7; ++v) {
    if ((HashMix64(static_cast<uint64_t>(v)) & 15) == 15) shared.push_back(v);
  }
  std::vector<std::optional<Value>> values;
  for (size_t round = 0; round < 3; ++round) {
    for (size_t k = 0; k < 6; ++k) values.push_back(shared[(k + round) % 6]);
    values.push_back(std::nullopt);
  }
  ExpectIndexMatchesModel(*KeyTable(values), {shared[6]});
}

TEST(IndexTest, RebuiltAfterAppendMatchesModel) {
  auto t = KeyTable({3, 1, std::nullopt, 3});
  ExpectIndexMatchesModel(*t, {2});
  ASSERT_TRUE(t->AppendRow({2}).ok());
  ASSERT_TRUE(t->AppendRow({3}).ok());
  ExpectIndexMatchesModel(*t, {4});
  EXPECT_EQ(ToVector(t->GetIndex(0).Lookup(3)),
            (std::vector<uint32_t>{0, 3, 5}));
}

TEST(CatalogTest, AddAndFindTables) {
  Database db("test");
  ASSERT_TRUE(db.AddTable("a").ok());
  EXPECT_FALSE(db.AddTable("a").ok());
  EXPECT_NE(db.FindTable("a"), nullptr);
  EXPECT_EQ(db.FindTable("b"), nullptr);
  EXPECT_EQ(db.num_tables(), 1u);
}

TEST(CatalogTest, JoinRelationValidation) {
  Database db("test");
  Table* a = db.AddTable("a").value();
  Table* b = db.AddTable("b").value();
  ASSERT_TRUE(a->AddColumn("id", ColumnKind::kKey).ok());
  ASSERT_TRUE(b->AddColumn("a_id", ColumnKind::kKey).ok());
  EXPECT_TRUE(
      db.AddJoinRelation({"a", "id", "b", "a_id", JoinKind::kPkFk}).ok());
  EXPECT_FALSE(
      db.AddJoinRelation({"a", "id", "zzz", "a_id", JoinKind::kPkFk}).ok());
  EXPECT_FALSE(
      db.AddJoinRelation({"a", "nope", "b", "a_id", JoinKind::kPkFk}).ok());
}

TEST(CatalogTest, RelationsBetweenNormalizesOrientation) {
  Database db("test");
  Table* a = db.AddTable("a").value();
  Table* b = db.AddTable("b").value();
  ASSERT_TRUE(a->AddColumn("id", ColumnKind::kKey).ok());
  ASSERT_TRUE(b->AddColumn("a_id", ColumnKind::kKey).ok());
  ASSERT_TRUE(
      db.AddJoinRelation({"a", "id", "b", "a_id", JoinKind::kPkFk}).ok());
  const auto rels = db.RelationsBetween("b", "a");
  ASSERT_EQ(rels.size(), 1u);
  EXPECT_EQ(rels[0].left_table, "b");
  EXPECT_EQ(rels[0].left_column, "a_id");
}

TEST(StatsTest, BasicColumnStats) {
  Table t("t");
  FillSmallTable(t);
  const ColumnStats stats = ComputeColumnStats(t.column(1));
  EXPECT_EQ(stats.row_count, 3u);
  EXPECT_EQ(stats.null_count, 1u);
  EXPECT_EQ(stats.num_distinct, 2u);
  EXPECT_EQ(stats.min, 10);
  EXPECT_EQ(stats.max, 30);
  EXPECT_DOUBLE_EQ(stats.mean, 20.0);
}

TEST(StatsTest, SkewnessOfSymmetricDataIsZero) {
  Table t("t");
  ASSERT_TRUE(t.AddColumn("x", ColumnKind::kNumeric).ok());
  for (Value v : {1, 2, 2, 3}) ASSERT_TRUE(t.AppendRow({v}).ok());
  EXPECT_NEAR(ComputeColumnStats(t.column(0)).skewness, 0.0, 1e-9);
}

TEST(StatsTest, SkewnessPositiveForHeavyRightTail) {
  Table t("t");
  ASSERT_TRUE(t.AddColumn("x", ColumnKind::kNumeric).ok());
  for (Value v : {1, 1, 1, 1, 1, 1, 1, 1, 100}) {
    ASSERT_TRUE(t.AppendRow({v}).ok());
  }
  EXPECT_GT(ComputeColumnStats(t.column(0)).skewness, 1.0);
}

TEST(StatsTest, PearsonCorrelationDetectsLinearDependence) {
  Table t("t");
  ASSERT_TRUE(t.AddColumn("x", ColumnKind::kNumeric).ok());
  ASSERT_TRUE(t.AddColumn("y", ColumnKind::kNumeric).ok());
  ASSERT_TRUE(t.AddColumn("z", ColumnKind::kNumeric).ok());
  for (Value v = 0; v < 50; ++v) {
    ASSERT_TRUE(t.AppendRow({v, 2 * v + 1, (v * 37) % 11}).ok());
  }
  EXPECT_NEAR(PearsonCorrelation(t.column(0), t.column(1)), 1.0, 1e-9);
  EXPECT_LT(std::abs(PearsonCorrelation(t.column(0), t.column(2))), 0.4);
}

TEST(StatsTest, ValueFrequenciesIgnoreNulls) {
  Table t("t");
  FillSmallTable(t);
  const auto freqs = ValueFrequencies(t.column(1));
  EXPECT_EQ(freqs.size(), 2u);
  EXPECT_EQ(freqs.at(10), 1u);
}

TEST(CsvTest, RoundTripPreservesDataAndKinds) {
  Table t("t");
  FillSmallTable(t);
  const std::string path =
      (std::filesystem::temp_directory_path() / "cardbench_csv_test.csv")
          .string();
  ASSERT_TRUE(WriteTableCsv(t, path).ok());
  Table back("t2");
  ASSERT_TRUE(ReadTableCsv(back, path).ok());
  ASSERT_EQ(back.num_rows(), 3u);
  ASSERT_EQ(back.num_columns(), 2u);
  EXPECT_EQ(back.column(0).kind(), ColumnKind::kKey);
  EXPECT_EQ(back.column(1).kind(), ColumnKind::kNumeric);
  EXPECT_EQ(back.column(0).Get(1), 2);
  EXPECT_FALSE(back.column(1).IsValid(1));
  EXPECT_EQ(back.column(1).Get(2), 30);
  std::remove(path.c_str());
}

TEST(FullOuterJoinEstimateTest, GrowsWithChildTables) {
  StatsGenConfig config;
  config.scale = 0.05;
  auto db = GenerateStatsDatabase(config);
  size_t total_rows = 0;
  for (const auto& name : db->table_names()) {
    total_rows += db->TableOrDie(name).num_rows();
  }
  const double foj = EstimateFullOuterJoinSize(*db);
  // The FOJ must dwarf the base row count by orders of magnitude (the paper
  // quotes 3e16 against ~1M stored rows for the real STATS).
  EXPECT_GT(foj, 1e3 * static_cast<double>(total_rows));
}

// ------------------------------------------------------ batch filter kernels

constexpr CompareOp kAllOps[] = {CompareOp::kEq, CompareOp::kNeq,
                                 CompareOp::kLt, CompareOp::kLe,
                                 CompareOp::kGt, CompareOp::kGe};

/// Deterministic test column: values cycle through a small domain and every
/// 7th row (offset 3) is NULL.
Column MakeKernelColumn(size_t n) {
  Column col("c", ColumnKind::kNumeric);
  for (size_t i = 0; i < n; ++i) {
    if (i % 7 == 3) {
      col.AppendNull();
    } else {
      col.Append(static_cast<Value>((i * 37) % 50));
    }
  }
  return col;
}

TEST(FilterKernelTest, FilterRangeMatchesScalarForAllOps) {
  const Column col = MakeKernelColumn(300);
  for (CompareOp op : kAllOps) {
    std::vector<uint32_t> sel;
    const size_t count = col.FilterRange(10, 290, op, 25, &sel);
    std::vector<uint32_t> expected;
    for (size_t r = 10; r < 290; ++r) {
      if (col.IsValid(r) && EvalCompare(col.Get(r), op, 25)) {
        expected.push_back(static_cast<uint32_t>(r));
      }
    }
    EXPECT_EQ(count, expected.size()) << CompareOpName(op);
    EXPECT_EQ(sel, expected) << CompareOpName(op);
  }
}

TEST(FilterKernelTest, FilterRangeClampsEndAndAppends) {
  const Column col = MakeKernelColumn(100);
  std::vector<uint32_t> sel = {12345};  // pre-existing content is kept
  col.FilterRange(0, 100000, CompareOp::kGe, 0, &sel);
  ASSERT_FALSE(sel.empty());
  EXPECT_EQ(sel.front(), 12345u);
  // All 100 rows minus the NULLs pass `>= 0` (domain is non-negative).
  EXPECT_EQ(sel.size() - 1, 100 - col.null_count());
  EXPECT_EQ(sel.back(), 99u);
}

TEST(FilterKernelTest, FilterRowsCompactsInPlaceForAllOps) {
  const Column col = MakeKernelColumn(300);
  for (CompareOp op : kAllOps) {
    std::vector<uint32_t> sel;
    for (uint32_t r = 0; r < 300; r += 2) sel.push_back(r);
    const size_t kept = col.FilterRows(sel.data(), sel.size(), op, 25);
    sel.resize(kept);
    std::vector<uint32_t> expected;
    for (uint32_t r = 0; r < 300; r += 2) {
      if (col.IsValid(r) && EvalCompare(col.Get(r), op, 25)) {
        expected.push_back(r);
      }
    }
    EXPECT_EQ(sel, expected) << CompareOpName(op);
  }
}

TEST(FilterKernelTest, GatherReportsValuesAndNulls) {
  const Column col = MakeKernelColumn(50);
  const std::vector<uint32_t> rows = {3, 0, 49, 10, 17};
  std::vector<Value> keys(rows.size());
  std::vector<uint8_t> valid(rows.size());
  col.Gather(rows.data(), rows.size(), keys.data(), valid.data());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(valid[i] != 0, col.IsValid(rows[i])) << rows[i];
    if (valid[i]) {
      EXPECT_EQ(keys[i], col.Get(rows[i])) << rows[i];
    }
  }
}

TEST(FilterKernelTest, ConjunctionHelpersMatchScalar) {
  Table t("t");
  ASSERT_TRUE(t.AddColumn("a", ColumnKind::kNumeric).ok());
  ASSERT_TRUE(t.AddColumn("b", ColumnKind::kNumeric).ok());
  for (size_t i = 0; i < 500; ++i) {
    if (i % 11 == 5) {
      ASSERT_TRUE(t.AppendRow({static_cast<Value>(i % 40), std::nullopt}).ok());
    } else {
      ASSERT_TRUE(t.AppendRow({static_cast<Value>(i % 40),
                               static_cast<Value>(i % 13)}).ok());
    }
  }
  const std::vector<Predicate> preds = {
      {"t", "a", CompareOp::kGe, 10},
      {"t", "b", CompareOp::kLt, 9},
  };
  const auto compiled = CompilePredicates(t, preds);

  std::vector<uint32_t> expected;
  for (uint32_t r = 0; r < 500; ++r) {
    bool pass = true;
    for (const auto& p : preds) {
      const Column& col = t.ColumnByName(p.column);
      if (!col.IsValid(r) || !EvalCompare(col.Get(r), p.op, p.value)) {
        pass = false;
        break;
      }
    }
    if (pass) expected.push_back(r);
  }

  std::vector<uint32_t> sel;
  EXPECT_EQ(FilterRangeConjunction(compiled, 0, 500, &sel), expected.size());
  EXPECT_EQ(sel, expected);
  EXPECT_EQ(CountRangeConjunction(compiled, 0, 500), expected.size());

  std::vector<uint32_t> all(500);
  for (uint32_t r = 0; r < 500; ++r) all[r] = r;
  EXPECT_EQ(FilterRowsConjunction(compiled, &all), expected.size());
  EXPECT_EQ(all, expected);

  for (uint32_t r = 0; r < expected.size(); ++r) {
    EXPECT_TRUE(RowPassesCompiled(compiled, expected[r]));
  }

  // An empty conjunction admits the whole range.
  const std::vector<CompiledPredicate> none;
  EXPECT_EQ(CountRangeConjunction(none, 7, 123), 116u);
}

}  // namespace
}  // namespace cardbench
