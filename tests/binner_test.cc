#include <gtest/gtest.h>

#include <climits>
#include <map>

#include "cardest/binner.h"
#include "common/rng.h"
#include "cardest/extended_table.h"
#include "datagen/stats_gen.h"

namespace cardbench {
namespace {

Column MakeColumn(const std::vector<std::optional<Value>>& values) {
  Column col("c", ColumnKind::kNumeric);
  for (const auto& v : values) {
    if (v.has_value()) {
      col.Append(*v);
    } else {
      col.AppendNull();
    }
  }
  return col;
}

TEST(BinnerTest, NullBinAndMasses) {
  const Column col = MakeColumn({1, 2, 2, 3, std::nullopt, std::nullopt});
  ColumnBinner binner(col, 4);
  EXPECT_EQ(binner.BinOf(std::nullopt), 0);
  EXPECT_NEAR(binner.BinMass(0), 2.0 / 6.0, 1e-12);
  double total_mass = 0;
  for (uint16_t b = 0; b < binner.num_bins(); ++b) {
    total_mass += binner.BinMass(b);
  }
  EXPECT_NEAR(total_mass, 1.0, 1e-12);
}

TEST(BinnerTest, SelectivityMatchesExactCountForRanges) {
  // Heavily skewed column; the binner's per-bin value counts make range
  // selectivity exact regardless of bin boundaries.
  std::vector<std::optional<Value>> values;
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) values.push_back(rng.NextZipf(100, 1.3));
  const Column col = MakeColumn(values);
  ColumnBinner binner(col, 12);

  for (const auto& [lo, hi] : std::vector<std::pair<Value, Value>>{
           {0, 0}, {1, 5}, {3, 99}, {50, 80}}) {
    size_t exact = 0;
    for (const auto& v : values) exact += (*v >= lo && *v <= hi);
    std::vector<Predicate> preds = {
        {"t", "c", CompareOp::kGe, lo}, {"t", "c", CompareOp::kLe, hi}};
    const auto fractions = binner.PredicateFractions(preds);
    double sel = 0;
    for (uint16_t b = 0; b < binner.num_bins(); ++b) {
      sel += binner.BinMass(b) * fractions[b];
    }
    EXPECT_NEAR(sel * 5000.0, static_cast<double>(exact), 1e-6)
        << "range [" << lo << "," << hi << "]";
  }
}

TEST(BinnerTest, NeqSubtractsEqualityMass) {
  const Column col = MakeColumn({1, 1, 1, 2, 3});
  ColumnBinner binner(col, 4);
  std::vector<Predicate> preds = {{"t", "c", CompareOp::kNeq, 1}};
  const auto fractions = binner.PredicateFractions(preds);
  double sel = 0;
  for (uint16_t b = 0; b < binner.num_bins(); ++b) {
    sel += binner.BinMass(b) * fractions[b];
  }
  EXPECT_NEAR(sel, 2.0 / 5.0, 1e-12);
}

TEST(BinnerTest, BinMeanIsExactPerBinAverage) {
  const Column col = MakeColumn({10, 20, 30, 40});
  ColumnBinner binner(col, 3);  // NULL bin + 2 value bins
  // Equi-depth: bin1 = {10,20}, bin2 = {30,40}.
  EXPECT_NEAR(binner.BinMean(1), 15.0, 1e-12);
  EXPECT_NEAR(binner.BinMean(2), 35.0, 1e-12);
}

TEST(BinnerTest, BinOfClampsOutOfRangeValues) {
  const Column col = MakeColumn({10, 20, 30});
  ColumnBinner binner(col, 4);
  EXPECT_EQ(binner.BinOf(10), binner.BinOf(5));     // below min -> first bin
  EXPECT_EQ(binner.BinOf(30), binner.BinOf(1000));  // above max -> last bin
}

TEST(BinnerTest, RefreshTracksAppendedRows) {
  Column col = MakeColumn({1, 2, 3, 4});
  ColumnBinner binner(col, 3);
  col.Append(4);
  col.Append(4);
  col.AppendNull();
  binner.Refresh(col);
  EXPECT_NEAR(binner.BinMass(0), 1.0 / 7.0, 1e-12);
  std::vector<Predicate> preds = {{"t", "c", CompareOp::kEq, 4}};
  const auto fractions = binner.PredicateFractions(preds);
  double sel = 0;
  for (uint16_t b = 0; b < binner.num_bins(); ++b) {
    sel += binner.BinMass(b) * fractions[b];
  }
  EXPECT_NEAR(sel, 3.0 / 7.0, 1e-12);
}

/// Today's per-value linear scan, written out independently of the binner:
/// each bin's (value, count) list rebuilt from the column through BinOf,
/// then every value tested against the folded range and every <> value
/// subtracted. PredicateFractions must equal it double for double.
std::vector<double> ReferenceFractions(const ColumnBinner& binner,
                                       const Column& col,
                                       const std::vector<Predicate>& preds) {
  std::vector<std::map<Value, size_t>> bins(binner.num_bins());
  for (size_t row = 0; row < col.size(); ++row) {
    if (col.IsValid(row)) ++bins[binner.BinOf(col.Get(row))][col.Get(row)];
  }
  std::vector<double> fractions(binner.num_bins(), 1.0);
  if (preds.empty()) return fractions;
  fractions[0] = 0.0;
  ValueRange range;
  std::vector<Value> excluded;
  for (const auto& pred : preds) {
    if (pred.op == CompareOp::kNeq) {
      excluded.push_back(pred.value);
    } else {
      range.Apply(pred.op, pred.value);
    }
  }
  for (size_t b = 1; b < bins.size(); ++b) {
    double mass = 0.0, pass = 0.0;
    for (const auto& [value, count] : bins[b]) {
      mass += static_cast<double>(count);
      if (range.Contains(value)) pass += static_cast<double>(count);
    }
    if (mass <= 0) {
      fractions[b] = 0.0;
      continue;
    }
    double frac = pass / mass;
    for (Value v : excluded) {
      if (!range.Contains(v)) continue;
      const auto it = bins[b].find(v);
      if (it != bins[b].end()) frac -= static_cast<double>(it->second) / mass;
    }
    fractions[b] = std::max(0.0, frac);
  }
  return fractions;
}

/// Predicate sets covering every shape the range search must get right:
/// empty, unbounded either side, single-point, aligned to a bin's first and
/// last value, straddling bins, and <> values inside and outside the range.
std::vector<std::vector<Predicate>> PredicateShapes(const ColumnBinner& binner,
                                                    const Column& col,
                                                    Rng& rng) {
  std::vector<std::pair<Value, Value>> bin_span(binner.num_bins(),
                                                {INT64_MAX, INT64_MIN});
  for (size_t row = 0; row < col.size(); ++row) {
    if (!col.IsValid(row)) continue;
    auto& [lo, hi] = bin_span[binner.BinOf(col.Get(row))];
    lo = std::min(lo, col.Get(row));
    hi = std::max(hi, col.Get(row));
  }
  const auto pred = [](CompareOp op, Value v) {
    return Predicate{"t", "c", op, v};
  };
  const auto any_value = [&]() -> Value {
    return rng.NextInt64(-20, 260);
  };
  std::vector<std::vector<Predicate>> shapes = {
      {},
      {pred(CompareOp::kGt, 50), pred(CompareOp::kLt, 40)},  // empty
      {pred(CompareOp::kGe, 50), pred(CompareOp::kLt, 50)},  // empty
      {pred(CompareOp::kGe, INT64_MIN)},                     // everything
      {pred(CompareOp::kNeq, 1), pred(CompareOp::kNeq, 2)},
  };
  for (size_t b = 1; b < bin_span.size(); ++b) {
    const auto [lo, hi] = bin_span[b];
    if (lo > hi) continue;
    shapes.push_back({pred(CompareOp::kEq, lo)});
    shapes.push_back({pred(CompareOp::kEq, hi)});
    shapes.push_back({pred(CompareOp::kGe, lo), pred(CompareOp::kLe, hi)});
    shapes.push_back({pred(CompareOp::kGt, lo), pred(CompareOp::kLt, hi)});
    shapes.push_back({pred(CompareOp::kGe, lo)});
    shapes.push_back({pred(CompareOp::kLe, hi)});
    shapes.push_back({pred(CompareOp::kGe, lo), pred(CompareOp::kNeq, lo)});
  }
  for (int i = 0; i < 60; ++i) {
    const Value a = any_value(), b = any_value();
    std::vector<Predicate> shape;
    switch (rng.NextInt64(0, 5)) {
      case 0: shape = {pred(CompareOp::kGe, a), pred(CompareOp::kLe, b)}; break;
      case 1: shape = {pred(CompareOp::kGt, a), pred(CompareOp::kLt, b)}; break;
      case 2: shape = {pred(CompareOp::kEq, a)}; break;
      case 3: shape = {pred(CompareOp::kLt, a)}; break;
      case 4: shape = {pred(CompareOp::kGt, a)}; break;
      default: shape = {pred(CompareOp::kNeq, a)}; break;
    }
    for (int64_t k = rng.NextInt64(0, 2); k > 0; --k) {
      shape.push_back(pred(CompareOp::kNeq, any_value()));
    }
    shapes.push_back(std::move(shape));
  }
  return shapes;
}

void ExpectMatchesReference(const ColumnBinner& binner, const Column& col,
                            Rng& rng, const std::string& label) {
  for (const auto& preds : PredicateShapes(binner, col, rng)) {
    const std::vector<double> got = binner.PredicateFractions(preds);
    const std::vector<double> want = ReferenceFractions(binner, col, preds);
    ASSERT_EQ(got.size(), want.size());
    std::string rendered;
    for (const auto& pred : preds) rendered += pred.ToString() + " ";
    for (size_t b = 0; b < got.size(); ++b) {
      EXPECT_EQ(got[b], want[b]) << label << " bin " << b << ": " << rendered;
    }
  }
}

TEST(BinnerTest, PredicateFractionsEqualPerValueScan) {
  Rng rng(17);
  for (int trial = 0; trial < 12; ++trial) {
    // Skewed values with NULLs, shifted so ranges can fall below them.
    const int64_t domain = rng.NextInt64(5, 240);
    Column col("c", ColumnKind::kNumeric);
    for (int64_t i = rng.NextInt64(50, 4000); i > 0; --i) {
      if (rng.NextBool(0.05)) {
        col.AppendNull();
      } else {
        col.Append(10 + rng.NextZipf(domain, 1.1));
      }
    }
    const size_t max_bins = static_cast<size_t>(rng.NextInt64(2, 64));
    ColumnBinner binner(col, max_bins);
    const std::string label = "trial " + std::to_string(trial) + " bins " +
                              std::to_string(max_bins);
    ExpectMatchesReference(binner, col, rng, label);

    // Refresh appends values below the first and above the last bin
    // boundary (and new ones between), which a fully-covered bin test
    // must see although they lie outside the bin's original boundaries.
    for (int i = 0; i < 40; ++i) {
      col.Append(rng.NextInt64(-15, 9));
      col.Append(11 + domain + rng.NextInt64(0, 20));
      col.Append(10 + rng.NextInt64(0, domain));
    }
    col.AppendNull();
    binner.Refresh(col);
    ExpectMatchesReference(binner, col, rng, label + " refreshed");
  }
}

TEST(ExtendedTableTest, JoinColumnGroupsOnStatsSchema) {
  StatsGenConfig config;
  config.scale = 0.02;
  auto db = GenerateStatsDatabase(config);
  const auto groups = JoinColumnGroups(*db);
  ASSERT_EQ(groups.size(), 2u);  // users.Id domain, posts.Id domain
  std::vector<size_t> sizes = {groups[0].size(), groups[1].size()};
  std::sort(sizes.begin(), sizes.end());
  EXPECT_EQ(sizes[0], 7u);  // users.Id + 6 FK columns
  EXPECT_EQ(sizes[1], 7u);  // posts.Id + 6 FK columns
}

TEST(ExtendedTableTest, FanoutValuesMatchIndexCounts) {
  StatsGenConfig config;
  config.scale = 0.02;
  auto db = GenerateStatsDatabase(config);
  ExtendedTable ext(*db, "users", 16);
  const int idx = ext.FanoutIndex("Id", {"badges", "UserId"});
  ASSERT_GE(idx, 0);
  const Table& users = db->TableOrDie("users");
  const Table& badges = db->TableOrDie("badges");
  const HashIndex& index = badges.GetIndex(badges.ColumnIndexOrDie("UserId"));
  // The binned fanout's per-bin mean, averaged with masses, must equal the
  // true average badge count per user.
  const auto factor = ext.FanoutMeanFactor(static_cast<size_t>(idx));
  double avg_from_bins = 0;
  const auto& binner = *ext.column(static_cast<size_t>(idx)).binner;
  for (uint16_t b = 0; b < binner.num_bins(); ++b) {
    avg_from_bins += binner.BinMass(b) * factor[b];
  }
  double true_avg = 0;
  for (size_t row = 0; row < users.num_rows(); ++row) {
    true_avg += static_cast<double>(
        index.Lookup(users.column(0).Get(row)).size());
  }
  true_avg /= static_cast<double>(users.num_rows());
  EXPECT_NEAR(avg_from_bins, true_avg, 1e-9);
}

TEST(ExtendedTableTest, AttrIndexAndDomains) {
  StatsGenConfig config;
  config.scale = 0.02;
  auto db = GenerateStatsDatabase(config);
  ExtendedTable ext(*db, "posts", 16);
  EXPECT_GE(ext.AttrIndex("Score"), 0);
  EXPECT_GE(ext.AttrIndex("PostTypeId"), 0);
  EXPECT_EQ(ext.AttrIndex("Id"), -1);  // keys are not attributes
  for (size_t domain : ext.BinDomains()) {
    EXPECT_GE(domain, 2u);
    EXPECT_LE(domain, 16u);
  }
  EXPECT_EQ(ext.num_rows(), db->TableOrDie("posts").num_rows());
}

TEST(ExtendedTableTest, RefreshAfterInsertReturnsNewRows) {
  StatsGenConfig config;
  config.scale = 0.02;
  auto db = GenerateStatsDatabase(config);
  ExtendedTable ext(*db, "tags", 16);
  const size_t before = ext.num_rows();
  Table& tags = db->TableOrDie("tags");
  ASSERT_TRUE(
      tags.AppendRow({static_cast<Value>(before + 1), 42, std::nullopt}).ok());
  const auto new_rows = ext.RefreshAfterInsert(*db);
  ASSERT_EQ(new_rows.size(), 1u);
  EXPECT_EQ(new_rows[0], before);
  EXPECT_EQ(ext.num_rows(), before + 1);
}

}  // namespace
}  // namespace cardbench
