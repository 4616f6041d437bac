// Estimator lifecycle suite: every Table-3 method must round-trip through
// the CBMD artifact format and the model store — train, serialize, reload,
// and produce bit-identical injected cardinalities, EXPLAIN output and
// P-Error on every workload query. Mutilated artifacts (truncation, bad
// magic, checksum flips, version skew) must be rejected and fall back to
// retraining, never mis-parse.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <sstream>
#include <string>

#include "cardest/binner.h"
#include "cardest/chow_liu_model.h"
#include "cardest/model_store.h"
#include "cardest/multihist_est.h"
#include "cardest/noisy_oracle_est.h"
#include "cardest/postgres_est.h"
#include "cardest/registry.h"
#include "cardest/spn_model.h"
#include "common/rng.h"
#include "common/serde.h"
#include "datagen/stats_gen.h"
#include "datagen/update_split.h"
#include "exec/true_card.h"
#include "harness/bench_env.h"
#include "metrics/metrics.h"
#include "query/parser.h"

namespace cardbench {
namespace {

Column SkewedColumn(size_t n, uint64_t seed) {
  Rng rng(seed);
  Column col("c", ColumnKind::kNumeric);
  for (size_t i = 0; i < n; ++i) {
    if (rng.NextBool(0.1)) {
      col.AppendNull();
    } else {
      col.Append(rng.NextZipf(200, 1.2));
    }
  }
  return col;
}

TEST(BinnerSerializationTest, RoundTripPreservesEverything) {
  const Column col = SkewedColumn(3000, 9);
  ColumnBinner original(col, 16);
  SectionWriter out;
  original.Serialize(out);
  SectionReader in(out.bytes());
  auto restored = ColumnBinner::Deserialize(in);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  ASSERT_EQ(restored->num_bins(), original.num_bins());
  for (uint16_t b = 0; b < original.num_bins(); ++b) {
    EXPECT_DOUBLE_EQ(restored->BinMass(b), original.BinMass(b));
    EXPECT_DOUBLE_EQ(restored->BinMean(b), original.BinMean(b));
    EXPECT_DOUBLE_EQ(restored->BinInverseMean(b), original.BinInverseMean(b));
  }
  // Selectivities and bin assignment agree on probe values.
  for (Value v : {0, 1, 5, 50, 199, 1000}) {
    EXPECT_EQ(restored->BinOf(v), original.BinOf(v)) << v;
    std::vector<Predicate> preds = {{"t", "c", CompareOp::kLe, v}};
    const auto a = original.PredicateFractions(preds);
    const auto b = restored->PredicateFractions(preds);
    for (size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
  }
}

TEST(BinnerSerializationTest, RejectsGarbage) {
  SectionReader in("not a binner at all");
  EXPECT_FALSE(ColumnBinner::Deserialize(in).ok());
}

TEST(SerdeFormatTest, RoundTripAndTagCheck) {
  ModelWriter writer("demo");
  SectionWriter& s = writer.AddSection("payload");
  s.PutU64(42);
  s.PutString("hello");
  s.PutDoubles({1.5, -2.25});
  std::stringstream stream;
  ASSERT_TRUE(writer.WriteTo(stream).ok());

  auto reader = ModelReader::Open(stream, "demo");
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto section = reader->Section("payload");
  ASSERT_TRUE(section.ok());
  EXPECT_EQ(*section->GetU64(), 42u);
  EXPECT_EQ(*section->GetString(), "hello");
  EXPECT_EQ(*section->GetDoubles(), (std::vector<double>{1.5, -2.25}));
  EXPECT_TRUE(section->AtEnd());
  EXPECT_FALSE(reader->Section("missing").ok());

  // Same bytes under the wrong expected tag are refused.
  stream.clear();
  stream.seekg(0);
  EXPECT_FALSE(ModelReader::Open(stream, "other").ok());
}

TEST(SerdeFormatTest, WrappingCountsFailWithoutThrowing) {
  // Counts whose byte size wraps 64 bits beside 8 payload bytes: 2^61 + 1
  // doubles is 2^64 + 8 bytes. A bounds check on pos + count * size passes
  // these, and the vector allocation then throws out of a Status reader.
  const auto section = [](uint64_t count) {
    SectionWriter s;
    s.PutU64(count);
    s.PutDouble(1.0);
    return s.bytes();
  };
  const uint64_t wraps8 = (uint64_t{1} << 61) + 1;
  const std::string doubles = section(wraps8);
  const std::string i64s = section(wraps8);
  const std::string u64s = section(wraps8);
  const std::string u32s = section((uint64_t{1} << 62) + 2);
  const std::string u16s = section((uint64_t{1} << 63) + 4);
  const std::string str = section(~uint64_t{0} - 6);
  StatusCode code = StatusCode::kOk;
  EXPECT_NO_THROW(code = SectionReader(doubles).GetDoubles().status().code());
  EXPECT_EQ(code, StatusCode::kOutOfRange);
  EXPECT_NO_THROW(code = SectionReader(i64s).GetI64s().status().code());
  EXPECT_EQ(code, StatusCode::kOutOfRange);
  EXPECT_NO_THROW(code = SectionReader(u64s).GetU64s().status().code());
  EXPECT_EQ(code, StatusCode::kOutOfRange);
  EXPECT_NO_THROW(code = SectionReader(u32s).GetU32s().status().code());
  EXPECT_EQ(code, StatusCode::kOutOfRange);
  EXPECT_NO_THROW(code = SectionReader(u16s).GetU16s().status().code());
  EXPECT_EQ(code, StatusCode::kOutOfRange);
  EXPECT_NO_THROW(code = SectionReader(str).GetString().status().code());
  EXPECT_EQ(code, StatusCode::kOutOfRange);
}

TEST(SerdeFormatTest, WrappingSectionSizeIsTruncation) {
  // A frame whose section size wraps pos + size must read as truncated.
  std::string frame(kModelMagic, sizeof(kModelMagic));
  const auto raw = [&frame](auto v) {
    frame.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  raw(kModelFormatVersion);
  raw(uint64_t{4});
  frame += "demo";
  raw(uint32_t{1});
  raw(uint64_t{1});
  frame += "s";
  raw(~uint64_t{0} - 2);  // payload size
  raw(uint64_t{0});       // checksum
  frame += "abc";
  std::stringstream stream(frame);
  auto reader = ModelReader::Open(stream, "demo");
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIOError)
      << reader.status().ToString();
}

// ---------------------------------------------------------------------------
// Crafted artifacts: loads must reject what the lookups would index out of
// bounds or loop on.
// ---------------------------------------------------------------------------

/// One value bin per entry of `bins`, each holding those values once.
std::string BinnerPayload(const std::vector<std::vector<Value>>& bins) {
  SectionWriter out;
  out.PutU64(bins.size());
  out.PutDouble(10.0);  // total rows
  out.PutDouble(0.0);   // NULL mass
  for (const auto& values : bins) {
    out.PutI64(values.empty() ? 0 : values.front());
    out.PutI64(values.empty() ? 0 : values.back());
    out.PutU64(values.size());
    for (Value v : values) {
      out.PutI64(v);
      out.PutU64(1);
    }
  }
  return out.bytes();
}

StatusCode LoadBinner(const std::string& payload) {
  SectionReader in(payload);
  return ColumnBinner::Deserialize(in).status().code();
}

TEST(BinnerSerializationTest, RejectsMoreBinsThanBinIdsHold) {
  // 65534 value bins is the most a uint16_t bin id (NULL bin included)
  // can count through; 70000 used to load, and PredicateFractions' bin
  // loop then never ended.
  std::vector<std::vector<Value>> bins(ColumnBinner::kMaxValueBins);
  for (size_t b = 0; b < bins.size(); ++b) bins[b] = {static_cast<Value>(b)};
  EXPECT_EQ(LoadBinner(BinnerPayload(bins)), StatusCode::kOk);
  bins.resize(70000, {Value{70000}});
  EXPECT_EQ(LoadBinner(BinnerPayload(bins)), StatusCode::kInvalidArgument);
  EXPECT_EQ(LoadBinner(BinnerPayload({})), StatusCode::kInvalidArgument);
}

TEST(BinnerSerializationTest, RejectsValuesOutOfOrder) {
  // Descending values used to load, and EqualFraction's binary search then
  // answered 0 for a value holding half the bin.
  EXPECT_EQ(LoadBinner(BinnerPayload({{3, 5}})), StatusCode::kOk);
  EXPECT_EQ(LoadBinner(BinnerPayload({{5, 3}})), StatusCode::kInvalidArgument);
  EXPECT_EQ(LoadBinner(BinnerPayload({{1}, {4, 4}})),
            StatusCode::kInvalidArgument);
}

/// The database the crafted SPN, BayesCard and MultiHist artifacts load
/// over.
const Database& CraftDb() {
  static const Database* db = [] {
    StatsGenConfig config;
    config.scale = 0.01;
    return GenerateStatsDatabase(config).release();
  }();
  return *db;
}

/// The extended table the crafted SPN artifacts load beside.
const ExtendedTable& SpnExt() {
  static const ExtendedTable* ext = new ExtendedTable(CraftDb(), "users", 48);
  return *ext;
}

/// A hand-written SPN node, serialized in SpnModel's node layout.
struct CraftedNode {
  uint32_t type = 2;  // 0 sum, 1 product, 2 leaf, 3 multi-leaf
  std::vector<uint64_t> children;
  std::vector<double> weights;
  std::vector<uint64_t> cols;
  std::vector<double> histogram;
  std::vector<std::vector<uint16_t>> keys;
  double total = 0.0;
};

/// A valid model of SpnExt() over its first three columns: a sum (root)
/// over a product of a leaf and a multi-leaf, and a second leaf.
std::vector<CraftedNode> ValidSpnNodes() {
  CraftedNode leaf;
  leaf.cols = {2};
  leaf.histogram.assign(SpnExt().BinDomains()[2], 0.0);
  leaf.histogram[0] = 1;
  leaf.histogram[1] = 3;
  leaf.total = 4;
  CraftedNode multi;
  multi.type = 3;
  multi.cols = {0, 1};
  multi.keys = {{0, 1}, {1, 0}, {1, 1}};
  multi.total = 3;
  CraftedNode product;
  product.type = 1;
  product.children = {0, 1};
  CraftedNode sum;
  sum.type = 0;
  sum.children = {2, 0};
  sum.weights = {3, 1};
  return {leaf, multi, product, sum};
}

/// Deserializes `nodes` (the last one the root) as an SPN of `num_cols`
/// columns beside SpnExt().
Result<std::unique_ptr<SpnModel>> CraftSpn(
    const std::vector<CraftedNode>& nodes, uint64_t num_cols) {
  SectionWriter out;
  const SpnOptions options;
  out.PutDouble(options.independence_threshold);
  out.PutDouble(options.high_correlation_threshold);
  out.PutDouble(options.min_slice_fraction);
  out.PutU64(options.min_slice_rows);
  out.PutU64(options.dependence_sample);
  out.PutBool(true);
  out.PutU64(options.max_multi_leaf_cols);
  out.PutU64(options.seed);
  out.PutU64(num_cols);
  out.PutU64(nodes.size() - 1);  // root
  out.PutU64(nodes.size());
  for (const CraftedNode& nd : nodes) {
    out.PutU32(nd.type);
    out.PutU64s(nd.children);
    out.PutDoubles(nd.weights);
    out.PutU64s(nd.cols);
    out.PutDoubles(nd.histogram);
    out.PutU64(nd.keys.size());
    for (const auto& key : nd.keys) {
      out.PutU16s(key);
      out.PutDouble(1.0);
    }
    out.PutDouble(nd.total);
  }
  SectionReader in(out.bytes());
  return SpnModel::Deserialize(in, SpnExt());
}

/// Loads `nodes` as an SPN of `num_cols` columns (by default SpnExt()'s)
/// beside SpnExt().
StatusCode LoadSpn(const std::vector<CraftedNode>& nodes,
                   uint64_t num_cols = SpnExt().num_columns()) {
  auto model = CraftSpn(nodes, num_cols);
  if (model.ok()) {
    // Whatever loads must evaluate: factors sized by their columns' bin
    // domains on the three modeled columns, none on the rest.
    const std::vector<size_t> domains = SpnExt().BinDomains();
    std::vector<double> f0(domains[0], 0.5), f1(domains[1], 0.0),
        f2(domains[2], 1.0);
    f1[0] = 1.0;
    f2[0] = 0.25;
    std::vector<const double*> factor_of_col(domains.size(), nullptr);
    factor_of_col[0] = f0.data();
    factor_of_col[1] = f1.data();
    factor_of_col[2] = f2.data();
    EXPECT_GT((*model)->ExpectProduct(factor_of_col), 0.0);
  }
  return model.status().code();
}

TEST(SpnSerializationTest, CraftedValidModelLoads) {
  EXPECT_EQ(LoadSpn(ValidSpnNodes()), StatusCode::kOk);
}

TEST(SpnSerializationTest, RejectsLeafWithoutExactlyOneColumn) {
  auto nodes = ValidSpnNodes();
  nodes[0].cols = {1, 2};
  EXPECT_EQ(LoadSpn(nodes), StatusCode::kInvalidArgument);
  nodes[0].cols = {};
  EXPECT_EQ(LoadSpn(nodes), StatusCode::kInvalidArgument);
}

TEST(SpnSerializationTest, RejectsColumnIdOutOfRange) {
  const size_t num_cols = SpnExt().num_columns();
  auto nodes = ValidSpnNodes();
  nodes[0].cols = {num_cols};
  EXPECT_EQ(LoadSpn(nodes), StatusCode::kInvalidArgument);
  nodes = ValidSpnNodes();
  nodes[1].cols = {0, num_cols + 4};
  EXPECT_EQ(LoadSpn(nodes), StatusCode::kInvalidArgument);
}

TEST(SpnSerializationTest, RejectsColumnCountOtherThanItsTable) {
  // One column more than the extended table, or 2^40 columns (inference
  // sized its per-call factor slots by the count), used to load.
  const uint64_t num_cols = SpnExt().num_columns();
  EXPECT_EQ(LoadSpn(ValidSpnNodes(), num_cols + 1),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(LoadSpn(ValidSpnNodes(), uint64_t{1} << 40),
            StatusCode::kInvalidArgument);
}

TEST(SpnSerializationTest, RejectsLeafHistogramNotSizedToItsDomain) {
  // One bin more than the column's domain used to load, and the leaf then
  // read that bin's factor past the end of the factor vector.
  auto nodes = ValidSpnNodes();
  nodes[0].histogram.push_back(1.0);
  EXPECT_EQ(LoadSpn(nodes), StatusCode::kInvalidArgument);
  nodes = ValidSpnNodes();
  nodes[0].histogram.pop_back();
  EXPECT_EQ(LoadSpn(nodes), StatusCode::kInvalidArgument);
}

TEST(SpnSerializationTest, RejectsMultiLeafKeyBinOutsideItsDomain) {
  // A key bin at the column's domain used to load, and the multi-leaf
  // loop then indexed the column's factor with it.
  const std::vector<size_t> domains = SpnExt().BinDomains();
  auto nodes = ValidSpnNodes();
  nodes[1].keys[2] = {1, static_cast<uint16_t>(domains[1])};
  EXPECT_EQ(LoadSpn(nodes), StatusCode::kInvalidArgument);
  nodes = ValidSpnNodes();
  nodes[1].keys.push_back({static_cast<uint16_t>(domains[0]), 0});
  EXPECT_EQ(LoadSpn(nodes), StatusCode::kInvalidArgument);
}

TEST(SpnSerializationTest, RejectsMultiLeafKeyOfWrongWidth) {
  auto nodes = ValidSpnNodes();
  nodes[1].keys[1] = {1, 0, 0};
  EXPECT_EQ(LoadSpn(nodes), StatusCode::kInvalidArgument);
  nodes[1].keys[1] = {1};
  EXPECT_EQ(LoadSpn(nodes), StatusCode::kInvalidArgument);
}

TEST(SpnSerializationTest, RejectsMultiLeafKeysNotStrictlyAscending) {
  auto nodes = ValidSpnNodes();
  std::swap(nodes[1].keys[0], nodes[1].keys[2]);
  EXPECT_EQ(LoadSpn(nodes), StatusCode::kInvalidArgument);
  nodes = ValidSpnNodes();
  nodes[1].keys[2] = nodes[1].keys[1];  // duplicate
  EXPECT_EQ(LoadSpn(nodes), StatusCode::kInvalidArgument);
}

TEST(SpnSerializationTest, RejectsChildNotBelowItsParent) {
  // Forward references, self loops and cycles all fail this one rule.
  auto nodes = ValidSpnNodes();
  nodes[2].children = {0, 3};
  EXPECT_EQ(LoadSpn(nodes), StatusCode::kInvalidArgument);
  nodes[2].children = {2};
  EXPECT_EQ(LoadSpn(nodes), StatusCode::kInvalidArgument);
}

TEST(SpnSerializationTest, ZeroWeightSumIdlesAtZeroUntilAnUpdateWeighsIt) {
  // A sum node whose weights are all zero evaluates to 0, so it idles at 0
  // when the query puts no factor under it. Once an update routes a row
  // into it, it idles at 1 like any weighted sum; a model that kept its
  // load-time idle value would still answer 0.
  const std::vector<size_t> domains = SpnExt().BinDomains();
  CraftedNode under;
  under.cols = {2};
  under.histogram.assign(domains[2], 1.0);
  under.total = static_cast<double>(domains[2]);
  CraftedNode sum;
  sum.type = 0;
  sum.children = {0, 1};
  sum.weights = {0, 0};
  CraftedNode beside;
  beside.cols = {0};
  beside.histogram.assign(domains[0], 1.0);
  beside.total = static_cast<double>(domains[0]);
  CraftedNode product;
  product.type = 1;
  product.children = {2, 3};
  auto model = CraftSpn({under, under, sum, beside, product},
                        SpnExt().num_columns());
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  const std::vector<double> ones(domains[0], 1.0);
  std::vector<const double*> factor_of_col(domains.size(), nullptr);
  factor_of_col[0] = ones.data();
  EXPECT_EQ((*model)->ExpectProduct(factor_of_col), 0.0);
  (*model)->UpdateWithRows(SpnExt(), {0});
  EXPECT_GT((*model)->ExpectProduct(factor_of_col), 0.5);
}

TEST(SpnSerializationTest, RejectsSumWeightsNotMatchingChildren) {
  auto nodes = ValidSpnNodes();
  nodes[3].weights = {3};
  EXPECT_EQ(LoadSpn(nodes), StatusCode::kInvalidArgument);
}

/// A hand-written Chow-Liu payload: the column count and root as written,
/// then per column its bin domain, parent and counts.
struct CraftedChowLiu {
  uint64_t num_cols = 0;
  uint64_t root = 0;
  std::vector<uint64_t> domains;
  std::vector<int64_t> parents;
  std::vector<std::vector<double>> counts;
};

/// A valid model of `ext`: a chain rooted at column 0, every count 1.
CraftedChowLiu ValidChowLiu(const ExtendedTable& ext) {
  CraftedChowLiu m;
  m.num_cols = ext.num_columns();
  for (size_t d : ext.BinDomains()) m.domains.push_back(d);
  for (size_t c = 0; c < m.num_cols; ++c) {
    m.parents.push_back(static_cast<int64_t>(c) - 1);
    const uint64_t parent_domain = c == 0 ? 1 : m.domains[c - 1];
    m.counts.emplace_back(parent_domain * m.domains[c], 1.0);
  }
  return m;
}

/// Loads a BayesCard artifact over CraftDb() whose `users` model is
/// `crafted`; every other table carries its trained model. Whatever loads
/// must estimate.
StatusCode LoadBayesCard(const CraftedChowLiu& crafted) {
  const Database& db = CraftDb();
  ModelWriter writer("bayescard");
  SectionWriter& meta = writer.AddSection("meta");
  meta.PutU64(48);   // max bins
  meta.PutDouble(0);  // train seconds
  SectionWriter& tables = writer.AddSection("tables");
  tables.PutU64(db.table_names().size());
  for (const std::string& name : db.table_names()) {
    const ExtendedTable ext(db, name, 48);
    tables.PutString(name);
    ext.SerializeMeta(tables);
    if (name != "users") {
      ChowLiuTreeModel(ext).Serialize(tables);
      continue;
    }
    tables.PutU64(crafted.num_cols);
    tables.PutU64(crafted.root);
    tables.PutDouble(static_cast<double>(db.TableOrDie(name).num_rows()));
    for (size_t c = 0; c < crafted.domains.size(); ++c) {
      tables.PutU64(crafted.domains[c]);
      tables.PutI64(crafted.parents[c]);
      tables.PutDoubles(crafted.counts[c]);
    }
  }
  std::stringstream stream;
  EXPECT_TRUE(writer.WriteTo(stream).ok());
  auto est = FanoutModelEstimator::Deserialize(
      db, FanoutModelKind::kBayesCard, stream);
  if (est.ok()) {
    Query q;
    q.tables = {"users"};
    q.predicates = {{"users", "Reputation", CompareOp::kGe, 5},
                    {"users", "Views", CompareOp::kLe, 40}};
    EXPECT_GT((*est)->EstimateCard(q), 0.0);
  }
  return est.status().code();
}

/// Loads a trained BayesCard artifact over CraftDb() whose `users`
/// extended-table meta names `unknown` in place of one name: the first
/// attribute column's (`fanout` false), or field `field` (my column, other
/// table, other column) of the first fanout column's. An empty `unknown`
/// replaces nothing.
StatusCode LoadBayesCardNaming(bool fanout, size_t field,
                               const std::string& unknown) {
  const Database& db = CraftDb();
  ModelWriter writer("bayescard");
  SectionWriter& meta = writer.AddSection("meta");
  meta.PutU64(48);   // max bins
  meta.PutDouble(0);  // train seconds
  SectionWriter& tables = writer.AddSection("tables");
  tables.PutU64(db.table_names().size());
  for (const std::string& name : db.table_names()) {
    const ExtendedTable ext(db, name, 48);
    tables.PutString(name);
    if (name != "users") {
      ext.SerializeMeta(tables);
    } else {
      // ExtendedTable::SerializeMeta's layout, one name replaced.
      tables.PutString(name);
      tables.PutU64(48);
      tables.PutU64(ext.num_columns());
      bool replaced = unknown.empty();
      for (size_t c = 0; c < ext.num_columns(); ++c) {
        const ExtendedTable::ExtColumn& col = ext.column(c);
        std::vector<std::string> names = {col.name};
        if (col.is_fanout) {
          names = {col.fanout_my_column, col.fanout_other.table,
                   col.fanout_other.column};
        }
        if (!replaced && col.is_fanout == fanout) {
          names[field] = unknown;
          replaced = true;
        }
        tables.PutBool(col.is_fanout);
        for (const std::string& n : names) tables.PutString(n);
        col.binner->Serialize(tables);
      }
      EXPECT_TRUE(replaced);
    }
    ChowLiuTreeModel(ext).Serialize(tables);
  }
  std::stringstream stream;
  EXPECT_TRUE(writer.WriteTo(stream).ok());
  auto est = FanoutModelEstimator::Deserialize(
      db, FanoutModelKind::kBayesCard, stream);
  return est.status().code();
}

// An artifact naming a column the database lacks would load, then abort
// the process in the first Update's column lookups; the loader refuses it.
TEST(ExtendedTableSerializationTest, RejectsColumnsTheDatabaseLacks) {
  EXPECT_EQ(LoadBayesCardNaming(false, 0, ""), StatusCode::kOk);
  EXPECT_EQ(LoadBayesCardNaming(false, 0, "NoSuchColumn"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(LoadBayesCardNaming(true, 0, "NoSuchColumn"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(LoadBayesCardNaming(true, 1, "no_such_table"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(LoadBayesCardNaming(true, 2, "NoSuchColumn"),
            StatusCode::kInvalidArgument);
}

// The loader refuses, and must not abort on, a degree sketch naming a column
// its table lacks, as it refuses one naming an unknown table.
TEST(PessEstSerializationTest, RejectsSketchOfColumnItsTableLacks) {
  const auto load = [](const std::string& table, const std::string& column) {
    ModelWriter writer("pessest");
    SectionWriter& sketches = writer.AddSection("sketches");
    sketches.PutU64(1);
    sketches.PutString(table);
    sketches.PutString(column);
    sketches.PutU64(1);  // one (degree, count) histogram entry
    sketches.PutU64(3);
    sketches.PutU64(1);
    std::stringstream stream;
    EXPECT_TRUE(writer.WriteTo(stream).ok());
    return DeserializeEstimator("PessEst", CraftDb(), stream).status().code();
  };
  EXPECT_EQ(load("users", "Id"), StatusCode::kOk);
  EXPECT_EQ(load("users", "NoSuchColumn"), StatusCode::kNotFound);
  EXPECT_EQ(load("no_such_table", "Id"), StatusCode::kNotFound);
}

TEST(ChowLiuSerializationTest, CraftedValidModelLoads) {
  const ExtendedTable ext(CraftDb(), "users", 48);
  ASSERT_GE(ext.num_columns(), 3u);
  EXPECT_EQ(LoadBayesCard(ValidChowLiu(ext)), StatusCode::kOk);
}

TEST(ChowLiuSerializationTest, RejectsColumnCountOtherThanItsTable) {
  const ExtendedTable ext(CraftDb(), "users", 48);
  // A count the loader used to resize four arrays by before reading on.
  auto model = ValidChowLiu(ext);
  model.num_cols = uint64_t{1} << 40;
  EXPECT_EQ(LoadBayesCard(model), StatusCode::kInvalidArgument);
  // One column more than the extended table, fully written.
  model = ValidChowLiu(ext);
  ++model.num_cols;
  model.domains.push_back(2);
  model.parents.push_back(0);
  model.counts.emplace_back(2 * model.domains[0], 1.0);
  EXPECT_EQ(LoadBayesCard(model), StatusCode::kInvalidArgument);
}

TEST(ChowLiuSerializationTest, RejectsDomainOtherThanItsColumns) {
  const ExtendedTable ext(CraftDb(), "users", 48);
  auto model = ValidChowLiu(ext);
  // Consistent with itself (counts resized), not with the binner that
  // sizes the per-bin factors inference multiplies in.
  model.domains[1] += 1;
  model.counts[1].assign(model.domains[0] * model.domains[1], 1.0);
  model.counts[2].assign(model.domains[1] * model.domains[2], 1.0);
  EXPECT_EQ(LoadBayesCard(model), StatusCode::kInvalidArgument);
}

TEST(ChowLiuSerializationTest, RejectsCountsNotSizedByTheirDomains) {
  const ExtendedTable ext(CraftDb(), "users", 48);
  auto model = ValidChowLiu(ext);
  model.counts[2].resize(model.domains[2]);  // a child sized like a root
  EXPECT_EQ(LoadBayesCard(model), StatusCode::kInvalidArgument);
  model = ValidChowLiu(ext);
  model.counts[0].push_back(1.0);
  EXPECT_EQ(LoadBayesCard(model), StatusCode::kInvalidArgument);
}

TEST(ChowLiuSerializationTest, RejectsParentsThatAreNotOneTree) {
  const ExtendedTable ext(CraftDb(), "users", 48);
  auto with_parents = [&](std::vector<std::pair<size_t, int64_t>> changes) {
    auto model = ValidChowLiu(ext);
    for (const auto& [c, parent] : changes) {
      model.parents[c] = parent;
      const uint64_t parent_domain =
          parent < 0 ? 1 : model.domains[static_cast<size_t>(parent)];
      model.counts[c].assign(parent_domain * model.domains[c], 1.0);
    }
    return LoadBayesCard(model);
  };
  EXPECT_EQ(with_parents({{2, 0}}), StatusCode::kOk);      // still a tree
  EXPECT_EQ(with_parents({{1, 2}}), StatusCode::kInvalidArgument);  // cycle
  EXPECT_EQ(with_parents({{2, -1}}), StatusCode::kInvalidArgument);  // 2 roots
  EXPECT_EQ(with_parents({{0, 1}, {1, -1}}),
            StatusCode::kInvalidArgument);  // root has a parent
  EXPECT_EQ(with_parents({{2, -2}}), StatusCode::kInvalidArgument);
}

/// Loads a MultiHist artifact over CraftDb() with one group of `users`
/// columns: (name, written column id) pairs, each with its column's
/// 8-bin binner, and the bucket keys `keys`. Whatever loads must estimate.
StatusCode LoadMultiHist(
    const std::vector<std::pair<std::string, int64_t>>& columns,
    const std::vector<std::vector<uint16_t>>& keys) {
  const Database& db = CraftDb();
  const Table& users = db.TableOrDie("users");
  ModelWriter writer("multihist");
  SectionWriter& meta = writer.AddSection("meta");
  meta.PutU64(2);     // dims per group
  meta.PutU64(8);     // bins per dim
  meta.PutDouble(0);  // correlation threshold
  meta.PutDouble(0);  // train seconds
  SectionWriter& groups = writer.AddSection("groups");
  groups.PutU64(1);
  groups.PutString("users");
  groups.PutU64(1);
  groups.PutU64(columns.size());
  for (const auto& [name, id] : columns) {
    groups.PutString(name);
    groups.PutI64(id);
    ColumnBinner(users.ColumnByName(name), 8).Serialize(groups);
  }
  groups.PutU64(keys.size());
  for (const auto& key : keys) {
    groups.PutU16s(key);
    groups.PutDouble(1.0);
  }
  groups.PutDouble(static_cast<double>(keys.size()));
  std::stringstream stream;
  EXPECT_TRUE(writer.WriteTo(stream).ok());
  auto est = MultiHistEstimator::Deserialize(db, stream);
  if (est.ok()) {
    Query q;
    q.tables = {"users"};
    q.predicates = {{"users", "Reputation", CompareOp::kGe, 5},
                    {"users", "Views", CompareOp::kLe, 40}};
    EXPECT_GE((*est)->EstimateCard(q), 0.0);
  }
  return est.status().code();
}

/// The ids of users.Reputation and users.Views.
std::vector<std::pair<std::string, int64_t>> MultiHistColumns() {
  const Table& users = CraftDb().TableOrDie("users");
  return {{"Reputation",
           static_cast<int64_t>(users.ColumnIndexOrDie("Reputation"))},
          {"Views", static_cast<int64_t>(users.ColumnIndexOrDie("Views"))}};
}

TEST(MultiHistSerializationTest, CraftedValidModelLoads) {
  EXPECT_EQ(LoadMultiHist(MultiHistColumns(), {{0, 1}, {3, 2}, {7, 7}}),
            StatusCode::kOk);
}

TEST(MultiHistSerializationTest, RejectsColumnIdsNotNamingTheirColumn) {
  for (int64_t id : {int64_t{-1}, int64_t{99},
                     MultiHistColumns()[1].second}) {
    auto columns = MultiHistColumns();
    columns[0].second = id;
    EXPECT_EQ(LoadMultiHist(columns, {{0, 1}}), StatusCode::kInvalidArgument)
        << id;
  }
}

TEST(MultiHistSerializationTest, RejectsBucketKeysOfWrongWidth) {
  EXPECT_EQ(LoadMultiHist(MultiHistColumns(), {{0, 1}, {1, 1, 1}}),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(LoadMultiHist(MultiHistColumns(), {{0, 1}, {1}}),
            StatusCode::kInvalidArgument);
}

TEST(MultiHistSerializationTest, RejectsBucketBinsPastTheirBinner) {
  // An 8-bin binner has bins 0..7 (its NULL bin included).
  EXPECT_EQ(LoadMultiHist(MultiHistColumns(), {{0, 1}, {8, 0}}),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(LoadMultiHist(MultiHistColumns(), {{0, 60000}}),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Full-zoo round trip through the model store.
// ---------------------------------------------------------------------------

BenchFlags LifecycleFlags() {
  BenchFlags flags;
  flags.fast = true;
  flags.scale = 0.05;
  flags.max_queries = 6;
  flags.exec_timeout = 10.0;
  flags.cache_dir = ::testing::TempDir() + "/cardbench_lifecycle_cache";
  // One store per process: ctest runs each estimator's case in its own
  // process, and a shared store would let one process's cold-start wipe
  // delete another's artifacts mid-test.
  flags.model_dir = ::testing::TempDir() + "/cardbench_lifecycle_models_" +
                    std::to_string(getpid());
  flags.training_queries = 100;
  return flags;
}

class EstimatorLifecycleTest : public ::testing::TestWithParam<std::string> {
 protected:
  static void SetUpTestSuite() {
    if (env_ != nullptr) return;
    // Stale artifacts (a recycled pid) would turn the "train" leg into a
    // second load; start every suite run from a cold store.
    std::filesystem::remove_all(LifecycleFlags().model_dir);
    auto env = BenchEnv::Create(BenchDataset::kStats, LifecycleFlags());
    ASSERT_TRUE(env.ok()) << env.status().ToString();
    env_ = env->release();
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(LifecycleFlags().model_dir);
  }

  static BenchEnv* env_;
};

BenchEnv* EstimatorLifecycleTest::env_ = nullptr;

TEST_P(EstimatorLifecycleTest, StoreRoundTripIsBitIdentical) {
  const std::string name = GetParam();

  if (name == "TrueCard") {
    // The oracle has no model: nothing to persist, size zero by definition.
    auto est = env_->MakeNamedEstimator(name);
    ASSERT_TRUE(est.ok()) << est.status().ToString();
    std::stringstream sink;
    EXPECT_EQ((*est)->Serialize(sink).code(), StatusCode::kUnsupported);
    EXPECT_EQ((*est)->ModelBytes(), 0u);
    return;
  }

  ModelStoreStats first_stats;
  auto trained = env_->MakeNamedEstimator(name, &first_stats);
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  ASSERT_TRUE(std::filesystem::exists(first_stats.path))
      << name << " was not persisted to " << first_stats.path;
  EXPECT_GT((*trained)->ModelBytes(), 0u);

  ModelStoreStats second_stats;
  auto loaded = env_->MakeNamedEstimator(name, &second_stats);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(second_stats.loaded) << name << " retrained on a warm store";
  EXPECT_FALSE(second_stats.rebuilt_after_corruption);
  EXPECT_EQ((*loaded)->name(), (*trained)->name());
  // The loaded twin serializes to an artifact of the same size.
  EXPECT_EQ((*loaded)->ModelBytes(), (*trained)->ModelBytes());

  const Optimizer& opt = env_->optimizer();
  for (const auto& ctx : env_->query_contexts()) {
    // The Query overload compiles against the estimator's database, which a
    // loaded estimator must have received as well.
    EXPECT_EQ((*loaded)->EstimateCard(*ctx.query),
              (*trained)->EstimateCard(*ctx.query))
        << ctx.query->name;

    auto plan_trained = opt.Plan(*ctx.graph, **trained);
    auto plan_loaded = opt.Plan(*ctx.graph, **loaded);
    ASSERT_TRUE(plan_trained.ok()) << plan_trained.status().ToString();
    ASSERT_TRUE(plan_loaded.ok()) << plan_loaded.status().ToString();

    // Bit-identical injected cardinalities for every estimated sub-plan.
    EXPECT_EQ(plan_loaded->num_estimates, plan_trained->num_estimates);
    ASSERT_EQ(plan_loaded->injected_cards.size(),
              plan_trained->injected_cards.size());
    for (const auto& [mask, card] : plan_trained->injected_cards) {
      auto it = plan_loaded->injected_cards.find(mask);
      ASSERT_NE(it, plan_loaded->injected_cards.end())
          << ctx.query->name << " mask " << mask;
      EXPECT_EQ(it->second, card)
          << ctx.query->name << " mask " << mask << " under " << name;
    }

    // Same chosen plan and cost, hence the same EXPLAIN output.
    EXPECT_EQ(plan_loaded->plan->Explain(env_->db()),
              plan_trained->plan->Explain(env_->db()))
        << ctx.query->name;
    EXPECT_EQ(plan_loaded->plan->estimated_cost,
              plan_trained->plan->estimated_cost);

    // Same P-Error: identical plans recost identically against the shared
    // true-cardinality denominator.
    const double cost_trained =
        opt.RecostWithCards(*plan_trained->plan, ctx.true_cards);
    const double cost_loaded =
        opt.RecostWithCards(*plan_loaded->plan, ctx.true_cards);
    EXPECT_EQ(cost_loaded, cost_trained) << ctx.query->name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllEstimators, EstimatorLifecycleTest,
                         ::testing::ValuesIn(AllEstimatorNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Direct stream round trips and post-load behavior.
// ---------------------------------------------------------------------------

TEST(PostgresModelSerializationTest, LoadedModelEstimatesIdentically) {
  StatsGenConfig config;
  config.scale = 0.03;
  auto db = GenerateStatsDatabase(config);
  PostgresEstimator original(*db);
  std::stringstream stream;
  ASSERT_TRUE(original.Serialize(stream).ok());

  auto loaded = PostgresEstimator::Deserialize(*db, stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  for (const char* sql : {
           "SELECT COUNT(*) FROM users WHERE users.Reputation >= 100;",
           "SELECT COUNT(*) FROM posts WHERE posts.PostTypeId = 1 AND "
           "posts.Score >= 3;",
           "SELECT COUNT(*) FROM users, badges WHERE users.Id = "
           "badges.UserId AND badges.Date >= 1000;",
       }) {
    auto q = ParseSql(sql);
    ASSERT_TRUE(q.ok());
    EXPECT_DOUBLE_EQ((*loaded)->EstimateCard(*q), original.EstimateCard(*q))
        << sql;
  }
}

TEST(PostgresModelSerializationTest, DeserializeFromEmptyStreamFails) {
  StatsGenConfig config;
  config.scale = 0.02;
  auto db = GenerateStatsDatabase(config);
  std::stringstream empty;
  auto result = PostgresEstimator::Deserialize(*db, empty);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

TEST(BayesCardSerializationTest, LoadedModelStillUpdates) {
  // The deserialized model (no row bins in memory) must survive the
  // update path: bins are recomputed lazily on Update.
  StatsGenConfig config;
  config.scale = 0.04;
  auto db = GenerateStatsDatabase(config);
  FanoutModelEstimator original(*db, FanoutModelKind::kBayesCard);
  std::stringstream stream;
  ASSERT_TRUE(original.Serialize(stream).ok());
  auto loaded = FanoutModelEstimator::Deserialize(
      *db, FanoutModelKind::kBayesCard, stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  Table& tags = db->TableOrDie("tags");
  const size_t before = tags.num_rows();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        tags.AppendRow({static_cast<Value>(before + 1 + i), 77, std::nullopt})
            .ok());
  }
  ASSERT_TRUE((*loaded)->Update(InsertionBatch{}).ok());
  Query q;
  q.tables = {"tags"};
  // The updated estimate tracks the new row count.
  EXPECT_NEAR((*loaded)->EstimateCard(q), static_cast<double>(before + 20),
              (before + 20) * 0.05);
}

TEST(FanoutModelSerializationTest, UpdatedModelsRoundTripBitIdentically) {
  // Built on the stale half, then refreshed after the insertions: FLAT's
  // multi-leaves gain keys through Route, and the reloaded model passes the
  // ascending-key check only if Route kept the flat keys in order.
  for (const std::string name : {"DeepDB", "FLAT"}) {
    StatsGenConfig config;
    config.scale = 0.05;
    auto full = GenerateStatsDatabase(config);
    TimeSplit split = SplitDatabaseByTime(*full, StatsTimestampColumn, 0.5);
    Database& db = *split.stale;
    TrueCardService truecard(db);
    auto est = MakeEstimator(name, db, truecard, nullptr);
    ASSERT_TRUE(est.ok()) << est.status().ToString();
    ASSERT_TRUE(ApplyInsertions(db, split.insertions).ok());
    ASSERT_TRUE((*est)->Update(InsertionBatch{}).ok());

    std::stringstream stream;
    ASSERT_TRUE((*est)->Serialize(stream).ok());
    auto loaded = DeserializeEstimator(name, db, stream);
    ASSERT_TRUE(loaded.ok()) << name << ": " << loaded.status().ToString();

    for (const char* sql : {
             "SELECT COUNT(*) FROM users, posts, comments WHERE users.Id = "
             "posts.OwnerUserId AND posts.Id = comments.PostId AND "
             "posts.Score >= 1 AND users.Reputation <= 500;",
             "SELECT COUNT(*) FROM posts, votes, badges, users WHERE "
             "posts.Id = votes.PostId AND users.Id = badges.UserId AND "
             "users.Id = posts.OwnerUserId AND votes.VoteTypeId = 2;",
         }) {
      auto q = ParseSql(sql);
      ASSERT_TRUE(q.ok()) << sql;
      const QueryGraph graph(*q, db);
      const auto& masks = graph.connected_subsets();
      EXPECT_EQ((*loaded)->EstimateCards(graph, masks),
                (*est)->EstimateCards(graph, masks))
          << name << ": " << sql;
    }
  }
}

TEST(FanoutModelSerializationTest, EachKindKeepsItsArtifactTag) {
  // The refresh goldens compare sections, not tags, so this pins the
  // kind -> tag map: each artifact opens under its own tag only.
  const std::vector<std::pair<std::string, std::string>> tags = {
      {"BayesCard", "bayescard"}, {"DeepDB", "deepdb"}, {"FLAT", "flat"}};
  TrueCardService truecard(CraftDb());
  for (const auto& [name, tag] : tags) {
    auto est = MakeEstimator(name, CraftDb(), truecard, nullptr);
    ASSERT_TRUE(est.ok()) << est.status().ToString();
    std::stringstream stream;
    ASSERT_TRUE((*est)->Serialize(stream).ok());
    const std::string bytes = stream.str();
    std::istringstream own(bytes);
    EXPECT_TRUE(ModelReader::Open(own, tag).ok()) << name;
    for (const auto& other : tags) {
      if (other.first == name) continue;
      std::istringstream in(bytes);
      EXPECT_EQ(
          DeserializeEstimator(other.first, CraftDb(), in).status().code(),
          StatusCode::kInvalidArgument)
          << name << " artifact loaded as " << other.first;
    }
  }
}

TEST(RegistryDeserializeTest, RefusesMismatchedArtifact) {
  StatsGenConfig config;
  config.scale = 0.02;
  auto db = GenerateStatsDatabase(config);
  PostgresEstimator pg(*db);
  std::stringstream stream;
  ASSERT_TRUE(pg.Serialize(stream).ok());
  // A pgstats artifact must not deserialize as MultiHist.
  auto wrong = DeserializeEstimator("MultiHist", *db, stream);
  EXPECT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);
}

TEST(NoisyOracleTest, SigmaZeroIsExactAndDeterministic) {
  StatsGenConfig config;
  config.scale = 0.02;
  auto db = GenerateStatsDatabase(config);
  TrueCardService svc(*db);
  NoisyOracleEstimator exact(svc, 0.0);
  auto q = ParseSql("SELECT COUNT(*) FROM users WHERE users.Reputation >= 5;");
  ASSERT_TRUE(q.ok());
  const double truth = *svc.Card(*q);
  EXPECT_DOUBLE_EQ(exact.EstimateCard(*q), std::max(1.0, truth));

  // Same sub-plan, same perturbation — across calls and instances.
  NoisyOracleEstimator noisy_a(svc, 2.0);
  NoisyOracleEstimator noisy_b(svc, 2.0);
  const double first = noisy_a.EstimateCard(*q);
  EXPECT_DOUBLE_EQ(noisy_a.EstimateCard(*q), first);
  EXPECT_DOUBLE_EQ(noisy_b.EstimateCard(*q), first);
}

TEST(NoisyOracleTest, ErrorMagnitudeTracksSigma) {
  StatsGenConfig config;
  config.scale = 0.03;
  auto db = GenerateStatsDatabase(config);
  TrueCardService svc(*db);
  NoisyOracleEstimator mild(svc, 0.5);
  NoisyOracleEstimator wild(svc, 4.0);

  Rng rng(3);
  double mild_err = 0, wild_err = 0;
  size_t n = 0;
  for (const auto& table : db->table_names()) {
    Query q;
    q.tables = {table};
    const double truth = *svc.Card(q);
    mild_err += QError(mild.EstimateCard(q), truth);
    wild_err += QError(wild.EstimateCard(q), truth);
    ++n;
  }
  EXPECT_GT(wild_err / static_cast<double>(n),
            mild_err / static_cast<double>(n));
}

}  // namespace
}  // namespace cardbench
