#include "cardest/autoregressive_est.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <istream>
#include <ostream>
#include <unordered_map>

#include "common/logging.h"
#include "common/serde.h"
#include "common/str_util.h"
#include "common/stopwatch.h"

namespace cardbench {

namespace {

Value ClampToValue(double v) {
  return static_cast<Value>(std::min(v, 4.0e18));
}

/// Packs an oriented (parent table, parent column, child table, child
/// column) id quadruple into one lookup key.
uint64_t PackTreeEdge(int ptid, int pcid, int ctid, int ccid) {
  return (static_cast<uint64_t>(static_cast<uint16_t>(ptid)) << 48) |
         (static_cast<uint64_t>(static_cast<uint16_t>(pcid)) << 32) |
         (static_cast<uint64_t>(static_cast<uint16_t>(ctid)) << 16) |
         static_cast<uint16_t>(ccid);
}

/// Materializes a vector of doubles as a storage Column for binning.
Column DoubleColumn(const std::vector<double>& values) {
  Column col("tmp", ColumnKind::kNumeric);
  col.Reserve(values.size());
  for (double v : values) col.Append(ClampToValue(v));
  return col;
}

}  // namespace

AutoregressiveEstimator::AutoregressiveEstimator(
    const Database& db, ArTraining mode,
    const std::vector<TrainingQuery>* training_queries, ArOptions options)
    : CardinalityEstimator(db),
      db_(db),
      mode_(mode),
      training_queries_(training_queries),
      options_(options) {
  CARDBENCH_CHECK(
      mode_ == ArTraining::kData || training_queries_ != nullptr,
      "query-driven autoregressive estimators need training queries");
  Stopwatch watch;
  sampler_ = std::make_unique<FojSampler>(db_);
  RebuildIdMaps();
  BuildColumns();
  Train();
  train_seconds_ = watch.ElapsedSeconds();
}

void AutoregressiveEstimator::RebuildIdMaps() {
  std::unordered_map<std::string, int> name_to_tid;
  for (size_t t = 0; t < db_.table_names().size(); ++t) {
    name_to_tid[db_.table_names()[t]] = static_cast<int>(t);
  }
  sampler_idx_by_table_id_.assign(db_.table_names().size(), -1);
  for (size_t t = 0; t < db_.table_names().size(); ++t) {
    sampler_idx_by_table_id_[t] = sampler_->TableIndex(db_.table_names()[t]);
  }
  tree_edge_keys_.clear();
  for (const auto& tree_edge : sampler_->edges()) {
    const std::string& parent = sampler_->bfs_order()[tree_edge.parent_idx];
    const std::string& child = sampler_->bfs_order()[tree_edge.child_idx];
    const Table& pt = db_.TableOrDie(parent);
    const Table& ct = db_.TableOrDie(child);
    tree_edge_keys_.insert(PackTreeEdge(
        name_to_tid.at(parent),
        static_cast<int>(pt.ColumnIndexOrDie(tree_edge.parent_col)),
        name_to_tid.at(child),
        static_cast<int>(ct.ColumnIndexOrDie(tree_edge.child_col))));
  }
}

void AutoregressiveEstimator::BuildColumns() {
  columns_.clear();
  const auto& order = sampler_->bfs_order();
  for (size_t t = 0; t < order.size(); ++t) {
    const Table& table = db_.TableOrDie(order[t]);
    {
      ModelColumn presence;
      presence.kind = ModelColumn::Kind::kPresence;
      presence.table_idx = t;
      presence.domain = 2;
      columns_.push_back(std::move(presence));
    }
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const Column& col = table.column(c);
      if (col.kind() != ColumnKind::kNumeric &&
          col.kind() != ColumnKind::kCategorical) {
        continue;
      }
      ModelColumn attr;
      attr.kind = ModelColumn::Kind::kAttr;
      attr.table_idx = t;
      attr.attr = col.name();
      attr.attr_column_id = static_cast<int>(c);
      attr.binner =
          std::make_unique<ColumnBinner>(col, options_.bins_per_column);
      attr.domain = attr.binner->num_bins();
      columns_.push_back(std::move(attr));
    }
    {
      // Upward-duplication column U_t.
      std::vector<double> values;
      values.reserve(table.num_rows());
      for (size_t row = 0; row < table.num_rows(); ++row) {
        values.push_back(
            std::max(1.0, sampler_->Upward(t, static_cast<uint32_t>(row))));
      }
      ModelColumn up;
      up.kind = ModelColumn::Kind::kUpward;
      up.table_idx = t;
      const Column tmp = DoubleColumn(values);
      up.binner = std::make_unique<ColumnBinner>(tmp, options_.bins_per_column);
      up.domain = up.binner->num_bins();
      columns_.push_back(std::move(up));
    }
    // Edge-duplication columns D_e for edges whose parent is this table.
    for (size_t e = 0; e < sampler_->edges().size(); ++e) {
      if (sampler_->edges()[e].parent_idx != t) continue;
      const Table& parent = db_.TableOrDie(order[t]);
      std::vector<double> values;
      values.reserve(parent.num_rows());
      for (size_t row = 0; row < parent.num_rows(); ++row) {
        values.push_back(sampler_->EdgeDup(e, static_cast<uint32_t>(row)));
      }
      ModelColumn dup;
      dup.kind = ModelColumn::Kind::kEdgeDup;
      dup.table_idx = t;
      dup.edge_idx = static_cast<int>(e);
      const Column tmp = DoubleColumn(values);
      dup.binner =
          std::make_unique<ColumnBinner>(tmp, options_.bins_per_column);
      dup.domain = dup.binner->num_bins();
      columns_.push_back(std::move(dup));
    }
  }
}

std::vector<uint16_t> AutoregressiveEstimator::BinTuple(
    const std::vector<int64_t>& tuple) const {
  std::vector<uint16_t> binned(columns_.size(), 0);
  for (size_t i = 0; i < columns_.size(); ++i) {
    const ModelColumn& mc = columns_[i];
    const int64_t row = tuple[mc.table_idx];
    switch (mc.kind) {
      case ModelColumn::Kind::kPresence:
        binned[i] = row >= 0 ? 1 : 0;
        break;
      case ModelColumn::Kind::kAttr: {
        if (row < 0) {
          binned[i] = 0;  // absent -> NULL bin
        } else {
          const Column& col = db_.TableOrDie(sampler_->bfs_order()[mc.table_idx])
                                  .ColumnByName(mc.attr);
          binned[i] = mc.binner->BinOf(
              col.IsValid(static_cast<size_t>(row))
                  ? std::optional<Value>(col.Get(static_cast<size_t>(row)))
                  : std::nullopt);
        }
        break;
      }
      case ModelColumn::Kind::kUpward:
        binned[i] = mc.binner->BinOf(
            row >= 0 ? ClampToValue(std::max(
                           1.0, sampler_->Upward(mc.table_idx,
                                                 static_cast<uint32_t>(row))))
                     : Value{1});
        break;
      case ModelColumn::Kind::kEdgeDup:
        binned[i] = mc.binner->BinOf(
            row >= 0
                ? ClampToValue(sampler_->EdgeDup(
                      static_cast<size_t>(mc.edge_idx),
                      static_cast<uint32_t>(row)))
                : Value{1});
        break;
    }
  }
  return binned;
}

std::vector<std::vector<uint16_t>> AutoregressiveEstimator::DrawDataTuples(
    size_t count, Rng& rng) const {
  std::vector<std::vector<uint16_t>> rows;
  rows.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    rows.push_back(BinTuple(sampler_->SampleTuple(rng)));
  }
  return rows;
}

std::vector<std::vector<uint16_t>> AutoregressiveEstimator::DrawQueryTuples(
    size_t count, Rng& rng) const {
  // Pseudo-tuples consistent with (query, cardinality) pairs: queries are
  // drawn with probability proportional to log2(1 + cardinality); within a
  // query, constrained attribute bins are drawn from the statistics-level
  // marginal restricted to the predicate region, everything else from the
  // marginal. A deliberately coarse reconstruction of the FOJ distribution
  // — the workload can only reveal so much (the paper's O1/O9 weaknesses).
  std::vector<std::vector<uint16_t>> rows;
  rows.reserve(count);
  const auto& queries = *training_queries_;
  std::vector<double> query_weight;
  query_weight.reserve(queries.size());
  for (const auto& tq : queries) {
    query_weight.push_back(std::log2(2.0 + tq.cardinality));
  }
  WeightedSampler query_sampler(query_weight);

  // Precomputed per-column marginal samplers.
  std::vector<std::unique_ptr<WeightedSampler>> marginals(columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].binner == nullptr) continue;
    std::vector<double> mass(columns_[i].domain);
    for (uint16_t b = 0; b < columns_[i].domain; ++b) {
      mass[b] = columns_[i].binner->BinMass(b);
    }
    marginals[i] = std::make_unique<WeightedSampler>(mass);
  }

  for (size_t i = 0; i < count; ++i) {
    const Query& query = queries[query_sampler.Sample(rng)].query;
    std::vector<uint16_t> row(columns_.size(), 0);
    for (size_t c = 0; c < columns_.size(); ++c) {
      const ModelColumn& mc = columns_[c];
      const std::string& table = sampler_->bfs_order()[mc.table_idx];
      const bool in_query = query.TableIndex(table) >= 0;
      if (mc.kind == ModelColumn::Kind::kPresence) {
        row[c] = in_query ? 1 : 0;
        continue;
      }
      if (mc.binner == nullptr) continue;
      if (mc.kind == ModelColumn::Kind::kAttr && in_query) {
        std::vector<Predicate> preds;
        for (const auto& pred : query.predicates) {
          if (pred.table == table && pred.column == mc.attr) {
            preds.push_back(pred);
          }
        }
        if (!preds.empty()) {
          const std::vector<double> frac =
              mc.binner->PredicateFractions(preds);
          std::vector<double> mass(mc.domain);
          for (uint16_t b = 0; b < mc.domain; ++b) {
            mass[b] = mc.binner->BinMass(b) * frac[b];
          }
          WeightedSampler restricted(mass);
          row[c] = static_cast<uint16_t>(restricted.Sample(rng));
          continue;
        }
      }
      row[c] = static_cast<uint16_t>(marginals[c]->Sample(rng));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

void AutoregressiveEstimator::Train() {
  Rng rng(options_.seed);
  std::vector<size_t> domains;
  domains.reserve(columns_.size());
  for (const auto& mc : columns_) domains.push_back(mc.domain);
  made_ = std::make_unique<MadeModel>(domains, options_.hidden_units,
                                      options_.hidden_layers, rng);

  std::vector<std::vector<uint16_t>> rows;
  switch (mode_) {
    case ArTraining::kData:
      rows = DrawDataTuples(options_.training_samples, rng);
      break;
    case ArTraining::kQuery:
      rows = DrawQueryTuples(options_.training_samples, rng);
      break;
    case ArTraining::kHybrid: {
      rows = DrawDataTuples(options_.training_samples / 2, rng);
      auto extra = DrawQueryTuples(options_.training_samples / 2, rng);
      rows.insert(rows.end(), extra.begin(), extra.end());
      break;
    }
  }
  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    const double nll = made_->TrainEpoch(rows, options_.batch_size,
                                         options_.learning_rate, rng,
                                         options_.mask_prob);
    CARDBENCH_DLOG("%s epoch %zu nll %.3f", name().c_str(), epoch, nll);
  }
}

Status AutoregressiveEstimator::UpdateImpl(const InsertionBatch& batch) {
  if (mode_ != ArTraining::kData) {
    return CardinalityEstimator::UpdateImpl(batch);
  }
  // Fanouts and FOJ weights changed: rebuild the sampler, draw fresh
  // samples (binned with the frozen binners) and fine-tune.
  Stopwatch watch;
  sampler_ = std::make_unique<FojSampler>(db_);
  RebuildIdMaps();
  Rng rng(options_.seed ^ 0x5555);
  const auto rows = DrawDataTuples(options_.training_samples, rng);
  for (size_t epoch = 0; epoch < std::max<size_t>(2, options_.epochs / 2);
       ++epoch) {
    made_->TrainEpoch(rows, options_.batch_size, options_.learning_rate, rng,
                      options_.mask_prob);
  }
  train_seconds_ += watch.ElapsedSeconds();
  return Status::OK();
}

double AutoregressiveEstimator::ProgressiveEstimate(
    const std::vector<std::pair<size_t, std::vector<double>>>& factors,
    Rng& rng) const {
  const size_t batch = options_.progressive_samples;
  Matrix encoded(batch, made_->input_dim());
  std::vector<double> weights(batch, 1.0);

  // Factors sorted by column order (the autoregressive order).
  std::vector<std::pair<size_t, const std::vector<double>*>> ordered;
  for (const auto& [col, per_bin] : factors) ordered.push_back({col, &per_bin});
  std::sort(ordered.begin(), ordered.end());

  for (const auto& [col, per_bin] : ordered) {
    const Matrix probs = made_->ConditionalProbs(encoded, col);
    const size_t offset = made_->ColumnOffset(col);
    for (size_t s = 0; s < batch; ++s) {
      if (weights[s] <= 0.0) continue;
      double mass = 0.0;
      for (size_t b = 0; b < columns_[col].domain; ++b) {
        mass += probs.At(s, b) * (*per_bin)[b];
      }
      weights[s] *= mass;
      if (mass <= 1e-300) {
        weights[s] = 0.0;
        continue;
      }
      // Sample the conditioning bin proportionally to prob * factor.
      double pick = rng.NextDouble() * mass;
      size_t chosen = columns_[col].domain - 1;
      for (size_t b = 0; b < columns_[col].domain; ++b) {
        pick -= probs.At(s, b) * (*per_bin)[b];
        if (pick <= 0) {
          chosen = b;
          break;
        }
      }
      encoded.At(s, offset + chosen) = 1.0;
    }
  }
  double mean = 0.0;
  for (double w : weights) mean += w;
  return mean / static_cast<double>(batch);
}

bool AutoregressiveEstimator::GraphMapToTree(
    const QueryGraph& graph, uint64_t mask, std::vector<bool>* table_in_s,
    std::vector<int>* local_of_sampler) const {
  table_in_s->assign(sampler_->bfs_order().size(), false);
  local_of_sampler->assign(sampler_->bfs_order().size(), -1);
  for (uint64_t rest = mask; rest != 0; rest &= rest - 1) {
    const int local = std::countr_zero(rest);
    const int idx = sampler_idx_by_table_id_[graph.table(local).table_id];
    if (idx < 0) return false;
    (*table_in_s)[static_cast<size_t>(idx)] = true;
    (*local_of_sampler)[static_cast<size_t>(idx)] = local;
  }
  for (const auto& edge : graph.edges()) {
    if ((edge.mask & mask) != edge.mask) continue;
    const bool forward = tree_edge_keys_.count(
                             PackTreeEdge(edge.left_table_id,
                                          edge.left_column_id,
                                          edge.right_table_id,
                                          edge.right_column_id)) > 0;
    const bool backward = tree_edge_keys_.count(
                              PackTreeEdge(edge.right_table_id,
                                           edge.right_column_id,
                                           edge.left_table_id,
                                           edge.left_column_id)) > 0;
    if (!forward && !backward) return false;
  }
  return true;
}

double AutoregressiveEstimator::EstimateCard(const QueryGraph& graph,
                                             uint64_t mask) const {
  // Per-sub-plan progressive-sampling stream (see header).
  Rng rng(options_.seed ^ 0xABCDEF ^ Fnv1aHash(graph.CanonicalKey(mask)));
  std::vector<bool> in_s;
  std::vector<int> local_of_sampler;
  if (!GraphMapToTree(graph, mask, &in_s, &local_of_sampler)) {
    // Off-tree join (FK-FK shortcut): independence fallback — single-table
    // estimates combined with 1/max(ndv) per edge (tree-schema limitation).
    double card = 1.0;
    for (uint64_t rest = mask; rest != 0; rest &= rest - 1) {
      card *= EstimateCard(graph, rest & ~(rest - 1));
    }
    for (const auto& edge : graph.edges()) {
      if ((edge.mask & mask) != edge.mask) continue;
      card /= JoinUniformityDivisor(edge);
    }
    return std::max(card, 1.0);
  }

  const std::vector<std::pair<size_t, std::vector<double>>> factors =
      BuildGraphFactors(graph, in_s, local_of_sampler);
  const double expectation = ProgressiveEstimate(factors, rng);
  return std::max(1.0, sampler_->foj_size() * expectation);
}

std::vector<std::pair<size_t, std::vector<double>>>
AutoregressiveEstimator::BuildGraphFactors(
    const QueryGraph& graph, const std::vector<bool>& in_s,
    const std::vector<int>& local_of_sampler) const {
  // Top of S: the BFS-shallowest table (parents precede children).
  size_t top = 0;
  for (size_t t = 0; t < in_s.size(); ++t) {
    if (in_s[t]) {
      top = t;
      break;
    }
  }

  std::vector<std::pair<size_t, std::vector<double>>> factors;
  for (size_t c = 0; c < columns_.size(); ++c) {
    const ModelColumn& mc = columns_[c];
    const bool table_in_query = in_s[mc.table_idx];
    switch (mc.kind) {
      case ModelColumn::Kind::kPresence:
        if (table_in_query) factors.push_back({c, {0.0, 1.0}});
        break;
      case ModelColumn::Kind::kAttr: {
        if (!table_in_query) break;
        const QueryGraph::TableInfo& info =
            graph.table(local_of_sampler[mc.table_idx]);
        std::vector<Predicate> preds;
        for (size_t p = 0; p < info.preds.size(); ++p) {
          if (info.compiled[p].column_id == mc.attr_column_id) {
            preds.push_back(info.preds[p]);
          }
        }
        if (!preds.empty()) {
          factors.push_back({c, mc.binner->PredicateFractions(preds)});
        }
        break;
      }
      case ModelColumn::Kind::kUpward: {
        if (mc.table_idx != top) break;
        std::vector<double> inv(mc.domain);
        for (uint16_t b = 0; b < mc.domain; ++b) {
          inv[b] = mc.binner->BinInverseMean(b);
        }
        factors.push_back({c, std::move(inv)});
        break;
      }
      case ModelColumn::Kind::kEdgeDup: {
        if (!table_in_query) break;
        const auto& edge = sampler_->edges()[static_cast<size_t>(mc.edge_idx)];
        if (in_s[edge.child_idx]) break;  // child joined: no duplication
        std::vector<double> inv(mc.domain);
        for (uint16_t b = 0; b < mc.domain; ++b) {
          inv[b] = mc.binner->BinInverseMean(b);
        }
        factors.push_back({c, std::move(inv)});
        break;
      }
    }
  }
  return factors;
}

std::vector<double> AutoregressiveEstimator::EstimateCards(
    const QueryGraph& graph, std::span<const uint64_t> masks) const {
  std::vector<double> out(masks.size(), 0.0);

  // Per-mask progressive-sampling state. Off-tree masks take the scalar
  // path immediately (the independence fallback draws no samples).
  struct Item {
    size_t out_idx = 0;
    Rng rng{0};
    std::vector<std::pair<size_t, std::vector<double>>> factors;
    size_t cursor = 0;  // next factor to process
    Matrix encoded;
    std::vector<double> weights;
  };
  std::vector<Item> items;
  const size_t batch = options_.progressive_samples;
  for (size_t i = 0; i < masks.size(); ++i) {
    Rng rng(options_.seed ^ 0xABCDEF ^ Fnv1aHash(graph.CanonicalKey(masks[i])));
    std::vector<bool> in_s;
    std::vector<int> local_of_sampler;
    if (!GraphMapToTree(graph, masks[i], &in_s, &local_of_sampler)) {
      out[i] = EstimateCard(graph, masks[i]);
      continue;
    }
    Item item;
    item.out_idx = i;
    item.rng = rng;
    item.factors = BuildGraphFactors(graph, in_s, local_of_sampler);
    item.encoded = Matrix(batch, made_->input_dim());
    item.weights.assign(batch, 1.0);
    items.push_back(std::move(item));
  }
  if (items.empty()) return out;

  // Constrained columns across the batch, ascending — each mask's factors
  // are already in ascending column order (ProgressiveEstimate's sort is a
  // stable no-op on them), so processing its subset of the union in that
  // order reproduces the scalar column order exactly.
  std::vector<size_t> union_cols;
  for (const Item& item : items) {
    for (const auto& [col, per_bin] : item.factors) union_cols.push_back(col);
  }
  std::sort(union_cols.begin(), union_cols.end());
  union_cols.erase(std::unique(union_cols.begin(), union_cols.end()),
                   union_cols.end());

  std::vector<Item*> active;
  for (size_t col : union_cols) {
    active.clear();
    for (Item& item : items) {
      if (item.cursor < item.factors.size() &&
          item.factors[item.cursor].first == col) {
        active.push_back(&item);
      }
    }
    if (active.empty()) continue;

    // One fused MADE forward over all active masks' sample rows; the
    // network is row-independent, so each mask's probability block equals
    // its scalar ConditionalProbs result.
    Matrix gathered(active.size() * batch, made_->input_dim());
    for (size_t k = 0; k < active.size(); ++k) {
      std::copy(active[k]->encoded.data().begin(),
                active[k]->encoded.data().end(),
                gathered.data().begin() +
                    static_cast<std::ptrdiff_t>(k * batch *
                                                made_->input_dim()));
    }
    const Matrix probs = made_->ConditionalProbs(gathered, col);
    const size_t offset = made_->ColumnOffset(col);
    const size_t domain = columns_[col].domain;
    for (size_t k = 0; k < active.size(); ++k) {
      Item& item = *active[k];
      const std::vector<double>& per_bin =
          item.factors[item.cursor].second;
      const size_t row0 = k * batch;
      for (size_t s = 0; s < batch; ++s) {
        if (item.weights[s] <= 0.0) continue;
        double mass = 0.0;
        for (size_t b = 0; b < domain; ++b) {
          mass += probs.At(row0 + s, b) * per_bin[b];
        }
        item.weights[s] *= mass;
        if (mass <= 1e-300) {
          item.weights[s] = 0.0;
          continue;
        }
        // Sample the conditioning bin proportionally to prob * factor.
        double pick = item.rng.NextDouble() * mass;
        size_t chosen = domain - 1;
        for (size_t b = 0; b < domain; ++b) {
          pick -= probs.At(row0 + s, b) * per_bin[b];
          if (pick <= 0) {
            chosen = b;
            break;
          }
        }
        item.encoded.At(s, offset + chosen) = 1.0;
      }
      ++item.cursor;
    }
  }

  for (const Item& item : items) {
    double mean = 0.0;
    for (double w : item.weights) mean += w;
    const double expectation = mean / static_cast<double>(batch);
    out[item.out_idx] =
        std::max(1.0, sampler_->foj_size() * expectation);
  }
  return out;
}

AutoregressiveEstimator::AutoregressiveEstimator(const Database& db,
                                                 ArTraining mode,
                                                 ArOptions options,
                                                 DeferredInit)
    : CardinalityEstimator(db),
      db_(db),
      mode_(mode),
      training_queries_(nullptr),
      options_(options) {
  sampler_ = std::make_unique<FojSampler>(db_);
  RebuildIdMaps();
}

Status AutoregressiveEstimator::Serialize(std::ostream& out) const {
  ModelWriter writer("armade");
  SectionWriter& meta = writer.AddSection("meta");
  meta.PutU32(static_cast<uint32_t>(mode_));
  meta.PutU64(options_.training_samples);
  meta.PutU64(options_.bins_per_column);
  meta.PutU64(options_.hidden_units);
  meta.PutU64(options_.hidden_layers);
  meta.PutU64(options_.epochs);
  meta.PutU64(options_.batch_size);
  meta.PutDouble(options_.learning_rate);
  meta.PutDouble(options_.mask_prob);
  meta.PutU64(options_.progressive_samples);
  meta.PutU64(options_.seed);
  meta.PutDouble(train_seconds_);

  SectionWriter& cols = writer.AddSection("columns");
  cols.PutU64(columns_.size());
  for (const auto& mc : columns_) {
    cols.PutU32(static_cast<uint32_t>(mc.kind));
    cols.PutU64(mc.table_idx);
    cols.PutString(mc.attr);
    cols.PutI64(mc.attr_column_id);
    cols.PutI64(mc.edge_idx);
    cols.PutU64(mc.domain);
    cols.PutBool(mc.binner != nullptr);
    if (mc.binner != nullptr) mc.binner->Serialize(cols);
  }

  SectionWriter& params = writer.AddSection("params");
  made_->SerializeParams(params);
  return writer.WriteTo(out);
}

Result<std::unique_ptr<AutoregressiveEstimator>>
AutoregressiveEstimator::Deserialize(const Database& db, std::istream& in) {
  CARDBENCH_ASSIGN_OR_RETURN(ModelReader reader,
                             ModelReader::Open(in, "armade"));
  CARDBENCH_ASSIGN_OR_RETURN(SectionReader meta, reader.Section("meta"));
  uint32_t mode_raw = 0;
  CARDBENCH_ASSIGN_OR_RETURN(mode_raw, meta.GetU32());
  if (mode_raw > static_cast<uint32_t>(ArTraining::kHybrid)) {
    return Status::InvalidArgument("unknown autoregressive training mode");
  }
  ArOptions options;
  CARDBENCH_ASSIGN_OR_RETURN(options.training_samples, meta.GetU64());
  CARDBENCH_ASSIGN_OR_RETURN(options.bins_per_column, meta.GetU64());
  CARDBENCH_ASSIGN_OR_RETURN(options.hidden_units, meta.GetU64());
  CARDBENCH_ASSIGN_OR_RETURN(options.hidden_layers, meta.GetU64());
  CARDBENCH_ASSIGN_OR_RETURN(options.epochs, meta.GetU64());
  CARDBENCH_ASSIGN_OR_RETURN(options.batch_size, meta.GetU64());
  CARDBENCH_ASSIGN_OR_RETURN(options.learning_rate, meta.GetDouble());
  CARDBENCH_ASSIGN_OR_RETURN(options.mask_prob, meta.GetDouble());
  CARDBENCH_ASSIGN_OR_RETURN(options.progressive_samples, meta.GetU64());
  CARDBENCH_ASSIGN_OR_RETURN(options.seed, meta.GetU64());
  auto est = std::unique_ptr<AutoregressiveEstimator>(
      new AutoregressiveEstimator(db, static_cast<ArTraining>(mode_raw),
                                  options, DeferredInit()));
  CARDBENCH_ASSIGN_OR_RETURN(est->train_seconds_, meta.GetDouble());

  CARDBENCH_ASSIGN_OR_RETURN(SectionReader cols, reader.Section("columns"));
  uint64_t num_columns = 0;
  CARDBENCH_ASSIGN_OR_RETURN(num_columns, cols.GetU64());
  est->columns_.reserve(num_columns);
  for (uint64_t i = 0; i < num_columns; ++i) {
    ModelColumn mc;
    uint32_t kind_raw = 0;
    CARDBENCH_ASSIGN_OR_RETURN(kind_raw, cols.GetU32());
    if (kind_raw > static_cast<uint32_t>(ModelColumn::Kind::kEdgeDup)) {
      return Status::InvalidArgument("unknown autoregressive column kind");
    }
    mc.kind = static_cast<ModelColumn::Kind>(kind_raw);
    CARDBENCH_ASSIGN_OR_RETURN(mc.table_idx, cols.GetU64());
    if (mc.table_idx >= est->sampler_->bfs_order().size()) {
      return Status::InvalidArgument(
          "autoregressive column references unknown table slot");
    }
    CARDBENCH_ASSIGN_OR_RETURN(mc.attr, cols.GetString());
    int64_t attr_column_id = 0;
    CARDBENCH_ASSIGN_OR_RETURN(attr_column_id, cols.GetI64());
    mc.attr_column_id = static_cast<int>(attr_column_id);
    int64_t edge_idx = 0;
    CARDBENCH_ASSIGN_OR_RETURN(edge_idx, cols.GetI64());
    mc.edge_idx = static_cast<int>(edge_idx);
    CARDBENCH_ASSIGN_OR_RETURN(mc.domain, cols.GetU64());
    bool has_binner = false;
    CARDBENCH_ASSIGN_OR_RETURN(has_binner, cols.GetBool());
    if (has_binner) {
      CARDBENCH_ASSIGN_OR_RETURN(ColumnBinner binner,
                                 ColumnBinner::Deserialize(cols));
      mc.binner = std::make_unique<ColumnBinner>(std::move(binner));
    }
    est->columns_.push_back(std::move(mc));
  }

  std::vector<size_t> domains;
  domains.reserve(est->columns_.size());
  for (const auto& mc : est->columns_) domains.push_back(mc.domain);
  Rng rng(options.seed);
  est->made_ = std::make_unique<MadeModel>(domains, options.hidden_units,
                                           options.hidden_layers, rng);
  CARDBENCH_ASSIGN_OR_RETURN(SectionReader params, reader.Section("params"));
  CARDBENCH_RETURN_IF_ERROR(est->made_->LoadParams(params));
  return est;
}

}  // namespace cardbench
