#include "cardest/mscn_est.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <istream>
#include <ostream>

#include "common/logging.h"
#include "common/rng.h"
#include "common/serde.h"
#include "common/simd.h"
#include "common/stopwatch.h"

namespace cardbench {

namespace {

Matrix ToMatrix(const std::vector<std::vector<double>>& rows) {
  Matrix m(rows.size(), rows.empty() ? 0 : rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < rows[r].size(); ++c) m.At(r, c) = rows[r][c];
  }
  return m;
}

Matrix MeanPool(const Matrix& h) {
  Matrix pooled(1, h.cols());
  const simd::KernelTable& kt = simd::Active();
  for (size_t r = 0; r < h.rows(); ++r) {
    kt.vec_add(pooled.Row(0), h.Row(r), h.cols());
  }
  const double inv = h.rows() > 0 ? 1.0 / static_cast<double>(h.rows()) : 0.0;
  kt.vec_scale(pooled.Row(0), inv, h.cols());
  return pooled;
}

double TargetOf(double cardinality) { return std::log2(1.0 + cardinality); }

}  // namespace

MscnEstimator::MscnEstimator(const Database& db,
                             const std::vector<TrainingQuery>& training,
                             MscnOptions options)
    : CardinalityEstimator(db), featurizer_(db), options_(options) {
  Stopwatch watch;
  Rng rng(options_.seed);
  const size_t h = options_.hidden_units;
  table_module_ = std::make_unique<Mlp>(
      std::vector<size_t>{featurizer_.table_element_dim(), h, h}, rng);
  join_module_ = std::make_unique<Mlp>(
      std::vector<size_t>{featurizer_.join_element_dim(), h, h}, rng);
  pred_module_ = std::make_unique<Mlp>(
      std::vector<size_t>{featurizer_.predicate_element_dim(), h, h}, rng);
  head_ = std::make_unique<Mlp>(std::vector<size_t>{3 * h, 2 * h, 1}, rng);

  CARDBENCH_CHECK(!training.empty(), "MSCN requires training queries");
  TrainEpochs(training, options_.epochs, rng);
  train_seconds_ = watch.ElapsedSeconds();
}

void MscnEstimator::TrainEpochs(const std::vector<TrainingQuery>& training,
                                size_t epochs, Rng& rng) {
  const size_t h = options_.hidden_units;
  // Featurize each query once, as its compiled graph at the full mask.
  std::vector<QueryFeaturizer::SetFeatures> all_features;
  all_features.reserve(training.size());
  for (const TrainingQuery& example : training) {
    const QueryGraph graph(example.query, *database());
    all_features.push_back(featurizer_.MscnFeatures(graph, graph.full_mask()));
  }
  for (size_t epoch = 0; epoch < epochs; ++epoch) {
    const auto order = rng.Permutation(training.size());
    double loss_sum = 0.0;
    for (size_t idx : order) {
      const TrainingQuery& example = training[idx];
      const QueryFeaturizer::SetFeatures& features = all_features[idx];
      const Matrix xt = ToMatrix(features.tables);
      const Matrix xj = ToMatrix(features.joins);
      const Matrix xp = ToMatrix(features.predicates);
      const Matrix ht = table_module_->Forward(xt);
      const Matrix hj = join_module_->Forward(xj);
      const Matrix hp = pred_module_->Forward(xp);
      const Matrix pt = MeanPool(ht);
      const Matrix pj = MeanPool(hj);
      const Matrix pp = MeanPool(hp);
      Matrix concat(1, 3 * h);
      for (size_t c = 0; c < h; ++c) {
        concat.At(0, c) = pt.At(0, c);
        concat.At(0, h + c) = pj.At(0, c);
        concat.At(0, 2 * h + c) = pp.At(0, c);
      }
      const Matrix y = head_->Forward(concat);
      const double target = TargetOf(example.cardinality);
      const double diff = y.At(0, 0) - target;
      loss_sum += diff * diff;

      Matrix dy(1, 1);
      dy.At(0, 0) = 2.0 * diff;
      const Matrix dconcat = head_->Backward(dy);
      auto backprop_module = [&](Mlp& module, const Matrix& hidden,
                                 size_t offset) {
        Matrix dh(hidden.rows(), h);
        const double inv =
            hidden.rows() > 0 ? 1.0 / static_cast<double>(hidden.rows()) : 0.0;
        for (size_t r = 0; r < hidden.rows(); ++r) {
          for (size_t c = 0; c < h; ++c) {
            dh.At(r, c) = dconcat.At(0, offset + c) * inv;
          }
        }
        module.Backward(dh);
        module.Step(options_.learning_rate);
      };
      // Backward order mirrors forward caches (one Forward per module).
      backprop_module(*pred_module_, hp, 2 * h);
      backprop_module(*join_module_, hj, h);
      backprop_module(*table_module_, ht, 0);
      head_->Step(options_.learning_rate);
    }
    CARDBENCH_DLOG("MSCN epoch %zu loss %.4f", epoch,
                   loss_sum / static_cast<double>(training.size()));
  }
}

Status MscnEstimator::UpdateImpl(const InsertionBatch& batch) {
  if (batch.refresh_training == nullptr || batch.refresh_training->empty()) {
    return Status::Unsupported(
        "MSCN: refreshing needs re-labeled training queries "
        "(batch.refresh_training)");
  }
  Stopwatch watch;
  // Derive the shuffle stream from (seed, data_version) so the same refresh
  // applied to the same parameters is reproducible, while successive
  // versions see different permutations.
  Rng rng(options_.seed ^ (batch.data_version * 0x9e3779b97f4a7c15ULL));
  const size_t epochs = std::max<size_t>(1, options_.epochs / 10);
  TrainEpochs(*batch.refresh_training, epochs, rng);
  train_seconds_ += watch.ElapsedSeconds();
  return Status::OK();
}

double MscnEstimator::Forward(
    const QueryFeaturizer::SetFeatures& features) const {
  const size_t h = options_.hidden_units;
  const Matrix pt = MeanPool(table_module_->Infer(ToMatrix(features.tables)));
  const Matrix pj = MeanPool(join_module_->Infer(ToMatrix(features.joins)));
  const Matrix pp =
      MeanPool(pred_module_->Infer(ToMatrix(features.predicates)));
  Matrix concat(1, 3 * h);
  for (size_t c = 0; c < h; ++c) {
    concat.At(0, c) = pt.At(0, c);
    concat.At(0, h + c) = pj.At(0, c);
    concat.At(0, 2 * h + c) = pp.At(0, c);
  }
  const Matrix y = head_->Infer(concat);
  return std::max(1.0, std::exp2(y.At(0, 0)) - 1.0);
}

double MscnEstimator::EstimateCard(const QueryGraph& graph,
                                   uint64_t mask) const {
  return Forward(featurizer_.MscnFeatures(graph, mask));
}

std::vector<double> MscnEstimator::EstimateCards(
    const QueryGraph& graph, std::span<const uint64_t> masks) const {
  std::vector<double> out;
  if (masks.empty()) return out;
  const size_t h = options_.hidden_units;

  // MSCN's set elements are mask-independent (a table's one-hot + bitmap,
  // an edge's one-hot, a predicate's encoding), so the batch featurizes
  // each distinct element of the masks' union once and runs each module
  // once over those rows. A mask's pooled vector is then a segment mean of
  // its elements' hidden rows — summed in the same order MeanPool sums them
  // and scaled by the same 1/count, and hidden rows don't depend on which
  // batch computed them (row-independent GEMM) — so every mask's forward is
  // bit-identical to its scalar EstimateCard.
  uint64_t union_mask = 0;
  for (uint64_t mask : masks) union_mask |= mask;

  // Element rows are featurized straight into zero-initialized module input
  // matrices through the *ElementInto builders — no per-element vectors on
  // the hot path.
  std::vector<int> table_row(graph.num_tables(), -1);
  Matrix xt(static_cast<size_t>(std::popcount(union_mask)),
            featurizer_.table_element_dim());
  {
    size_t r = 0;
    for (uint64_t rest = union_mask; rest != 0; rest &= rest - 1) {
      const int local = std::countr_zero(rest);
      table_row[local] = static_cast<int>(r);
      featurizer_.MscnTableElementInto(graph.table(local), xt.Row(r));
      ++r;
    }
  }
  const Matrix ht = table_module_->Infer(xt);

  // The trailing all-zero element backs masks with no edge (no predicate):
  // the scalar path pools exactly one zero element there. Zero rows need no
  // writes — Matrix zero-initializes.
  std::vector<int> edge_row(graph.edges().size(), -1);
  size_t num_joins = 0;
  for (const auto& edge : graph.edges()) {
    if ((edge.mask & union_mask) == edge.mask) ++num_joins;
  }
  Matrix xj(num_joins + 1, featurizer_.join_element_dim());
  {
    size_t r = 0;
    for (size_t e = 0; e < graph.edges().size(); ++e) {
      const auto& edge = graph.edges()[e];
      if ((edge.mask & union_mask) != edge.mask) continue;
      edge_row[e] = static_cast<int>(r);
      featurizer_.MscnJoinElementInto(edge, xj.Row(r));
      ++r;
    }
  }
  const size_t zero_join = num_joins;
  const Matrix hj = join_module_->Infer(xj);

  std::vector<int> pred_row(graph.predicates().size(), -1);
  size_t num_preds = 0;
  for (const auto& pred : graph.predicates()) {
    if (((union_mask >> pred.local_table) & 1) != 0) ++num_preds;
  }
  Matrix xp(num_preds + 1, featurizer_.predicate_element_dim());
  {
    size_t r = 0;
    for (size_t p = 0; p < graph.predicates().size(); ++p) {
      const auto& pred = graph.predicates()[p];
      if (((union_mask >> pred.local_table) & 1) == 0) continue;
      pred_row[p] = static_cast<int>(r);
      featurizer_.MscnPredElementInto(pred, xp.Row(r));
      ++r;
    }
  }
  const size_t zero_pred = num_preds;
  const Matrix hp = pred_module_->Infer(xp);

  Matrix concat(masks.size(), 3 * h);
  const simd::KernelTable& kt = simd::Active();
  auto pool_rows = [&](size_t i, size_t offset, const Matrix& hidden,
                       const std::vector<int>& rows_used) {
    // Same additions in the same order as MeanPool (vec_add is elementwise),
    // same 1/count scale — segment pooling stays bit-identical to the
    // scalar path.
    double* dst = concat.Row(i) + offset;
    for (const int r : rows_used) {
      kt.vec_add(dst, hidden.Row(static_cast<size_t>(r)), h);
    }
    const double inv = rows_used.empty()
                           ? 0.0
                           : 1.0 / static_cast<double>(rows_used.size());
    kt.vec_scale(dst, inv, h);
  };
  std::vector<int> rows_used;
  for (size_t i = 0; i < masks.size(); ++i) {
    const uint64_t mask = masks[i];
    rows_used.clear();
    for (uint64_t rest = mask; rest != 0; rest &= rest - 1) {
      rows_used.push_back(table_row[std::countr_zero(rest)]);
    }
    pool_rows(i, 0, ht, rows_used);

    rows_used.clear();
    for (size_t e = 0; e < graph.edges().size(); ++e) {
      const auto& edge = graph.edges()[e];
      if ((edge.mask & mask) == edge.mask) rows_used.push_back(edge_row[e]);
    }
    if (rows_used.empty()) rows_used.push_back(static_cast<int>(zero_join));
    pool_rows(i, h, hj, rows_used);

    rows_used.clear();
    for (size_t p = 0; p < graph.predicates().size(); ++p) {
      if (((mask >> graph.predicates()[p].local_table) & 1) != 0) {
        rows_used.push_back(pred_row[p]);
      }
    }
    if (rows_used.empty()) rows_used.push_back(static_cast<int>(zero_pred));
    pool_rows(i, 2 * h, hp, rows_used);
  }

  const Matrix y = head_->Infer(concat);
  out.reserve(masks.size());
  for (size_t r = 0; r < masks.size(); ++r) {
    out.push_back(std::max(1.0, std::exp2(y.At(r, 0)) - 1.0));
  }
  return out;
}

MscnEstimator::MscnEstimator(const Database& db, MscnOptions options,
                             DeferredInit)
    : CardinalityEstimator(db), featurizer_(db), options_(options) {
  Rng rng(options_.seed);
  const size_t h = options_.hidden_units;
  table_module_ = std::make_unique<Mlp>(
      std::vector<size_t>{featurizer_.table_element_dim(), h, h}, rng);
  join_module_ = std::make_unique<Mlp>(
      std::vector<size_t>{featurizer_.join_element_dim(), h, h}, rng);
  pred_module_ = std::make_unique<Mlp>(
      std::vector<size_t>{featurizer_.predicate_element_dim(), h, h}, rng);
  head_ = std::make_unique<Mlp>(std::vector<size_t>{3 * h, 2 * h, 1}, rng);
}

Status MscnEstimator::Serialize(std::ostream& out) const {
  ModelWriter writer("mscn");
  SectionWriter& meta = writer.AddSection("meta");
  meta.PutU64(options_.hidden_units);
  meta.PutU64(options_.epochs);
  meta.PutDouble(options_.learning_rate);
  meta.PutU64(options_.seed);
  meta.PutDouble(train_seconds_);
  SectionWriter& params = writer.AddSection("params");
  table_module_->SerializeParams(params);
  join_module_->SerializeParams(params);
  pred_module_->SerializeParams(params);
  head_->SerializeParams(params);
  return writer.WriteTo(out);
}

Result<std::unique_ptr<MscnEstimator>> MscnEstimator::Deserialize(
    const Database& db, std::istream& in) {
  CARDBENCH_ASSIGN_OR_RETURN(ModelReader reader, ModelReader::Open(in, "mscn"));
  CARDBENCH_ASSIGN_OR_RETURN(SectionReader meta, reader.Section("meta"));
  MscnOptions options;
  CARDBENCH_ASSIGN_OR_RETURN(options.hidden_units, meta.GetU64());
  CARDBENCH_ASSIGN_OR_RETURN(options.epochs, meta.GetU64());
  CARDBENCH_ASSIGN_OR_RETURN(options.learning_rate, meta.GetDouble());
  CARDBENCH_ASSIGN_OR_RETURN(options.seed, meta.GetU64());
  auto est = std::unique_ptr<MscnEstimator>(
      new MscnEstimator(db, options, DeferredInit()));
  CARDBENCH_ASSIGN_OR_RETURN(est->train_seconds_, meta.GetDouble());
  CARDBENCH_ASSIGN_OR_RETURN(SectionReader params, reader.Section("params"));
  CARDBENCH_RETURN_IF_ERROR(est->table_module_->LoadParams(params));
  CARDBENCH_RETURN_IF_ERROR(est->join_module_->LoadParams(params));
  CARDBENCH_RETURN_IF_ERROR(est->pred_module_->LoadParams(params));
  CARDBENCH_RETURN_IF_ERROR(est->head_->LoadParams(params));
  return est;
}

}  // namespace cardbench
