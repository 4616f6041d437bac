#include "cardest/mscn_est.h"

#include <algorithm>
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

/// The mean of `hidden`'s `rows` into dst[0..hidden.cols()), which is
/// zero on entry: the rows are added in order, then scaled by 1/count.
void PoolRows(const Matrix& hidden, std::span<const uint32_t> rows,
              double* dst) {
  const simd::KernelTable& kt = simd::Active();
  for (const uint32_t r : rows) kt.vec_add(dst, hidden.Row(r), hidden.cols());
  const double inv =
      rows.empty() ? 0.0 : 1.0 / static_cast<double>(rows.size());
  kt.vec_scale(dst, inv, hidden.cols());
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
  std::vector<QueryFeaturizer::MscnSets> all_features;
  all_features.reserve(training.size());
  for (const TrainingQuery& example : training) {
    const QueryGraph graph(example.query, *database());
    const uint64_t mask = graph.full_mask();
    all_features.push_back(featurizer_.MscnElements(graph, {&mask, 1}));
  }
  for (size_t epoch = 0; epoch < epochs; ++epoch) {
    const auto order = rng.Permutation(training.size());
    double loss_sum = 0.0;
    for (size_t idx : order) {
      const TrainingQuery& example = training[idx];
      const QueryFeaturizer::MscnSets& features = all_features[idx];
      const Matrix ht = table_module_->Forward(features.tables.x);
      const Matrix hj = join_module_->Forward(features.joins.x);
      const Matrix hp = pred_module_->Forward(features.predicates.x);
      Matrix concat(1, 3 * h);
      PoolRows(ht, features.tables.RowsOf(0), concat.Row(0));
      PoolRows(hj, features.joins.RowsOf(0), concat.Row(0) + h);
      PoolRows(hp, features.predicates.RowsOf(0), concat.Row(0) + 2 * h);
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

std::vector<double> MscnEstimator::EstimateCards(
    const QueryGraph& graph, std::span<const uint64_t> masks) const {
  std::vector<double> out;
  if (masks.empty()) return out;
  const size_t h = options_.hidden_units;

  // Each module runs once over the distinct elements of all masks. A
  // mask's pooled vector sums its elements' hidden rows in the order
  // training's pooling does, and hidden rows don't depend on which batch
  // computed them (row-independent GEMM), so a mask's forward does not
  // depend on the batch that carries it.
  const QueryFeaturizer::MscnSets sets = featurizer_.MscnElements(graph, masks);
  const Matrix ht = table_module_->Infer(sets.tables.x);
  const Matrix hj = join_module_->Infer(sets.joins.x);
  const Matrix hp = pred_module_->Infer(sets.predicates.x);
  Matrix concat(masks.size(), 3 * h);
  for (size_t i = 0; i < masks.size(); ++i) {
    PoolRows(ht, sets.tables.RowsOf(i), concat.Row(i));
    PoolRows(hj, sets.joins.RowsOf(i), concat.Row(i) + h);
    PoolRows(hp, sets.predicates.RowsOf(i), concat.Row(i) + 2 * h);
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
