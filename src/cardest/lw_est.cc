#include "cardest/lw_est.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "common/logging.h"
#include "common/rng.h"
#include "common/serde.h"
#include "common/stopwatch.h"

namespace cardbench {

namespace {
double TargetOf(double cardinality) { return std::log2(1.0 + cardinality); }
double CardOf(double prediction) {
  return std::max(1.0, std::exp2(prediction) - 1.0);
}

/// Flat features and log2 targets of `training`, each query featurized as
/// its compiled graph at the full mask.
void FeaturizeTraining(const QueryFeaturizer& featurizer, const Database& db,
                       const std::vector<TrainingQuery>& training,
                       std::vector<std::vector<double>>* features,
                       std::vector<double>* targets) {
  features->reserve(training.size());
  targets->reserve(training.size());
  for (const TrainingQuery& example : training) {
    const QueryGraph graph(example.query, db);
    const FlatFeaturePlan plan(featurizer, graph);
    std::vector<double>& row = features->emplace_back(plan.dim());
    plan.FillRow(graph, graph.full_mask(), row.data());
    targets->push_back(TargetOf(example.cardinality));
  }
}
}  // namespace

LwNnEstimator::LwNnEstimator(const Database& db,
                             const std::vector<TrainingQuery>& training,
                             LwNnOptions options)
    : CardinalityEstimator(db), featurizer_(db), options_(options) {
  CARDBENCH_CHECK(!training.empty(), "LW-NN requires training queries");
  Stopwatch watch;
  Rng rng(options.seed);
  net_ = std::make_unique<Mlp>(
      std::vector<size_t>{featurizer_.flat_dim(), options.hidden_units,
                          options.hidden_units / 2, 1},
      rng);

  TrainEpochs(training, options.epochs, rng);
  train_seconds_ = watch.ElapsedSeconds();
}

void LwNnEstimator::TrainEpochs(const std::vector<TrainingQuery>& training,
                                size_t epochs, Rng& rng) {
  std::vector<std::vector<double>> features;
  std::vector<double> targets;
  FeaturizeTraining(featurizer_, *database(), training, &features, &targets);

  for (size_t epoch = 0; epoch < epochs; ++epoch) {
    const auto order = rng.Permutation(training.size());
    for (size_t begin = 0; begin < order.size();
         begin += options_.batch_size) {
      const size_t end = std::min(order.size(), begin + options_.batch_size);
      Matrix x(end - begin, featurizer_.flat_dim());
      std::vector<double> batch_targets(end - begin);
      for (size_t i = begin; i < end; ++i) {
        const size_t idx = order[i];
        for (size_t c = 0; c < features[idx].size(); ++c) {
          x.At(i - begin, c) = features[idx][c];
        }
        batch_targets[i - begin] = targets[idx];
      }
      const Matrix y = net_->Forward(x);
      Matrix grad;
      MseLoss(y, batch_targets, &grad);
      net_->Backward(grad);
      net_->Step(options_.learning_rate);
    }
  }
}

Status LwNnEstimator::UpdateImpl(const InsertionBatch& batch) {
  if (batch.refresh_training == nullptr || batch.refresh_training->empty()) {
    return Status::Unsupported(
        "LW-NN: refreshing needs re-labeled training queries "
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

std::vector<double> LwNnEstimator::EstimateCards(
    const QueryGraph& graph, std::span<const uint64_t> masks) const {
  std::vector<double> out;
  if (masks.empty()) return out;
  // Vocabulary slots and predicate range folds resolved once for the whole
  // batch, then one multi-row GEMM through the net.
  const FlatFeaturePlan plan(featurizer_, graph);
  Matrix x(masks.size(), plan.dim());
  for (size_t r = 0; r < masks.size(); ++r) {
    plan.FillRow(graph, masks[r], x.Row(r));
  }
  const Matrix y = net_->Infer(x);
  out.reserve(masks.size());
  for (size_t r = 0; r < masks.size(); ++r) out.push_back(CardOf(y.At(r, 0)));
  return out;
}

LwXgbEstimator::LwXgbEstimator(const Database& db,
                               const std::vector<TrainingQuery>& training,
                               GbdtOptions options)
    : CardinalityEstimator(db), featurizer_(db), gbdt_(options) {
  CARDBENCH_CHECK(!training.empty(), "LW-XGB requires training queries");
  Stopwatch watch;
  std::vector<std::vector<double>> features;
  std::vector<double> targets;
  FeaturizeTraining(featurizer_, db, training, &features, &targets);
  gbdt_.Fit(features, targets);
  train_seconds_ = watch.ElapsedSeconds();
}

Status LwXgbEstimator::UpdateImpl(const InsertionBatch& batch) {
  if (batch.refresh_training == nullptr || batch.refresh_training->empty()) {
    return Status::Unsupported(
        "LW-XGB: refreshing needs re-labeled training queries "
        "(batch.refresh_training)");
  }
  Stopwatch watch;
  std::vector<std::vector<double>> features;
  std::vector<double> targets;
  FeaturizeTraining(featurizer_, *database(), *batch.refresh_training,
                    &features, &targets);
  const size_t extra =
      std::max<size_t>(1, gbdt_.options().num_trees / 10);
  gbdt_.BoostMore(features, targets, extra);
  train_seconds_ += watch.ElapsedSeconds();
  return Status::OK();
}

std::vector<double> LwXgbEstimator::EstimateCards(
    const QueryGraph& graph, std::span<const uint64_t> masks) const {
  const FlatFeaturePlan plan(featurizer_, graph);
  std::vector<std::vector<double>> rows(
      masks.size(), std::vector<double>(plan.dim(), 0.0));
  for (size_t r = 0; r < masks.size(); ++r) {
    plan.FillRow(graph, masks[r], rows[r].data());
  }
  std::vector<double> out = gbdt_.PredictBatch(rows);
  for (double& v : out) v = CardOf(v);
  return out;
}

LwNnEstimator::LwNnEstimator(const Database& db, LwNnOptions options,
                             DeferredInit)
    : CardinalityEstimator(db), featurizer_(db), options_(options) {
  Rng rng(options_.seed);
  net_ = std::make_unique<Mlp>(
      std::vector<size_t>{featurizer_.flat_dim(), options_.hidden_units,
                          options_.hidden_units / 2, 1},
      rng);
}

Status LwNnEstimator::Serialize(std::ostream& out) const {
  ModelWriter writer("lwnn");
  SectionWriter& meta = writer.AddSection("meta");
  meta.PutU64(options_.hidden_units);
  meta.PutU64(options_.epochs);
  meta.PutU64(options_.batch_size);
  meta.PutDouble(options_.learning_rate);
  meta.PutU64(options_.seed);
  meta.PutDouble(train_seconds_);
  SectionWriter& params = writer.AddSection("params");
  net_->SerializeParams(params);
  return writer.WriteTo(out);
}

Result<std::unique_ptr<LwNnEstimator>> LwNnEstimator::Deserialize(
    const Database& db, std::istream& in) {
  CARDBENCH_ASSIGN_OR_RETURN(ModelReader reader, ModelReader::Open(in, "lwnn"));
  CARDBENCH_ASSIGN_OR_RETURN(SectionReader meta, reader.Section("meta"));
  LwNnOptions options;
  CARDBENCH_ASSIGN_OR_RETURN(options.hidden_units, meta.GetU64());
  CARDBENCH_ASSIGN_OR_RETURN(options.epochs, meta.GetU64());
  CARDBENCH_ASSIGN_OR_RETURN(options.batch_size, meta.GetU64());
  CARDBENCH_ASSIGN_OR_RETURN(options.learning_rate, meta.GetDouble());
  CARDBENCH_ASSIGN_OR_RETURN(options.seed, meta.GetU64());
  auto est = std::unique_ptr<LwNnEstimator>(
      new LwNnEstimator(db, options, DeferredInit()));
  CARDBENCH_ASSIGN_OR_RETURN(est->train_seconds_, meta.GetDouble());
  CARDBENCH_ASSIGN_OR_RETURN(SectionReader params, reader.Section("params"));
  CARDBENCH_RETURN_IF_ERROR(est->net_->LoadParams(params));
  return est;
}

Status LwXgbEstimator::Serialize(std::ostream& out) const {
  ModelWriter writer("lwxgb");
  SectionWriter& meta = writer.AddSection("meta");
  meta.PutDouble(train_seconds_);
  SectionWriter& params = writer.AddSection("params");
  gbdt_.SerializeParams(params);
  return writer.WriteTo(out);
}

Result<std::unique_ptr<LwXgbEstimator>> LwXgbEstimator::Deserialize(
    const Database& db, std::istream& in) {
  CARDBENCH_ASSIGN_OR_RETURN(ModelReader reader,
                             ModelReader::Open(in, "lwxgb"));
  auto est =
      std::unique_ptr<LwXgbEstimator>(new LwXgbEstimator(db, DeferredInit()));
  CARDBENCH_ASSIGN_OR_RETURN(SectionReader meta, reader.Section("meta"));
  CARDBENCH_ASSIGN_OR_RETURN(est->train_seconds_, meta.GetDouble());
  CARDBENCH_ASSIGN_OR_RETURN(SectionReader params, reader.Section("params"));
  CARDBENCH_RETURN_IF_ERROR(est->gbdt_.LoadParams(params));
  return est;
}

}  // namespace cardbench
