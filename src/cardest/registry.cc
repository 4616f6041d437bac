#include "cardest/registry.h"

#include <istream>
#include <optional>

#include "cardest/autoregressive_est.h"
#include "cardest/fanout_estimator.h"
#include "cardest/lw_est.h"
#include "cardest/model_store.h"
#include "cardest/mscn_est.h"
#include "cardest/multihist_est.h"
#include "cardest/postgres_est.h"
#include "cardest/sampling_est.h"
#include "cardest/truecard_est.h"

namespace cardbench {

namespace {

/// Upcasts a typed Deserialize result to the base-class Result.
template <typename T>
Result<std::unique_ptr<CardinalityEstimator>> AsBase(
    Result<std::unique_ptr<T>> result) {
  CARDBENCH_RETURN_IF_ERROR(result.status());
  return std::unique_ptr<CardinalityEstimator>(std::move(result).value());
}

}  // namespace

const std::vector<std::string>& AllEstimatorNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "PostgreSQL", "TrueCard",  "MultiHist", "UniSample", "WJSample",
      "PessEst",    "MSCN",      "LW-XGB",    "LW-NN",     "UAE-Q",
      "NeuroCardE", "BayesCard", "DeepDB",    "FLAT",      "UAE",
  };
  return *names;
}

bool EstimatorNeedsTraining(const std::string& name) {
  return name == "MSCN" || name == "LW-NN" || name == "LW-XGB" ||
         name == "UAE-Q" || name == "UAE";
}

/// The training/construction paths, shared by the direct and store-backed
/// entry points.
static Result<std::unique_ptr<CardinalityEstimator>> BuildEstimator(
    const std::string& name, const Database& db, TrueCardService& truecard,
    const std::vector<TrainingQuery>* training,
    const EstimatorConfig& config) {
  auto require_training = [&]() -> Status {
    if (training == nullptr || training->empty()) {
      return Status::InvalidArgument(name + " needs a training workload");
    }
    return Status::OK();
  };

  if (name == "TrueCard") {
    return std::unique_ptr<CardinalityEstimator>(
        new TrueCardEstimator(truecard));
  }
  if (name == "PostgreSQL") {
    return std::unique_ptr<CardinalityEstimator>(new PostgresEstimator(db));
  }
  if (name == "MultiHist") {
    return std::unique_ptr<CardinalityEstimator>(new MultiHistEstimator(db));
  }
  if (name == "UniSample") {
    return std::unique_ptr<CardinalityEstimator>(
        new UniSampleEstimator(db, config.fast ? 1000 : 10000));
  }
  if (name == "WJSample") {
    return std::unique_ptr<CardinalityEstimator>(
        new WjSampleEstimator(db, config.fast ? 100 : 600));
  }
  if (name == "PessEst") {
    return std::unique_ptr<CardinalityEstimator>(new PessEstEstimator(db));
  }
  if (name == "MSCN") {
    CARDBENCH_RETURN_IF_ERROR(require_training());
    MscnOptions options;
    if (config.fast) options.epochs = 3;
    return std::unique_ptr<CardinalityEstimator>(
        new MscnEstimator(db, *training, options));
  }
  if (name == "LW-NN") {
    CARDBENCH_RETURN_IF_ERROR(require_training());
    LwNnOptions options;
    if (config.fast) options.epochs = 5;
    return std::unique_ptr<CardinalityEstimator>(
        new LwNnEstimator(db, *training, options));
  }
  if (name == "LW-XGB") {
    CARDBENCH_RETURN_IF_ERROR(require_training());
    GbdtOptions options;
    if (config.fast) options.num_trees = 20;
    return std::unique_ptr<CardinalityEstimator>(
        new LwXgbEstimator(db, *training, options));
  }
  if (const std::optional<FanoutModelKind> kind = FanoutKindNamed(name)) {
    return std::unique_ptr<CardinalityEstimator>(
        new FanoutModelEstimator(db, *kind));
  }
  if (name == "NeuroCardE" || name == "UAE-Q" || name == "UAE") {
    ArOptions options;
    if (config.fast) {
      options.training_samples = 1500;
      options.epochs = 2;
      options.hidden_units = 48;
      options.progressive_samples = 64;
    }
    ArTraining mode = ArTraining::kData;
    if (name == "UAE-Q") mode = ArTraining::kQuery;
    if (name == "UAE") mode = ArTraining::kHybrid;
    if (mode != ArTraining::kData) {
      CARDBENCH_RETURN_IF_ERROR(require_training());
    }
    return std::unique_ptr<CardinalityEstimator>(
        new AutoregressiveEstimator(db, mode, training, options));
  }
  return Status::NotFound("unknown estimator: " + name);
}

Result<std::unique_ptr<CardinalityEstimator>> DeserializeEstimator(
    const std::string& name, const Database& db, std::istream& in) {
  Result<std::unique_ptr<CardinalityEstimator>> result =
      Status::Unsupported(name + " does not support serialization");
  if (name == "PostgreSQL") {
    result = AsBase(PostgresEstimator::Deserialize(db, in));
  } else if (name == "MultiHist") {
    result = AsBase(MultiHistEstimator::Deserialize(db, in));
  } else if (name == "UniSample") {
    result = AsBase(UniSampleEstimator::Deserialize(db, in));
  } else if (name == "WJSample") {
    result = AsBase(WjSampleEstimator::Deserialize(db, in));
  } else if (name == "PessEst") {
    result = AsBase(PessEstEstimator::Deserialize(db, in));
  } else if (name == "MSCN") {
    result = AsBase(MscnEstimator::Deserialize(db, in));
  } else if (name == "LW-NN") {
    result = AsBase(LwNnEstimator::Deserialize(db, in));
  } else if (name == "LW-XGB") {
    result = AsBase(LwXgbEstimator::Deserialize(db, in));
  } else if (const std::optional<FanoutModelKind> kind =
                 FanoutKindNamed(name)) {
    result = AsBase(FanoutModelEstimator::Deserialize(db, *kind, in));
  } else if (name == "NeuroCardE" || name == "UAE-Q" || name == "UAE") {
    result = AsBase(AutoregressiveEstimator::Deserialize(db, in));
  } else if (name != "TrueCard") {
    return Status::NotFound("unknown estimator: " + name);
  }
  CARDBENCH_RETURN_IF_ERROR(result.status());
  // The AR family shares one tag; a UAE artifact must not serve NeuroCardE.
  if ((*result)->name() != name) {
    return Status::InvalidArgument("artifact holds " + (*result)->name() +
                                   ", expected " + name);
  }
  return result;
}

Result<std::unique_ptr<CardinalityEstimator>> MakeEstimator(
    const std::string& name, const Database& db, TrueCardService& truecard,
    const std::vector<TrainingQuery>* training, const EstimatorConfig& config,
    ModelStore* store, ModelStoreStats* stats) {
  if (store == nullptr || name == "TrueCard") {
    return BuildEstimator(name, db, truecard, training, config);
  }
  const uint64_t dataset_fp = ModelStore::DatasetFingerprint(db);
  const uint64_t workload_fp =
      EstimatorNeedsTraining(name) && training != nullptr
          ? ModelStore::WorkloadFingerprint(*training)
          : 0;
  const std::string key =
      ModelStore::MakeKey(name, dataset_fp, config, workload_fp);
  return store->BuildOrLoad(
      key,
      [&] { return BuildEstimator(name, db, truecard, training, config); },
      [&](std::istream& in) { return DeserializeEstimator(name, db, in); },
      stats);
}

}  // namespace cardbench
