#ifndef CARDBENCH_CARDEST_MODEL_STORE_H_
#define CARDBENCH_CARDEST_MODEL_STORE_H_

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "cardest/estimator.h"
#include "cardest/query_features.h"
#include "storage/catalog.h"

namespace cardbench {

struct EstimatorConfig;

/// Outcome of one ModelStore::BuildOrLoad call, for Figure-3 style
/// train-vs-load reporting and for tests asserting cache behavior.
struct ModelStoreStats {
  /// True when the estimator came from an on-disk artifact (no training).
  bool loaded = false;
  /// True when an artifact existed but failed validation and the estimator
  /// was retrained (and the artifact rewritten).
  bool rebuilt_after_corruption = false;
  double load_seconds = 0.0;
  double build_seconds = 0.0;
  /// Artifact path for this key (whether or not it existed).
  std::string path;
};

/// Content-addressed store of serialized estimator artifacts. Artifacts are
/// keyed by (estimator name, dataset fingerprint, config, and — for
/// query-driven methods — training-workload fingerprint), so a store
/// directory can safely be shared across datasets and configurations:
/// a key only ever resolves to a model trained under identical inputs.
///
/// Persistence is atomic (temp file + rename), so a crashed or concurrent
/// writer can never leave a half-written artifact under a live key; a
/// corrupted artifact (validated by the CBMD checksums on load) falls back
/// to retraining and is rewritten in place.
class ModelStore {
 public:
  /// `dir` is created on first persist if it does not exist.
  explicit ModelStore(std::string dir);

  const std::string& dir() const { return dir_; }

  using Builder =
      std::function<Result<std::unique_ptr<CardinalityEstimator>>()>;
  using Loader = std::function<Result<std::unique_ptr<CardinalityEstimator>>(
      std::istream&)>;

  /// Returns the artifact for `key` if present and intact (via `loader`);
  /// otherwise invokes `builder`, persists its result and returns it.
  /// Builders whose estimator does not support serialization (TrueCard)
  /// still work — the model is simply never persisted.
  Result<std::unique_ptr<CardinalityEstimator>> BuildOrLoad(
      const std::string& key, const Builder& builder, const Loader& loader,
      ModelStoreStats* stats = nullptr);

  /// Artifact path for a key: <dir>/<key>.cbm.
  std::string PathFor(const std::string& key) const;

  /// FNV-1a over schema and data: table names, row counts, column
  /// names/kinds, and strided value samples. Any dataset edit (scale,
  /// insert, different benchmark) changes the fingerprint.
  static uint64_t DatasetFingerprint(const Database& db);

  /// FNV-1a over the canonical keys and labels of a training workload, so
  /// query-driven models are keyed to what they were trained on.
  static uint64_t WorkloadFingerprint(
      const std::vector<TrainingQuery>& training);

  /// Builds the store key for an estimator instance. `workload_fp` is 0 for
  /// data-driven methods.
  static std::string MakeKey(const std::string& estimator,
                             uint64_t dataset_fingerprint,
                             const EstimatorConfig& config,
                             uint64_t workload_fingerprint = 0);

 private:
  std::string dir_;
};

}  // namespace cardbench

#endif  // CARDBENCH_CARDEST_MODEL_STORE_H_
