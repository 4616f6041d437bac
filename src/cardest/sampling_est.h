#ifndef CARDBENCH_CARDEST_SAMPLING_EST_H_
#define CARDBENCH_CARDEST_SAMPLING_EST_H_

#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cardest/estimator.h"
#include "common/rng.h"
#include "storage/catalog.h"

namespace cardbench {

/// UniSample (§4.1 method 3): per-table uniform row samples estimate the
/// filter selectivities; joins fall back to the join-uniformity assumption
/// (1/max(ndv) per edge), the combination used by MySQL/MariaDB-style
/// sampling estimators. Its error explodes with the number of joined
/// tables — the behaviour Table 3 shows.
class UniSampleEstimator : public CardinalityEstimator {
 public:
  UniSampleEstimator(const Database& db, size_t sample_size = 10000,
                     uint64_t seed = 101);

  std::string name() const override { return "UniSample"; }
  using CardinalityEstimator::EstimateCard;
  double EstimateCard(const QueryGraph& graph, uint64_t mask) const override {
    return EstimateCards(graph, {&mask, 1})[0];
  }
  /// Samples looked up by table id, filters evaluated through the graph's
  /// pre-bound compiled predicates. Each table's sample probe (rows x
  /// selectivity) and each edge's uniformity selectivity are materialized
  /// once per call and multiplied into every mask that holds them.
  std::vector<double> EstimateCards(
      const QueryGraph& graph,
      std::span<const uint64_t> masks) const override;

  /// The "model" is the drawn row-id sample; persisting it keeps the
  /// deployed estimator's draws (and estimates) identical to training.
  Status Serialize(std::ostream& out) const override;
  static Result<std::unique_ptr<UniSampleEstimator>> Deserialize(
      const Database& db, std::istream& in);

 private:
  /// A full refresh resamples (cheap: sampling is the whole model). A delta
  /// re-reservoirs: each existing draw survives with probability
  /// old_rows/new_rows, otherwise it is redrawn from the inserted range —
  /// the resulting sample is iid uniform over the grown table, the same
  /// distribution a full Resample draws, at cost proportional to the
  /// insertion fraction (geometric skips, no per-slot coin flip).
  Status UpdateImpl(const InsertionBatch& batch) override;

  struct DeferredInit {};
  /// Load path: constructs without sampling; state injected by Deserialize.
  UniSampleEstimator(const Database& db, DeferredInit)
      : CardinalityEstimator(db), db_(db), sample_size_(0), seed_(0),
        rng_(0) {}

  void Resample();

  const Database& db_;
  size_t sample_size_;
  uint64_t seed_;
  Rng rng_;
  std::map<std::string, std::vector<uint32_t>> samples_;
  /// samples_ entries indexed by global table id (database table order);
  /// rebuilt by Resample.
  std::vector<const std::vector<uint32_t>*> samples_by_id_;
};

/// WJSample (§4.1 method 4): wander join — random walks along the query's
/// join tree through key indexes, each walk contributing the product of the
/// branch counts it traversed (Horvitz–Thompson). Zero successful walks
/// yield an estimate of 0 (clamped by the optimizer), the failure mode that
/// hurts it on large joins with selective predicates.
class WjSampleEstimator : public CardinalityEstimator {
 public:
  WjSampleEstimator(const Database& db, size_t num_walks = 600,
                    uint64_t seed = 202);

  std::string name() const override { return "WJSample"; }
  using CardinalityEstimator::EstimateCard;
  /// Walk randomness is derived from a hash of the sub-plan's canonical
  /// key (never from shared generator state), so the estimate for a given
  /// sub-plan is deterministic and concurrent calls never interleave draws.
  double EstimateCard(const QueryGraph& graph, uint64_t mask) const override;

  /// Wander join has no trained state beyond its configuration: walks are
  /// re-drawn per sub-plan from (seed, canonical key), so persisting the
  /// two knobs reproduces every estimate exactly.
  Status Serialize(std::ostream& out) const override;
  static Result<std::unique_ptr<WjSampleEstimator>> Deserialize(
      const Database& db, std::istream& in);

 private:
  const Database& db_;
  size_t num_walks_;
  uint64_t seed_;
};

/// PessEst (§4.1 method 5, Cai et al.): pessimistic bound estimation —
/// exact filtered base cardinalities combined with per-edge maximum join
/// degrees give an upper bound on the join cardinality; the tightest bound
/// over all root choices is returned. Never underestimates, which avoids
/// the catastrophic nested-loop plans underestimation causes.
class PessEstEstimator : public CardinalityEstimator {
 public:
  explicit PessEstEstimator(const Database& db);

  std::string name() const override { return "PessEst"; }
  using CardinalityEstimator::EstimateCard;
  double EstimateCard(const QueryGraph& graph, uint64_t mask) const override {
    return EstimateCards(graph, {&mask, 1})[0];
  }
  /// The exact filtered base cardinality of every table in the batch (the
  /// expensive full-table predicate count, mask-independent) is computed
  /// once per call; each mask then runs the bound search over it.
  std::vector<double> EstimateCards(
      const QueryGraph& graph,
      std::span<const uint64_t> masks) const override;

  /// Persists per-join-column degree sketches (max degree + the full degree
  /// histogram over distinct key values), computed eagerly over the schema's
  /// join columns. ModelBytes therefore reports real sketch storage that
  /// grows with data scale, and a deserialized estimator answers bounds
  /// without re-scanning any index.
  Status Serialize(std::ostream& out) const override;
  static Result<std::unique_ptr<PessEstEstimator>> Deserialize(
      const Database& db, std::istream& in);

 private:
  /// Refreshes the degree sketches, whatever the batch.
  Status UpdateImpl(const InsertionBatch& batch) override;

  struct DeferredInit {};
  /// Load path: table ids are schema-derived; the degree memo is injected
  /// by Deserialize instead of being scanned lazily.
  PessEstEstimator(const Database& db, DeferredInit);

  void BuildDegreeSketches();
  double MaxDegreeOf(int table_id, int column_id, const Table& table) const;
  /// The bound search of one mask over precomputed filtered base
  /// cardinalities (indexed by local table id).
  double BoundWithBase(const QueryGraph& graph, uint64_t mask,
                       const std::vector<double>& base) const;

  const Database& db_;
  // (table_id << 32 | column_id) -> maximum join degree of any key value.
  // A lazily filled memo, synchronized so concurrent EstimateCard calls can
  // share it; keyed on ids (no heap string keys).
  mutable std::mutex degree_mu_;
  mutable std::unordered_map<uint64_t, double> max_degree_;
};

}  // namespace cardbench

#endif  // CARDBENCH_CARDEST_SAMPLING_EST_H_
