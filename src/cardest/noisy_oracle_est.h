#ifndef CARDBENCH_CARDEST_NOISY_ORACLE_EST_H_
#define CARDBENCH_CARDEST_NOISY_ORACLE_EST_H_

#include <cmath>
#include <string>

#include "cardest/estimator.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "exec/true_card.h"

namespace cardbench {

/// Sensitivity probe: the exact cardinalities perturbed by log-normal
/// multiplicative noise of a controlled magnitude. Sweeping `sigma` answers
/// the question underlying the paper's O5/O11 analysis — how much
/// estimation error can the optimizer absorb before plans degrade — and
/// grounds the P-Error metric: plans should degrade smoothly in sigma,
/// and P-Error should track that degradation while Q-Error (which grows
/// mechanically with sigma) cannot distinguish harmless from harmful
/// errors.
///
/// Noise is deterministic per sub-plan: the same sub-plan query always
/// receives the same perturbation (a hash of its canonical key seeds the
/// draw), so the optimizer sees a consistent, reproducible "estimator".
class NoisyOracleEstimator : public CardinalityEstimator {
 public:
  /// `sigma` is the standard deviation of the log2-scale noise: sigma = 1
  /// means estimates are typically off by ~2x, sigma = 3 by ~8x.
  NoisyOracleEstimator(TrueCardService& service, double sigma,
                       uint64_t seed = 77)
      : CardinalityEstimator(service.db()),
        service_(service),
        sigma_(sigma),
        seed_(seed) {}

  std::string name() const override {
    return StrFormat("NoisyOracle(%.1f)", sigma_);
  }

  using CardinalityEstimator::EstimateCard;
  double EstimateCard(const QueryGraph& graph, uint64_t mask) const override {
    auto card = service_.Card(graph, mask);
    if (!card.ok()) return 1.0;
    // Deterministic per-sub-plan draw.
    Rng rng(seed_ ^ Fnv1aHash(graph.CanonicalKey(mask)));
    const double noise = std::exp2(sigma_ * rng.NextGaussian());
    return std::max(1.0, *card * noise);
  }

 private:
  TrueCardService& service_;
  double sigma_;
  uint64_t seed_;
};

}  // namespace cardbench

#endif  // CARDBENCH_CARDEST_NOISY_ORACLE_EST_H_
