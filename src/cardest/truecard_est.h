#ifndef CARDBENCH_CARDEST_TRUECARD_EST_H_
#define CARDBENCH_CARDEST_TRUECARD_EST_H_

#include <string>
#include <unordered_map>

#include "cardest/estimator.h"
#include "exec/true_card.h"

namespace cardbench {

/// The TrueCard oracle baseline (§4.3): answers every sub-plan query with
/// its exact cardinality. With an accurate cost model this produces the
/// optimal plan; the paper uses it as the gold standard.
class TrueCardEstimator : public CardinalityEstimator {
 public:
  explicit TrueCardEstimator(TrueCardService& service)
      : CardinalityEstimator(service.db()), service_(service) {}

  std::string name() const override { return "TrueCard"; }

  using CardinalityEstimator::EstimateCard;
  double EstimateCard(const QueryGraph& graph, uint64_t mask) const override {
    auto card = service_.Card(graph, mask);
    // Sub-plans whose exact count exceeded execution limits fall back to 1;
    // the harness precomputes all workload sub-plans so this is unreachable
    // in the benches.
    return card.ok() ? *card : 1.0;
  }

 private:
  TrueCardService& service_;
};

/// Injects a fixed set of cardinalities (keyed by canonical sub-plan query
/// key) and delegates the rest to a fallback estimator. This mirrors the
/// paper's injection experiments, e.g. §7.1's "replace the root estimate
/// with a 7x overestimation" case study.
class InjectedCardEstimator : public CardinalityEstimator {
 public:
  InjectedCardEstimator(CardinalityEstimator& fallback,
                        std::unordered_map<std::string, double> overrides)
      : CardinalityEstimator(fallback.database()),
        fallback_(fallback),
        overrides_(std::move(overrides)) {}

  std::string name() const override {
    return fallback_.name() + "+injected";
  }

  using CardinalityEstimator::EstimateCard;
  double EstimateCard(const QueryGraph& graph, uint64_t mask) const override {
    auto it = overrides_.find(graph.CanonicalKey(mask));
    if (it != overrides_.end()) return it->second;
    return fallback_.EstimateCard(graph, mask);
  }

 private:
  CardinalityEstimator& fallback_;
  std::unordered_map<std::string, double> overrides_;
};

}  // namespace cardbench

#endif  // CARDBENCH_CARDEST_TRUECARD_EST_H_
