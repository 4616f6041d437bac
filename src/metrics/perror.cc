#include "metrics/perror.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace cardbench {

namespace {

/// Serves the precomputed true cardinalities by sub-plan bitmask; an
/// unknown mask dies instead of degrading into a silent estimate.
class TrueCardMapEstimator : public CardinalityEstimator {
 public:
  TrueCardMapEstimator(const QueryGraph& graph,
                       const std::unordered_map<uint64_t, double>& cards)
      : CardinalityEstimator(graph.db()), cards_(cards) {}

  std::string name() const override { return "truecard-map"; }

  double EstimateCard(const QueryGraph& graph, uint64_t mask) const override {
    auto it = cards_.find(mask);
    CARDBENCH_CHECK(it != cards_.end(),
                    "no true cardinality for sub-plan mask %llu",
                    static_cast<unsigned long long>(mask));
    return it->second;
  }

 private:
  const std::unordered_map<uint64_t, double>& cards_;
};

}  // namespace

PErrorCalculator::PErrorCalculator(
    const Optimizer& optimizer, const QueryGraph& graph,
    std::unordered_map<uint64_t, double> true_cards)
    : optimizer_(optimizer), graph_(graph), true_cards_(std::move(true_cards)) {
  TrueCardMapEstimator oracle(graph_, true_cards_);
  auto plan = optimizer_.Plan(graph_, oracle);
  CARDBENCH_CHECK(plan.ok(), "true-card planning failed: %s",
                  plan.status().ToString().c_str());
  true_plan_cost_ = optimizer_.RecostWithCards(*plan->plan, true_cards_);
}

Result<double> PErrorCalculator::Evaluate(
    const CardinalityEstimator& estimator) const {
  CARDBENCH_ASSIGN_OR_RETURN(PlanResult plan,
                             optimizer_.Plan(graph_, estimator));
  return EvaluatePlan(*plan.plan);
}

double PErrorCalculator::EvaluatePlan(const PlanNode& plan) const {
  // Not clamped at 1: the paper notes PPC(P(C^T), C^T) need not be the true
  // minimum when the cost model is imperfect; relative comparison remains
  // valid either way (§7.2).
  const double cost = optimizer_.RecostWithCards(plan, true_cards_);
  return true_plan_cost_ > 0 ? cost / true_plan_cost_ : 1.0;
}

}  // namespace cardbench
