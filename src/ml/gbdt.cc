#include "ml/gbdt.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/serde.h"

namespace cardbench {

int GbdtRegressor::BuildNode(Tree& tree,
                             const std::vector<std::vector<double>>& features,
                             const std::vector<double>& residuals,
                             std::vector<size_t>& items, size_t begin,
                             size_t end, size_t depth) {
  const size_t n = end - begin;
  double sum = 0.0;
  for (size_t i = begin; i < end; ++i) sum += residuals[items[i]];

  const int node_id = static_cast<int>(tree.size());
  tree.push_back(Node{});
  // L2-regularized leaf value (XGBoost: G / (H + lambda) with H = n for
  // squared error).
  tree[static_cast<size_t>(node_id)].value =
      sum / (static_cast<double>(n) + options_.l2_lambda);

  if (depth >= options_.max_depth || n < 2 * options_.min_samples_per_leaf) {
    return node_id;
  }

  // Exact greedy split search: maximize variance reduction (equivalently
  // the regularized gain).
  const size_t num_features = features[items[begin]].size();
  double best_gain = 1e-9;
  int best_feature = -1;
  double best_threshold = 0.0;
  std::vector<std::pair<double, size_t>> sorted(n);
  std::vector<std::pair<double, size_t>> best_sorted;

  for (size_t f = 0; f < num_features; ++f) {
    for (size_t i = 0; i < n; ++i) {
      const size_t item = items[begin + i];
      sorted[i] = {features[item][f], item};
    }
    std::sort(sorted.begin(), sorted.end());
    double left_sum = 0.0;
    for (size_t i = 0; i + 1 < n; ++i) {
      left_sum += residuals[sorted[i].second];
      if (sorted[i].first == sorted[i + 1].first) continue;  // tied values
      const size_t left_n = i + 1;
      const size_t right_n = n - left_n;
      if (left_n < options_.min_samples_per_leaf ||
          right_n < options_.min_samples_per_leaf) {
        continue;
      }
      const double right_sum = sum - left_sum;
      const double gain =
          left_sum * left_sum / (static_cast<double>(left_n) + options_.l2_lambda) +
          right_sum * right_sum /
              (static_cast<double>(right_n) + options_.l2_lambda) -
          sum * sum / (static_cast<double>(n) + options_.l2_lambda);
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(f);
        best_threshold = (sorted[i].first + sorted[i + 1].first) / 2.0;
        best_sorted = sorted;
      }
    }
  }
  if (best_feature < 0) return node_id;

  // Partition items by the winning split (stable via the sorted order).
  size_t mid = begin;
  {
    std::vector<size_t> left_items, right_items;
    for (const auto& [value, item] : best_sorted) {
      (value <= best_threshold ? left_items : right_items).push_back(item);
    }
    std::copy(left_items.begin(), left_items.end(),
              items.begin() + static_cast<long>(begin));
    std::copy(right_items.begin(), right_items.end(),
              items.begin() + static_cast<long>(begin + left_items.size()));
    mid = begin + left_items.size();
  }

  tree[static_cast<size_t>(node_id)].feature = best_feature;
  tree[static_cast<size_t>(node_id)].threshold = best_threshold;
  const int left = BuildNode(tree, features, residuals, items, begin, mid,
                             depth + 1);
  const int right = BuildNode(tree, features, residuals, items, mid, end,
                              depth + 1);
  tree[static_cast<size_t>(node_id)].left = left;
  tree[static_cast<size_t>(node_id)].right = right;
  return node_id;
}

void GbdtRegressor::Fit(const std::vector<std::vector<double>>& features,
                        const std::vector<double>& targets) {
  CARDBENCH_CHECK(features.size() == targets.size() && !features.empty(),
                  "bad GBDT training data");
  trees_.clear();
  double sum = 0.0;
  for (double t : targets) sum += t;
  base_prediction_ = sum / static_cast<double>(targets.size());

  std::vector<double> predictions(targets.size(), base_prediction_);
  BoostRounds(features, targets, predictions, options_.num_trees);
}

void GbdtRegressor::BoostMore(const std::vector<std::vector<double>>& features,
                              const std::vector<double>& targets,
                              size_t extra_trees) {
  CARDBENCH_CHECK(features.size() == targets.size() && !features.empty(),
                  "bad GBDT training data");
  if (trees_.empty()) {
    // Unfitted model: no ensemble to continue, so this is a plain fit with
    // `extra_trees` rounds (the base prediction must come from the data).
    double sum = 0.0;
    for (double t : targets) sum += t;
    base_prediction_ = sum / static_cast<double>(targets.size());
  }
  std::vector<double> predictions = PredictBatch(features);
  BoostRounds(features, targets, predictions, extra_trees);
}

void GbdtRegressor::BoostRounds(
    const std::vector<std::vector<double>>& features,
    const std::vector<double>& targets, std::vector<double>& predictions,
    size_t rounds) {
  std::vector<double> residuals(targets.size());
  std::vector<size_t> items(targets.size());
  for (size_t t = 0; t < rounds; ++t) {
    for (size_t i = 0; i < targets.size(); ++i) {
      residuals[i] = targets[i] - predictions[i];
      items[i] = i;
    }
    Tree tree;
    BuildNode(tree, features, residuals, items, 0, items.size(), 0);
    for (size_t i = 0; i < targets.size(); ++i) {
      // Evaluate the freshly built tree.
      int node = 0;
      while (tree[static_cast<size_t>(node)].feature >= 0) {
        const Node& nd = tree[static_cast<size_t>(node)];
        node = features[i][static_cast<size_t>(nd.feature)] <= nd.threshold
                   ? nd.left
                   : nd.right;
      }
      predictions[i] +=
          options_.learning_rate * tree[static_cast<size_t>(node)].value;
    }
    trees_.push_back(std::move(tree));
  }
}

std::vector<double> GbdtRegressor::PredictBatch(
    const std::vector<std::vector<double>>& rows) const {
  std::vector<double> out(rows.size(), base_prediction_);
  for (const auto& tree : trees_) {
    for (size_t r = 0; r < rows.size(); ++r) {
      const std::vector<double>& features = rows[r];
      int node = 0;
      while (tree[static_cast<size_t>(node)].feature >= 0) {
        const Node& nd = tree[static_cast<size_t>(node)];
        node = features[static_cast<size_t>(nd.feature)] <= nd.threshold
                   ? nd.left
                   : nd.right;
      }
      out[r] += options_.learning_rate * tree[static_cast<size_t>(node)].value;
    }
  }
  return out;
}

void GbdtRegressor::SerializeParams(SectionWriter& out) const {
  out.PutDouble(base_prediction_);
  out.PutDouble(options_.learning_rate);
  out.PutU64(trees_.size());
  for (const Tree& tree : trees_) {
    out.PutU64(tree.size());
    for (const Node& node : tree) {
      out.PutI64(node.feature);
      out.PutDouble(node.threshold);
      out.PutDouble(node.value);
      out.PutI64(node.left);
      out.PutI64(node.right);
    }
  }
}

Status GbdtRegressor::LoadParams(SectionReader& in) {
  CARDBENCH_ASSIGN_OR_RETURN(base_prediction_, in.GetDouble());
  // Predict scales each tree by the learning rate, so the rate is part of
  // the fitted model, not just a training knob.
  CARDBENCH_ASSIGN_OR_RETURN(options_.learning_rate, in.GetDouble());
  CARDBENCH_ASSIGN_OR_RETURN(uint64_t num_trees, in.GetU64());
  trees_.clear();
  trees_.reserve(num_trees);
  for (uint64_t t = 0; t < num_trees; ++t) {
    CARDBENCH_ASSIGN_OR_RETURN(uint64_t num_nodes, in.GetU64());
    Tree tree(num_nodes);
    for (Node& node : tree) {
      CARDBENCH_ASSIGN_OR_RETURN(int64_t feature, in.GetI64());
      node.feature = static_cast<int>(feature);
      CARDBENCH_ASSIGN_OR_RETURN(node.threshold, in.GetDouble());
      CARDBENCH_ASSIGN_OR_RETURN(node.value, in.GetDouble());
      CARDBENCH_ASSIGN_OR_RETURN(int64_t left, in.GetI64());
      CARDBENCH_ASSIGN_OR_RETURN(int64_t right, in.GetI64());
      node.left = static_cast<int>(left);
      node.right = static_cast<int>(right);
      if (node.feature >= 0 &&
          (node.left < 0 || node.right < 0 ||
           static_cast<size_t>(node.left) >= num_nodes ||
           static_cast<size_t>(node.right) >= num_nodes)) {
        return Status::InvalidArgument("gbdt tree child index out of range");
      }
    }
    trees_.push_back(std::move(tree));
  }
  return Status::OK();
}

}  // namespace cardbench
