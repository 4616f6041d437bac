#include "cardest/spn_model.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>

#include "common/arena.h"
#include "common/logging.h"
#include "common/serde.h"
#include "common/str_util.h"
#include "ml/clustering.h"

namespace cardbench {

namespace {
constexpr double kLeafSmoothing = 0.05;
}  // namespace

SpnModel::SpnModel(const ExtendedTable& ext, const SpnOptions& options,
                   bool multi_leaf)
    : options_(options),
      multi_leaf_(multi_leaf),
      num_cols_(ext.num_columns()) {
  Rng rng(options_.seed);
  std::vector<size_t> rows(ext.num_rows());
  for (size_t r = 0; r < rows.size(); ++r) rows[r] = r;
  std::vector<size_t> cols(num_cols_);
  for (size_t c = 0; c < cols.size(); ++c) cols[c] = c;
  if (ext.num_rows() == 0) {
    // Degenerate empty table: a single uniform leaf.
    root_ = MakeLeaf(ext, rows, 0, 0, 0);
  } else {
    root_ = Learn(ext, rows, 0, rows.size(), std::move(cols), rng, 0);
  }
  RebuildDerived();
}

size_t SpnModel::MakeLeaf(const ExtendedTable& ext,
                          const std::vector<size_t>& rows, size_t begin,
                          size_t end, size_t col) {
  Node leaf;
  leaf.type = Node::Type::kLeaf;
  leaf.cols = {col};
  leaf.histogram.assign(ext.column(col).binner->num_bins(), 0.0);
  for (size_t i = begin; i < end; ++i) {
    leaf.histogram[ext.column(col).bins[rows[i]]] += 1.0;
  }
  leaf.total = static_cast<double>(end - begin);
  nodes_.push_back(std::move(leaf));
  return nodes_.size() - 1;
}

size_t SpnModel::MakeMultiLeaf(const ExtendedTable& ext,
                               const std::vector<size_t>& rows, size_t begin,
                               size_t end, std::vector<size_t> cols) {
  Node leaf;
  leaf.type = Node::Type::kMultiLeaf;
  leaf.cols = std::move(cols);
  // Every row's key, then the rows in key order (an LSD radix sort: one
  // stable counting pass per column, last column first), so equal keys
  // form runs: one flat entry per run, with the run length as its count.
  const size_t n = end - begin;
  const size_t width = leaf.cols.size();
  std::vector<uint16_t> keys(n * width);
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < width; ++k) {
      keys[i * width + k] = ext.column(leaf.cols[k]).bins[rows[begin + i]];
    }
  }
  const auto key_of = [&](size_t i) { return keys.data() + i * width; };
  std::vector<size_t> order(n), sorted(n);
  std::iota(order.begin(), order.end(), size_t{0});
  for (size_t k = width; k-- > 0;) {
    std::vector<size_t> next(ext.column(leaf.cols[k]).binner->num_bins() + 1);
    for (size_t i : order) ++next[key_of(i)[k] + 1];
    std::partial_sum(next.begin(), next.end(), next.begin());
    for (size_t i : order) sorted[next[key_of(i)[k]]++] = i;
    order.swap(sorted);
  }
  for (size_t i : order) {
    const uint16_t* key = key_of(i);
    if (!leaf.joint_counts.empty() &&
        std::equal(key, key + width, leaf.joint_keys.end() - width)) {
      leaf.joint_counts.back() += 1.0;
    } else {
      leaf.joint_keys.insert(leaf.joint_keys.end(), key, key + width);
      leaf.joint_counts.push_back(1.0);
    }
  }
  leaf.total = static_cast<double>(end - begin);
  nodes_.push_back(std::move(leaf));
  return nodes_.size() - 1;
}

size_t SpnModel::Learn(const ExtendedTable& ext, std::vector<size_t>& rows,
                       size_t begin, size_t end, std::vector<size_t> cols,
                       Rng& rng, size_t depth) {
  const size_t n = end - begin;
  const size_t min_slice = std::max(
      options_.min_slice_rows,
      static_cast<size_t>(options_.min_slice_fraction *
                          static_cast<double>(ext.num_rows())));

  if (cols.size() == 1) return MakeLeaf(ext, rows, begin, end, cols[0]);

  // Too small to split further: assume independence (naive factorization).
  auto naive_product = [&]() {
    Node product;
    product.type = Node::Type::kProduct;
    std::vector<size_t> children;
    for (size_t col : cols) children.push_back(MakeLeaf(ext, rows, begin, end, col));
    product.children = std::move(children);
    nodes_.push_back(std::move(product));
    return nodes_.size() - 1;
  };
  if (n < 2 * min_slice || depth > 24) return naive_product();

  // Pairwise dependence on a row subsample.
  const size_t sample_n = std::min(n, options_.dependence_sample);
  std::vector<std::vector<double>> feature(cols.size(),
                                           std::vector<double>(sample_n));
  const size_t stride = std::max<size_t>(1, n / sample_n);
  for (size_t c = 0; c < cols.size(); ++c) {
    for (size_t s = 0; s < sample_n; ++s) {
      feature[c][s] = static_cast<double>(
          ext.column(cols[c]).bins[rows[begin + s * stride]]);
    }
  }
  std::vector<std::vector<double>> dep(cols.size(),
                                       std::vector<double>(cols.size(), 0.0));
  for (size_t i = 0; i < cols.size(); ++i) {
    for (size_t j = i + 1; j < cols.size(); ++j) {
      dep[i][j] = dep[j][i] = DependenceScore(feature[i], feature[j]);
    }
  }

  // FSPN extension: carve out highly correlated groups as joint
  // multi-leaves (FLAT's factorize + multi-leaf, simplified).
  if (multi_leaf_) {
    std::vector<bool> taken(cols.size(), false);
    std::vector<std::vector<size_t>> groups;  // indexes into cols
    for (size_t i = 0; i < cols.size(); ++i) {
      if (taken[i]) continue;
      std::vector<size_t> group = {i};
      for (size_t j = i + 1;
           j < cols.size() && group.size() < options_.max_multi_leaf_cols;
           ++j) {
        if (taken[j]) continue;
        bool high_with_all = true;
        for (size_t g : group) {
          if (dep[g][j] < options_.high_correlation_threshold) {
            high_with_all = false;
            break;
          }
        }
        if (high_with_all) group.push_back(j);
      }
      if (group.size() >= 2) {
        for (size_t g : group) taken[g] = true;
        groups.push_back(std::move(group));
      }
    }
    if (!groups.empty()) {
      std::vector<size_t> children;
      for (const auto& group : groups) {
        std::vector<size_t> group_cols;
        for (size_t g : group) group_cols.push_back(cols[g]);
        children.push_back(
            MakeMultiLeaf(ext, rows, begin, end, std::move(group_cols)));
      }
      std::vector<size_t> rest;
      for (size_t i = 0; i < cols.size(); ++i) {
        if (!taken[i]) rest.push_back(cols[i]);
      }
      if (!rest.empty()) {
        if (rest.size() == 1) {
          children.push_back(MakeLeaf(ext, rows, begin, end, rest[0]));
        } else {
          children.push_back(
              Learn(ext, rows, begin, end, std::move(rest), rng, depth + 1));
        }
      }
      Node product;
      product.type = Node::Type::kProduct;
      product.children = std::move(children);
      nodes_.push_back(std::move(product));
      return nodes_.size() - 1;
    }
  }

  // Independence split: connected components under dep >= threshold.
  {
    std::vector<int> comp(cols.size(), -1);
    int num_comp = 0;
    for (size_t i = 0; i < cols.size(); ++i) {
      if (comp[i] >= 0) continue;
      comp[i] = num_comp;
      std::vector<size_t> stack = {i};
      while (!stack.empty()) {
        const size_t at = stack.back();
        stack.pop_back();
        for (size_t j = 0; j < cols.size(); ++j) {
          if (comp[j] < 0 && dep[at][j] >= options_.independence_threshold) {
            comp[j] = num_comp;
            stack.push_back(j);
          }
        }
      }
      ++num_comp;
    }
    if (num_comp > 1) {
      Node product;
      product.type = Node::Type::kProduct;
      std::vector<size_t> children;
      for (int g = 0; g < num_comp; ++g) {
        std::vector<size_t> group;
        for (size_t i = 0; i < cols.size(); ++i) {
          if (comp[i] == g) group.push_back(cols[i]);
        }
        if (group.size() == 1) {
          children.push_back(MakeLeaf(ext, rows, begin, end, group[0]));
        } else {
          children.push_back(
              Learn(ext, rows, begin, end, std::move(group), rng, depth + 1));
        }
      }
      product.children = std::move(children);
      nodes_.push_back(std::move(product));
      return nodes_.size() - 1;
    }
  }

  // Sum split: two-means row clustering.
  {
    std::vector<std::vector<double>> points(n,
                                            std::vector<double>(cols.size()));
    for (size_t i = 0; i < n; ++i) {
      for (size_t c = 0; c < cols.size(); ++c) {
        points[i][c] =
            static_cast<double>(ext.column(cols[c]).bins[rows[begin + i]]);
      }
    }
    const std::vector<int> labels = TwoMeans(points, rng);
    // Partition rows[begin,end) stably by label.
    std::vector<size_t> left, right;
    for (size_t i = 0; i < n; ++i) {
      (labels[i] == 0 ? left : right).push_back(rows[begin + i]);
    }
    if (left.empty() || right.empty()) return naive_product();
    std::copy(left.begin(), left.end(), rows.begin() + static_cast<long>(begin));
    std::copy(right.begin(), right.end(),
              rows.begin() + static_cast<long>(begin + left.size()));
    const size_t mid = begin + left.size();
    Node sum;
    sum.type = Node::Type::kSum;
    sum.weights = {static_cast<double>(left.size()),
                   static_cast<double>(right.size())};
    const size_t a = Learn(ext, rows, begin, mid, cols, rng, depth + 1);
    const size_t b = Learn(ext, rows, mid, end, cols, rng, depth + 1);
    sum.children = {a, b};
    nodes_.push_back(std::move(sum));
    return nodes_.size() - 1;
  }
}

void SpnModel::RebuildDerived() {
  // Children precede their parents (training appends them first, and the
  // loader rejects anything else), so one ascending pass sees each child's
  // scope and idle value before its parent needs them. With no factor at
  // all, every child of an evaluated node answers its idle value.
  const std::vector<const double*> none(num_cols_, nullptr);
  ArenaFrame frame(ThreadLocalArena());
  for (Node& nd : nodes_) {
    nd.scope = 0;
    for (size_t col : nd.cols) nd.scope |= ScopeBit(col);
    for (size_t child : nd.children) nd.scope |= nodes_[child].scope;
    nd.idle = EvalNode(nd, none.data(), 0);
  }
}

double SpnModel::EvalNode(const Node& nd, const double* const* factor_of_col,
                          uint64_t scope) const {
  switch (nd.type) {
    case Node::Type::kLeaf: {
      const double* factor = factor_of_col[nd.cols[0]];
      if (factor == nullptr) return 1.0;
      const double denom =
          nd.total + kLeafSmoothing * static_cast<double>(nd.histogram.size());
      if (denom <= 0) return 0.0;
      double total = 0.0;
      for (size_t b = 0; b < nd.histogram.size(); ++b) {
        total += (nd.histogram[b] + kLeafSmoothing) * factor[b];
      }
      return total / denom;
    }
    case Node::Type::kMultiLeaf: {
      // The (key offset, factor) pairs of the columns that carry a factor,
      // in column order.
      const size_t width = nd.cols.size();
      Arena& arena = ThreadLocalArena();
      size_t* offsets = arena.AllocateArray<size_t>(width);
      const double** factors = arena.AllocateArray<const double*>(width);
      size_t used = 0;
      for (size_t k = 0; k < width; ++k) {
        if (const double* factor = factor_of_col[nd.cols[k]]) {
          offsets[used] = k;
          factors[used] = factor;
          ++used;
        }
      }
      if (used == 0) return 1.0;
      if (nd.total <= 0) return 0.0;
      const uint16_t* key = nd.joint_keys.data();
      double total = 0.0;
      for (double count : nd.joint_counts) {
        double phi = 1.0;
        for (size_t i = 0; i < used; ++i) phi *= factors[i][key[offsets[i]]];
        total += count * phi;
        key += width;
      }
      return total / nd.total;
    }
    case Node::Type::kProduct: {
      double product = 1.0;
      for (size_t child : nd.children) {
        product *= Eval(child, factor_of_col, scope);
      }
      return product;
    }
    case Node::Type::kSum: {
      double total_weight = 0.0;
      for (double w : nd.weights) total_weight += w;
      if (total_weight <= 0) return 0.0;
      double total = 0.0;
      for (size_t i = 0; i < nd.children.size(); ++i) {
        total += nd.weights[i] * Eval(nd.children[i], factor_of_col, scope);
      }
      return total / total_weight;
    }
  }
  return 0.0;
}

double SpnModel::ExpectProduct(
    std::span<const double* const> factor_of_col) const {
  CARDBENCH_CHECK(factor_of_col.size() == num_cols_,
                  "%zu factor slots for %zu columns", factor_of_col.size(),
                  num_cols_);
  uint64_t scope = 0;
  for (size_t c = 0; c < num_cols_; ++c) {
    if (factor_of_col[c] != nullptr) scope |= ScopeBit(c);
  }
  ArenaFrame frame(ThreadLocalArena());
  return Eval(root_, factor_of_col.data(), scope);
}

std::pair<size_t, bool> SpnModel::FindJointKey(
    const Node& nd, const std::vector<uint16_t>& key) {
  const size_t width = key.size();
  const auto key_at = [&](size_t j) { return nd.joint_keys.data() + j * width; };
  size_t lo = 0, hi = nd.joint_counts.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (std::lexicographical_compare(key_at(mid), key_at(mid) + width,
                                     key.begin(), key.end())) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return {lo, lo < nd.joint_counts.size() &&
                  std::equal(key.begin(), key.end(), key_at(lo))};
}

double SpnModel::PointLikelihood(size_t node,
                                 const std::vector<uint16_t>& row) const {
  const Node& nd = nodes_[node];
  switch (nd.type) {
    case Node::Type::kLeaf: {
      const double denom =
          nd.total + kLeafSmoothing * static_cast<double>(nd.histogram.size());
      return denom > 0 ? (nd.histogram[row[nd.cols[0]]] + kLeafSmoothing) / denom
                       : 0.0;
    }
    case Node::Type::kMultiLeaf: {
      if (nd.total <= 0) return 0.0;
      std::vector<uint16_t> key(nd.cols.size());
      for (size_t k = 0; k < nd.cols.size(); ++k) key[k] = row[nd.cols[k]];
      const auto [at, found] = FindJointKey(nd, key);
      const double count = found ? nd.joint_counts[at] : 0.0;
      return (count + kLeafSmoothing) / (nd.total + kLeafSmoothing);
    }
    case Node::Type::kProduct: {
      double p = 1.0;
      for (size_t child : nd.children) p *= PointLikelihood(child, row);
      return p;
    }
    case Node::Type::kSum: {
      double total_weight = 0.0;
      for (double w : nd.weights) total_weight += w;
      if (total_weight <= 0) return 0.0;
      double p = 0.0;
      for (size_t i = 0; i < nd.children.size(); ++i) {
        p += nd.weights[i] / total_weight *
             PointLikelihood(nd.children[i], row);
      }
      return p;
    }
  }
  return 0.0;
}

void SpnModel::Route(size_t node, const std::vector<uint16_t>& row) {
  Node& nd = nodes_[node];
  switch (nd.type) {
    case Node::Type::kLeaf:
      nd.histogram[row[nd.cols[0]]] += 1.0;
      nd.total += 1.0;
      return;
    case Node::Type::kMultiLeaf: {
      // Counts a seen key; inserts an unseen one at its ordered position.
      std::vector<uint16_t> key(nd.cols.size());
      for (size_t k = 0; k < nd.cols.size(); ++k) key[k] = row[nd.cols[k]];
      const auto [at, found] = FindJointKey(nd, key);
      if (found) {
        nd.joint_counts[at] += 1.0;
      } else {
        nd.joint_keys.insert(
            nd.joint_keys.begin() + static_cast<long>(at * key.size()),
            key.begin(), key.end());
        nd.joint_counts.insert(
            nd.joint_counts.begin() + static_cast<long>(at), 1.0);
      }
      nd.total += 1.0;
      return;
    }
    case Node::Type::kProduct:
      for (size_t child : nd.children) Route(child, row);
      return;
    case Node::Type::kSum: {
      // Route to the child that explains the row best and grow its weight —
      // structure is frozen, so clusters drift and accuracy decays (the
      // update-accuracy drop the paper observes for SPN/FSPN, O10).
      size_t best = 0;
      double best_p = -1.0;
      for (size_t i = 0; i < nd.children.size(); ++i) {
        const double p = PointLikelihood(nd.children[i], row);
        if (p > best_p) {
          best_p = p;
          best = i;
        }
      }
      nd.weights[best] += 1.0;
      const size_t child = nd.children[best];
      Route(child, row);
      return;
    }
  }
}

void SpnModel::UpdateWithRows(const ExtendedTable& ext,
                              const std::vector<size_t>& new_rows) {
  for (size_t r : new_rows) {
    Route(root_, ext.BinnedRow(r));
  }
  RebuildDerived();
}

void SpnModel::Serialize(SectionWriter& out) const {
  out.PutDouble(options_.independence_threshold);
  out.PutDouble(options_.high_correlation_threshold);
  out.PutDouble(options_.min_slice_fraction);
  out.PutU64(options_.min_slice_rows);
  out.PutU64(options_.dependence_sample);
  out.PutBool(multi_leaf_);
  out.PutU64(options_.max_multi_leaf_cols);
  out.PutU64(options_.seed);
  out.PutU64(num_cols_);
  out.PutU64(root_);
  out.PutU64(nodes_.size());
  for (const auto& nd : nodes_) {
    out.PutU32(static_cast<uint32_t>(nd.type));
    out.PutU64s(std::vector<uint64_t>(nd.children.begin(), nd.children.end()));
    out.PutDoubles(nd.weights);
    out.PutU64s(std::vector<uint64_t>(nd.cols.begin(), nd.cols.end()));
    out.PutDoubles(nd.histogram);
    const size_t width = nd.cols.size();
    out.PutU64(nd.joint_counts.size());
    for (size_t j = 0; j < nd.joint_counts.size(); ++j) {
      out.PutU16s(std::span<const uint16_t>(nd.joint_keys).subspan(
          j * width, width));
      out.PutDouble(nd.joint_counts[j]);
    }
    out.PutDouble(nd.total);
  }
}

Result<std::unique_ptr<SpnModel>> SpnModel::Deserialize(
    SectionReader& in, const ExtendedTable& ext) {
  auto model = std::unique_ptr<SpnModel>(new SpnModel());
  CARDBENCH_ASSIGN_OR_RETURN(model->options_.independence_threshold,
                             in.GetDouble());
  CARDBENCH_ASSIGN_OR_RETURN(model->options_.high_correlation_threshold,
                             in.GetDouble());
  CARDBENCH_ASSIGN_OR_RETURN(model->options_.min_slice_fraction,
                             in.GetDouble());
  CARDBENCH_ASSIGN_OR_RETURN(model->options_.min_slice_rows, in.GetU64());
  CARDBENCH_ASSIGN_OR_RETURN(model->options_.dependence_sample, in.GetU64());
  CARDBENCH_ASSIGN_OR_RETURN(model->multi_leaf_, in.GetBool());
  CARDBENCH_ASSIGN_OR_RETURN(model->options_.max_multi_leaf_cols, in.GetU64());
  CARDBENCH_ASSIGN_OR_RETURN(model->options_.seed, in.GetU64());
  CARDBENCH_ASSIGN_OR_RETURN(model->num_cols_, in.GetU64());
  if (model->num_cols_ != ext.num_columns()) {
    return Status::InvalidArgument(StrFormat(
        "SPN has %zu columns, its extended table %zu", model->num_cols_,
        ext.num_columns()));
  }
  // Inference indexes each column's per-bin factor by leaf bin and
  // multi-leaf key bin, so both must lie in the column's bin domain.
  const std::vector<size_t> domains = ext.BinDomains();
  CARDBENCH_ASSIGN_OR_RETURN(model->root_, in.GetU64());
  uint64_t num_nodes = 0;
  CARDBENCH_ASSIGN_OR_RETURN(num_nodes, in.GetU64());
  if (num_nodes == 0 || model->root_ >= num_nodes) {
    return Status::InvalidArgument("SPN root out of range");
  }
  // Nodes are appended as read, so a crafted count cannot allocate more
  // than the payload holds.
  for (uint64_t i = 0; i < num_nodes; ++i) {
    Node nd;
    uint32_t type_raw = 0;
    CARDBENCH_ASSIGN_OR_RETURN(type_raw, in.GetU32());
    if (type_raw > static_cast<uint32_t>(Node::Type::kMultiLeaf)) {
      return Status::InvalidArgument("unknown SPN node type");
    }
    nd.type = static_cast<Node::Type>(type_raw);
    std::vector<uint64_t> children;
    CARDBENCH_ASSIGN_OR_RETURN(children, in.GetU64s());
    for (uint64_t child : children) {
      if (child >= i) {
        return Status::InvalidArgument("SPN child index " +
                                       std::to_string(child) +
                                       " not below its parent's " +
                                       std::to_string(i));
      }
    }
    nd.children.assign(children.begin(), children.end());
    CARDBENCH_ASSIGN_OR_RETURN(nd.weights, in.GetDoubles());
    if (nd.type == Node::Type::kSum &&
        nd.weights.size() != nd.children.size()) {
      return Status::InvalidArgument("SPN sum node weights/children differ");
    }
    std::vector<uint64_t> cols;
    CARDBENCH_ASSIGN_OR_RETURN(cols, in.GetU64s());
    for (uint64_t col : cols) {
      if (col >= model->num_cols_) {
        return Status::InvalidArgument("SPN column id " + std::to_string(col) +
                                       " out of range");
      }
    }
    if (nd.type == Node::Type::kLeaf && cols.size() != 1) {
      return Status::InvalidArgument("SPN leaf without exactly one column");
    }
    nd.cols.assign(cols.begin(), cols.end());
    CARDBENCH_ASSIGN_OR_RETURN(nd.histogram, in.GetDoubles());
    if (nd.type == Node::Type::kLeaf &&
        nd.histogram.size() != domains[nd.cols[0]]) {
      return Status::InvalidArgument(StrFormat(
          "SPN leaf histogram has %zu bins, its column %zu has %zu",
          nd.histogram.size(), nd.cols[0], domains[nd.cols[0]]));
    }
    uint64_t joint_size = 0;
    CARDBENCH_ASSIGN_OR_RETURN(joint_size, in.GetU64());
    const size_t width = nd.cols.size();
    for (uint64_t j = 0; j < joint_size; ++j) {
      std::vector<uint16_t> key;
      CARDBENCH_ASSIGN_OR_RETURN(key, in.GetU16s());
      if (key.size() != width) {
        return Status::InvalidArgument("SPN multi-leaf key width differs "
                                       "from its column count");
      }
      for (size_t k = 0; k < width; ++k) {
        if (key[k] >= domains[nd.cols[k]]) {
          return Status::InvalidArgument(StrFormat(
              "SPN multi-leaf key bin %u outside column %zu's %zu bins",
              static_cast<unsigned>(key[k]), nd.cols[k],
              domains[nd.cols[k]]));
        }
      }
      if (j > 0 && !std::lexicographical_compare(
                       nd.joint_keys.end() - static_cast<long>(width),
                       nd.joint_keys.end(), key.begin(), key.end())) {
        return Status::InvalidArgument(
            "SPN multi-leaf keys not strictly ascending");
      }
      double count = 0.0;
      CARDBENCH_ASSIGN_OR_RETURN(count, in.GetDouble());
      nd.joint_keys.insert(nd.joint_keys.end(), key.begin(), key.end());
      nd.joint_counts.push_back(count);
    }
    CARDBENCH_ASSIGN_OR_RETURN(nd.total, in.GetDouble());
    model->nodes_.push_back(std::move(nd));
  }
  model->RebuildDerived();
  return model;
}

}  // namespace cardbench
