#include "cardest/bayescard_est.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "common/arena.h"
#include "common/logging.h"
#include "common/serde.h"
#include "common/str_util.h"

namespace cardbench {

namespace {
constexpr double kLaplace = 0.1;
}  // namespace

ChowLiuTreeModel::ChowLiuTreeModel(const ExtendedTable& ext) {
  num_cols_ = ext.num_columns();
  domains_ = ext.BinDomains();
  total_rows_ = static_cast<double>(ext.num_rows());
  parent_.assign(num_cols_, -1);
  children_.assign(num_cols_, {});
  counts_.assign(num_cols_, {});
  if (num_cols_ == 0) return;

  // --- Pairwise mutual information over binned values. ---
  const size_t n = ext.num_rows();
  std::vector<std::vector<double>> mi(num_cols_,
                                      std::vector<double>(num_cols_, 0.0));
  for (size_t i = 0; i < num_cols_; ++i) {
    for (size_t j = i + 1; j < num_cols_; ++j) {
      const size_t di = domains_[i], dj = domains_[j];
      std::vector<double> joint(di * dj, 0.0), pi(di, 0.0), pj(dj, 0.0);
      for (size_t r = 0; r < n; ++r) {
        const uint16_t bi = ext.column(i).bins[r];
        const uint16_t bj = ext.column(j).bins[r];
        joint[bi * dj + bj] += 1.0;
        pi[bi] += 1.0;
        pj[bj] += 1.0;
      }
      double value = 0.0;
      const double dn = std::max(1.0, static_cast<double>(n));
      for (size_t a = 0; a < di; ++a) {
        for (size_t b = 0; b < dj; ++b) {
          const double pab = joint[a * dj + b] / dn;
          if (pab <= 0) continue;
          value += pab * std::log(pab / ((pi[a] / dn) * (pj[b] / dn)));
        }
      }
      mi[i][j] = mi[j][i] = value;
    }
  }

  // --- Maximum spanning tree (Prim). ---
  root_ = 0;
  std::vector<bool> in_tree(num_cols_, false);
  std::vector<double> best(num_cols_, -1.0);
  std::vector<int> best_from(num_cols_, -1);
  in_tree[root_] = true;
  for (size_t j = 0; j < num_cols_; ++j) {
    if (j != root_) {
      best[j] = mi[root_][j];
      best_from[j] = static_cast<int>(root_);
    }
  }
  for (size_t it = 1; it < num_cols_; ++it) {
    int pick = -1;
    for (size_t j = 0; j < num_cols_; ++j) {
      if (!in_tree[j] && (pick < 0 || best[j] > best[static_cast<size_t>(pick)])) {
        pick = static_cast<int>(j);
      }
    }
    if (pick < 0) break;
    in_tree[static_cast<size_t>(pick)] = true;
    parent_[static_cast<size_t>(pick)] = best_from[static_cast<size_t>(pick)];
    children_[static_cast<size_t>(best_from[static_cast<size_t>(pick)])]
        .push_back(static_cast<size_t>(pick));
    for (size_t j = 0; j < num_cols_; ++j) {
      if (!in_tree[j] && mi[static_cast<size_t>(pick)][j] > best[j]) {
        best[j] = mi[static_cast<size_t>(pick)][j];
        best_from[j] = pick;
      }
    }
  }

  // Canonical child order (ascending column index). Inference multiplies
  // child messages in this order, and Deserialize rebuilds children_ from
  // parent_ in column order — keeping both identical makes a reloaded
  // model's floating-point products bit-identical to the trained one's.
  for (auto& kids : children_) std::sort(kids.begin(), kids.end());

  // --- CPT counts. ---
  for (size_t c = 0; c < num_cols_; ++c) {
    if (parent_[c] < 0) {
      counts_[c].assign(domains_[c], 0.0);
    } else {
      counts_[c].assign(domains_[static_cast<size_t>(parent_[c])] * domains_[c],
                        0.0);
    }
  }
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < num_cols_; ++c) {
      const uint16_t b = ext.column(c).bins[r];
      if (parent_[c] < 0) {
        counts_[c][b] += 1.0;
      } else {
        const uint16_t pb = ext.column(static_cast<size_t>(parent_[c])).bins[r];
        counts_[c][pb * domains_[c] + b] += 1.0;
      }
    }
  }
  RebuildDerived();
}

void ChowLiuTreeModel::RebuildDerived() {
  // Breadth-first from the root puts every parent before its children;
  // reversed, every column comes after all of its children.
  children_first_.clear();
  mass_.assign(num_cols_, {});
  max_domain_ = 0;
  if (num_cols_ == 0) return;
  children_first_.push_back(root_);
  for (size_t i = 0; i < children_first_.size(); ++i) {
    for (size_t child : children_[children_first_[i]]) {
      children_first_.push_back(child);
    }
  }
  std::reverse(children_first_.begin(), children_first_.end());
  for (size_t c = 0; c < num_cols_; ++c) {
    const size_t dom = domains_[c];
    const size_t rows =
        parent_[c] < 0 ? 1 : domains_[static_cast<size_t>(parent_[c])];
    mass_[c].resize(rows);
    for (size_t pb = 0; pb < rows; ++pb) {
      double mass = 0.0;
      for (size_t b = 0; b < dom; ++b) {
        mass += counts_[c][pb * dom + b] + kLaplace;
      }
      mass_[c][pb] = mass;
    }
    max_domain_ = std::max(max_domain_, dom);
  }
}

double ChowLiuTreeModel::ExpectProduct(
    std::span<const double* const> factor_of_col) const {
  CARDBENCH_CHECK(factor_of_col.size() == num_cols_,
                  "%zu factor slots for %zu columns", factor_of_col.size(),
                  num_cols_);
  if (num_cols_ == 0) return 1.0;
  ArenaFrame frame(ThreadLocalArena());
  Arena& arena = frame.arena();
  // msg_of[c]: column c's message to its parent over the parent's bins,
  // m(b_p) = sum_b P(b|b_p) phi(b) prod child messages(b); null when c's
  // subtree holds no factor (its message would be the identity).
  const double** msg_of = arena.AllocateArray<const double*>(num_cols_);
  double* phi = arena.AllocateArray<double>(max_domain_);
  for (size_t node : children_first_) {
    const double* factor = factor_of_col[node];
    bool has_factor = factor != nullptr;
    for (size_t child : children_[node]) {
      has_factor |= msg_of[child] != nullptr;
    }
    if (!has_factor) {
      msg_of[node] = nullptr;
      continue;
    }
    const size_t dom = domains_[node];
    if (factor != nullptr) {
      std::copy_n(factor, dom, phi);
    } else {
      std::fill_n(phi, dom, 1.0);
    }
    for (size_t child : children_[node]) {
      const double* msg = msg_of[child];
      if (msg == nullptr) continue;
      for (size_t b = 0; b < dom; ++b) phi[b] *= msg[b];
    }

    const double* counts = counts_[node].data();
    const double* mass = mass_[node].data();
    if (node == root_) {
      // Root: expectation under the smoothed marginal.
      double total = 0.0;
      for (size_t b = 0; b < dom; ++b) total += (counts[b] + kLaplace) * phi[b];
      return mass[0] > 0 ? total / mass[0] : 0.0;
    }
    // Four parent bins per pass over phi, one accumulator each: every
    // accumulator still sums its own bins in bin order.
    const size_t pdom = domains_[static_cast<size_t>(parent_[node])];
    double* msg = arena.AllocateArray<double>(pdom);
    size_t pb = 0;
    for (; pb + 4 <= pdom; pb += 4) {
      const double* r0 = counts + pb * dom;
      const double* r1 = r0 + dom;
      const double* r2 = r1 + dom;
      const double* r3 = r2 + dom;
      double t0 = 0.0, t1 = 0.0, t2 = 0.0, t3 = 0.0;
      for (size_t b = 0; b < dom; ++b) {
        t0 += (r0[b] + kLaplace) * phi[b];
        t1 += (r1[b] + kLaplace) * phi[b];
        t2 += (r2[b] + kLaplace) * phi[b];
        t3 += (r3[b] + kLaplace) * phi[b];
      }
      msg[pb] = mass[pb] > 0 ? t0 / mass[pb] : 1.0;
      msg[pb + 1] = mass[pb + 1] > 0 ? t1 / mass[pb + 1] : 1.0;
      msg[pb + 2] = mass[pb + 2] > 0 ? t2 / mass[pb + 2] : 1.0;
      msg[pb + 3] = mass[pb + 3] > 0 ? t3 / mass[pb + 3] : 1.0;
    }
    for (; pb < pdom; ++pb) {
      const double* row = counts + pb * dom;
      double total = 0.0;
      for (size_t b = 0; b < dom; ++b) total += (row[b] + kLaplace) * phi[b];
      msg[pb] = mass[pb] > 0 ? total / mass[pb] : 1.0;
    }
    msg_of[node] = msg;
  }
  // The root comes last; reaching here means no factor anywhere.
  return 1.0;
}

void ChowLiuTreeModel::Serialize(SectionWriter& out) const {
  out.PutU64(num_cols_);
  out.PutU64(root_);
  out.PutDouble(total_rows_);
  for (size_t c = 0; c < num_cols_; ++c) {
    out.PutU64(domains_[c]);
    out.PutI64(parent_[c]);
    out.PutDoubles(counts_[c]);
  }
}

Result<std::unique_ptr<ChowLiuTreeModel>> ChowLiuTreeModel::Deserialize(
    SectionReader& in, const ExtendedTable& ext) {
  auto model = std::unique_ptr<ChowLiuTreeModel>(new ChowLiuTreeModel());
  CARDBENCH_ASSIGN_OR_RETURN(model->num_cols_, in.GetU64());
  CARDBENCH_ASSIGN_OR_RETURN(model->root_, in.GetU64());
  CARDBENCH_ASSIGN_OR_RETURN(model->total_rows_, in.GetDouble());
  const size_t n = model->num_cols_;
  if (n != ext.num_columns()) {
    return Status::InvalidArgument(StrFormat(
        "Chow-Liu model has %zu columns, its extended table %zu", n,
        ext.num_columns()));
  }
  if (n > 0 && model->root_ >= n) {
    return Status::InvalidArgument("Chow-Liu root out of range");
  }
  model->domains_ = ext.BinDomains();
  model->parent_.resize(n);
  model->children_.assign(n, {});
  model->counts_.resize(n);
  for (size_t c = 0; c < n; ++c) {
    uint64_t domain = 0;
    CARDBENCH_ASSIGN_OR_RETURN(domain, in.GetU64());
    if (domain != model->domains_[c]) {
      return Status::InvalidArgument(
          StrFormat("Chow-Liu column %zu has %llu bins, its extended table "
                    "column %zu",
                    c, static_cast<unsigned long long>(domain),
                    model->domains_[c]));
    }
    int64_t parent = 0;
    CARDBENCH_ASSIGN_OR_RETURN(parent, in.GetI64());
    if (parent < -1 || parent >= static_cast<int64_t>(n)) {
      return Status::InvalidArgument("Chow-Liu parent out of range");
    }
    model->parent_[c] = static_cast<int>(parent);
    CARDBENCH_ASSIGN_OR_RETURN(model->counts_[c], in.GetDoubles());
    if (parent >= 0) {
      model->children_[static_cast<size_t>(parent)].push_back(c);
    }
  }
  // The root alone has no parent, and every other column reaches it:
  // inference recurses from the root through children_ and indexes each
  // column's counts by its parent's bin.
  for (size_t c = 0; c < n; ++c) {
    if ((model->parent_[c] < 0) != (c == model->root_)) {
      return Status::InvalidArgument("Chow-Liu tree has a stray root");
    }
  }
  for (size_t c = 0; c < n; ++c) {
    size_t steps = 0;
    for (int at = static_cast<int>(c); at != static_cast<int>(model->root_);
         at = model->parent_[static_cast<size_t>(at)]) {
      if (++steps > n) {
        return Status::InvalidArgument("Chow-Liu parents form a cycle");
      }
    }
    const size_t parent_domain =
        model->parent_[c] < 0
            ? 1
            : model->domains_[static_cast<size_t>(model->parent_[c])];
    if (model->counts_[c].size() != parent_domain * model->domains_[c]) {
      return Status::InvalidArgument(
          StrFormat("Chow-Liu column %zu has %zu counts, not %zu", c,
                    model->counts_[c].size(),
                    parent_domain * model->domains_[c]));
    }
  }
  model->RebuildDerived();
  return model;
}

Status BayesCardEstimator::Serialize(std::ostream& out) const {
  return SerializeFanout(out, "bayescard");
}

void BayesCardEstimator::SerializeModel(const TableDistribution& model,
                                        SectionWriter& out) const {
  const auto* bn = dynamic_cast<const ChowLiuTreeModel*>(&model);
  CARDBENCH_CHECK(bn != nullptr, "BayesCard model is not a Chow-Liu tree");
  bn->Serialize(out);
}

Result<std::unique_ptr<TableDistribution>> BayesCardEstimator::LoadModelPayload(
    SectionReader& in, const ExtendedTable& ext) const {
  CARDBENCH_ASSIGN_OR_RETURN(std::unique_ptr<ChowLiuTreeModel> bn,
                             ChowLiuTreeModel::Deserialize(in, ext));
  return std::unique_ptr<TableDistribution>(std::move(bn));
}

Result<std::unique_ptr<BayesCardEstimator>> BayesCardEstimator::Deserialize(
    const Database& db, std::istream& in) {
  auto est = std::unique_ptr<BayesCardEstimator>(
      new BayesCardEstimator(db, /*max_bins=*/48, DeferredInit{}));
  CARDBENCH_RETURN_IF_ERROR(est->LoadFanout(in, "bayescard"));
  return est;
}

void ChowLiuTreeModel::UpdateWithRows(const ExtendedTable& ext,
                                      const std::vector<size_t>& new_rows) {
  // Structure preserved; only CPT counts absorb the inserted rows.
  for (size_t r : new_rows) {
    for (size_t c = 0; c < num_cols_; ++c) {
      const uint16_t b = ext.column(c).bins[r];
      if (parent_[c] < 0) {
        counts_[c][b] += 1.0;
      } else {
        const uint16_t pb = ext.column(static_cast<size_t>(parent_[c])).bins[r];
        counts_[c][pb * domains_[c] + b] += 1.0;
      }
    }
  }
  total_rows_ += static_cast<double>(new_rows.size());
  RebuildDerived();
}

}  // namespace cardbench
