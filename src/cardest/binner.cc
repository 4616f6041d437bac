#include "cardest/binner.h"

#include <algorithm>
#include <map>

#include "common/logging.h"
#include "common/serde.h"

namespace cardbench {

ColumnBinner::ColumnBinner(const Column& column, size_t max_bins) {
  CARDBENCH_CHECK(max_bins >= 2, "need at least the NULL bin plus one");
  std::map<Value, size_t> freq;
  size_t non_null = 0;
  for (size_t row = 0; row < column.size(); ++row) {
    if (!column.IsValid(row)) continue;
    ++freq[column.Get(row)];
    ++non_null;
  }
  total_rows_ = static_cast<double>(column.size());

  // Greedy equi-depth partition of the sorted distinct values.
  const size_t value_bins =
      std::max<size_t>(1, std::min(max_bins - 1, freq.size()));
  const double target = static_cast<double>(non_null) /
                        static_cast<double>(value_bins);
  std::vector<std::vector<BinValue>> bins;
  std::vector<BinValue> current;
  double acc = 0.0;
  for (const auto& [value, count] : freq) {
    current.push_back({value, count});
    acc += static_cast<double>(count);
    if (acc >= target && bins.size() + 1 < value_bins) {
      bins.push_back(std::move(current));
      current.clear();
      acc = 0.0;
    }
  }
  if (!current.empty()) bins.push_back(std::move(current));
  if (bins.empty()) bins.push_back({});  // all-NULL column

  starts_.resize(bins.size());
  ends_.resize(bins.size());
  for (size_t i = 0; i < bins.size(); ++i) {
    starts_[i] = bins[i].empty() ? 0 : bins[i].front().value;
    ends_[i] = bins[i].empty() ? 0 : bins[i].back().value;
  }
  bin_values_ = std::move(bins);

  means_.assign(num_bins(), 0.0);
  masses_.assign(num_bins(), 0.0);
  masses_[0] = total_rows_ - static_cast<double>(non_null);
  for (size_t b = 0; b < bin_values_.size(); ++b) {
    double sum = 0.0, mass = 0.0;
    for (const auto& bv : bin_values_[b]) {
      sum += static_cast<double>(bv.value) * static_cast<double>(bv.count);
      mass += static_cast<double>(bv.count);
    }
    masses_[b + 1] = mass;
    means_[b + 1] = mass > 0 ? sum / mass : 0.0;
  }
}

uint16_t ColumnBinner::BinOf(std::optional<Value> v) const {
  if (!v.has_value()) return 0;
  // Last bin whose start is <= v (values below the first start clamp to
  // bin 1, above the last end to the last bin).
  const auto it = std::upper_bound(starts_.begin(), starts_.end(), *v);
  const size_t idx =
      it == starts_.begin() ? 0 : static_cast<size_t>(it - starts_.begin()) - 1;
  return static_cast<uint16_t>(idx + 1);
}

double ColumnBinner::RangeOverlap(uint16_t bin, const ValueRange& range) const {
  if (bin == 0) return 0.0;
  const auto& values = bin_values_[bin - 1];
  if (masses_[bin] <= 0 || range.Empty()) return 0.0;
  // A bin wholly outside or inside the range is decided from its first and
  // last stored value (not starts_/ends_: Refresh can append values beyond
  // them); only a partly covered bin is searched and summed. Counts are
  // integers and the mass is their sum, so skipping the scan returns the
  // same double: 0, 1, or the covered run's sum over the mass.
  if (values.back().value < range.lo || values.front().value > range.hi) {
    return 0.0;
  }
  if (range.Contains(values.front().value) &&
      range.Contains(values.back().value)) {
    return 1.0;
  }
  const auto first = std::lower_bound(
      values.begin(), values.end(), range.lo,
      [](const BinValue& bv, Value target) { return bv.value < target; });
  const auto last = std::upper_bound(
      first, values.end(), range.hi,
      [](Value target, const BinValue& bv) { return target < bv.value; });
  double pass = 0.0;
  for (auto it = first; it != last; ++it) {
    pass += static_cast<double>(it->count);
  }
  return pass / masses_[bin];
}

double ColumnBinner::EqualFraction(uint16_t bin, Value v) const {
  if (bin == 0 || masses_[bin] <= 0) return 0.0;
  const auto& values = bin_values_[bin - 1];
  const auto it = std::lower_bound(
      values.begin(), values.end(), v,
      [](const BinValue& bv, Value target) { return bv.value < target; });
  if (it == values.end() || it->value != v) return 0.0;
  return static_cast<double>(it->count) / masses_[bin];
}

std::vector<double> ColumnBinner::PredicateFractions(
    const std::vector<Predicate>& preds) const {
  std::vector<double> fractions(num_bins(), 1.0);
  if (preds.empty()) return fractions;
  fractions[0] = 0.0;  // NULL satisfies nothing

  ValueRange range;
  std::vector<Value> excluded;
  for (const auto& pred : preds) {
    if (pred.op == CompareOp::kNeq) {
      excluded.push_back(pred.value);
    } else {
      range.Apply(pred.op, pred.value);
    }
  }
  for (uint16_t b = 1; b < num_bins(); ++b) {
    double frac = RangeOverlap(b, range);
    for (Value v : excluded) {
      if (range.Contains(v)) frac -= EqualFraction(b, v);
    }
    fractions[b] = std::max(0.0, frac);
  }
  return fractions;
}

double ColumnBinner::BinInverseMean(uint16_t bin) const {
  if (bin == 0 || masses_[bin] <= 0) return 1.0;
  double total = 0.0;
  for (const auto& bv : bin_values_[bin - 1]) {
    total += static_cast<double>(bv.count) /
             std::max<double>(1.0, static_cast<double>(bv.value));
  }
  return total / masses_[bin];
}

double ColumnBinner::BinMass(uint16_t bin) const {
  return total_rows_ > 0 ? masses_[bin] / total_rows_ : 0.0;
}

void ColumnBinner::Refresh(const Column& column) {
  // Fixed boundaries; recount masses, means and per-bin value counts.
  for (auto& bin : bin_values_) {
    for (auto& bv : bin) bv.count = 0;
  }
  std::vector<std::map<Value, size_t>> extras(bin_values_.size());
  std::fill(masses_.begin(), masses_.end(), 0.0);
  total_rows_ = static_cast<double>(column.size());
  for (size_t row = 0; row < column.size(); ++row) {
    if (!column.IsValid(row)) {
      masses_[0] += 1.0;
      continue;
    }
    const Value v = column.Get(row);
    const uint16_t bin = BinOf(v);
    masses_[bin] += 1.0;
    auto& values = bin_values_[bin - 1];
    const auto it = std::lower_bound(
        values.begin(), values.end(), v,
        [](const BinValue& bv, Value target) { return bv.value < target; });
    if (it != values.end() && it->value == v) {
      ++it->count;
    } else {
      ++extras[bin - 1][v];  // unseen value; merged below
    }
  }
  for (size_t b = 0; b < bin_values_.size(); ++b) {
    if (extras[b].empty()) continue;
    for (const auto& [value, count] : extras[b]) {
      bin_values_[b].push_back({value, count});
    }
    std::sort(bin_values_[b].begin(), bin_values_[b].end(),
              [](const BinValue& x, const BinValue& y) {
                return x.value < y.value;
              });
  }
  for (size_t b = 0; b < bin_values_.size(); ++b) {
    double sum = 0.0, mass = 0.0;
    for (const auto& bv : bin_values_[b]) {
      sum += static_cast<double>(bv.value) * static_cast<double>(bv.count);
      mass += static_cast<double>(bv.count);
    }
    means_[b + 1] = mass > 0 ? sum / mass : 0.0;
  }
}

void ColumnBinner::Serialize(SectionWriter& out) const {
  out.PutU64(bin_values_.size());
  out.PutDouble(total_rows_);
  out.PutDouble(masses_[0]);  // NULL-bin mass
  for (size_t b = 0; b < bin_values_.size(); ++b) {
    out.PutI64(starts_[b]);
    out.PutI64(ends_[b]);
    out.PutU64(bin_values_[b].size());
    for (const auto& bv : bin_values_[b]) {
      out.PutI64(bv.value);
      out.PutU64(bv.count);
    }
  }
}

Result<ColumnBinner> ColumnBinner::Deserialize(SectionReader& in) {
  ColumnBinner binner;
  CARDBENCH_ASSIGN_OR_RETURN(uint64_t num_value_bins, in.GetU64());
  // Bin ids are uint16_t and BinOf never answers below bin 1.
  if (num_value_bins == 0 || num_value_bins > kMaxValueBins) {
    return Status::InvalidArgument(
        "binner value-bin count " + std::to_string(num_value_bins) +
        " outside [1, " + std::to_string(kMaxValueBins) + "]");
  }
  CARDBENCH_ASSIGN_OR_RETURN(binner.total_rows_, in.GetDouble());
  CARDBENCH_ASSIGN_OR_RETURN(double null_mass, in.GetDouble());
  binner.starts_.resize(num_value_bins);
  binner.ends_.resize(num_value_bins);
  binner.bin_values_.resize(num_value_bins);
  binner.means_.assign(num_value_bins + 1, 0.0);
  binner.masses_.assign(num_value_bins + 1, 0.0);
  binner.masses_[0] = null_mass;
  for (size_t b = 0; b < num_value_bins; ++b) {
    CARDBENCH_ASSIGN_OR_RETURN(binner.starts_[b], in.GetI64());
    CARDBENCH_ASSIGN_OR_RETURN(binner.ends_[b], in.GetI64());
    CARDBENCH_ASSIGN_OR_RETURN(uint64_t num_values, in.GetU64());
    // Each value is stored as an i64 and a u64: a count the payload cannot
    // hold is truncation, reported before allocating.
    if (num_values > in.remaining() / (2 * sizeof(uint64_t))) {
      return Status::OutOfRange("binner bin " + std::to_string(b + 1) +
                                " truncated");
    }
    std::vector<BinValue>& values = binner.bin_values_[b];
    values.resize(num_values);
    // Masses and means are derived state; recomputing them from the stored
    // value counts keeps the payload minimal and cannot drift (counts are
    // integers, and the summation order below matches the builder's).
    double sum = 0.0, mass = 0.0;
    for (size_t v = 0; v < num_values; ++v) {
      CARDBENCH_ASSIGN_OR_RETURN(values[v].value, in.GetI64());
      CARDBENCH_ASSIGN_OR_RETURN(values[v].count, in.GetU64());
      // The binary searches of EqualFraction, RangeOverlap and Refresh
      // need each bin's values strictly ascending.
      if (v > 0 && values[v - 1].value >= values[v].value) {
        return Status::InvalidArgument(
            "binner values of bin " + std::to_string(b + 1) +
            " are not strictly ascending");
      }
      sum += static_cast<double>(values[v].value) *
             static_cast<double>(values[v].count);
      mass += static_cast<double>(values[v].count);
    }
    binner.masses_[b + 1] = mass;
    binner.means_[b + 1] = mass > 0 ? sum / mass : 0.0;
  }
  return binner;
}

}  // namespace cardbench
