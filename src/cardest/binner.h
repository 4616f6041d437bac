#ifndef CARDBENCH_CARDEST_BINNER_H_
#define CARDBENCH_CARDEST_BINNER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "query/predicate.h"
#include "storage/column.h"

namespace cardbench {

class SectionWriter;
class SectionReader;

/// Equi-depth discretizer for one column. Bin 0 is reserved for NULL; bins
/// 1..num_bins-1 partition the sorted distinct values so each holds roughly
/// equal row mass. Every discrete model in the estimator zoo (Bayesian
/// networks, SPNs, FSPNs, autoregressive MADE) runs on these bins, and
/// selectivity math uses per-bin value counts for partial-overlap fractions.
class ColumnBinner {
 public:
  /// Most value bins a loaded binner may hold: bin ids (NULL bin included)
  /// are uint16_t, and PredicateFractions counts bins in one.
  static constexpr size_t kMaxValueBins = 65534;

  /// Builds at most `max_bins` bins (including the NULL bin) over `column`.
  ColumnBinner(const Column& column, size_t max_bins);

  size_t num_bins() const { return static_cast<size_t>(starts_.size()) + 1; }

  /// Bin of a value; nullopt (NULL) maps to bin 0.
  uint16_t BinOf(std::optional<Value> v) const;

  /// Mean value of bin b's rows (0 for the NULL bin). Used as the
  /// representative when a model needs E[column] per bin (fanout columns).
  double BinMean(uint16_t bin) const { return means_[bin]; }

  /// Mean of 1/max(1, value) over bin b's rows (1 for the NULL bin). The
  /// correct per-bin representative for inverse-fanout factors: using
  /// 1/BinMean instead would underestimate E[1/X] badly on skewed bins
  /// (Jensen), which is exactly what NeuroCard's scaling columns divide by.
  double BinInverseMean(uint16_t bin) const;

  /// Fraction of bin b's row mass admitted by `range` (0 for the NULL bin).
  double RangeOverlap(uint16_t bin, const ValueRange& range) const;

  /// Fraction of bin b's row mass equal to `v`.
  double EqualFraction(uint16_t bin, Value v) const;

  /// Per-bin fraction of row mass passing a predicate conjunction (folds
  /// ranges and <> predicates). Entry 0 (NULL bin) is 0 when any predicate
  /// exists, 1 otherwise.
  std::vector<double> PredicateFractions(
      const std::vector<Predicate>& preds) const;

  /// Fraction of the column's total row mass (including NULLs) in bin b.
  double BinMass(uint16_t bin) const;

  /// Incorporates newly appended rows of the same column without changing
  /// bin boundaries: updates per-bin masses and means (model-update path).
  void Refresh(const Column& column);

  /// Appends the binner (bins, boundaries, per-bin value counts) to a serde
  /// section and restores it. Serialization covers everything EstimateCard
  /// needs, enabling model transfer without the source data (§4.3's
  /// "convenient to transfer and deploy"). Deserialize rejects, with
  /// InvalidArgument, a value-bin count outside [1, kMaxValueBins] and
  /// per-bin values that are not strictly ascending.
  void Serialize(SectionWriter& out) const;
  static Result<ColumnBinner> Deserialize(SectionReader& in);

 private:
  ColumnBinner() = default;  // for Deserialize

  struct BinValue {
    Value value;
    size_t count;
  };

  // Boundary starts: bin i+1 covers values in [starts_[i], ends_[i]].
  std::vector<Value> starts_;
  std::vector<Value> ends_;
  // Sorted (value, count) per bin for overlap fractions.
  std::vector<std::vector<BinValue>> bin_values_;
  std::vector<double> means_;   // per bin (index 0 = NULL bin)
  std::vector<double> masses_;  // per bin row counts
  double total_rows_ = 0.0;
};

}  // namespace cardbench

#endif  // CARDBENCH_CARDEST_BINNER_H_
