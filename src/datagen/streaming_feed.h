#ifndef CARDBENCH_DATAGEN_STREAMING_FEED_H_
#define CARDBENCH_DATAGEN_STREAMING_FEED_H_

#include <cstddef>
#include <vector>

#include "cardest/insertion_batch.h"
#include "common/status.h"
#include "datagen/update_split.h"
#include "storage/catalog.h"

namespace cardbench {

/// Replays the insertion half of a TimeSplit as a sequence of
/// timestamp-ordered micro-batches — the streaming-arrival model of the
/// online refresh pipeline. Rows with a timestamp are globally sorted by it
/// and chunked into `num_batches` equal-count slices; rows of
/// timestamp-less tables are interleaved proportionally by source row order
/// (row j of n lands in batch floor(j * num_batches / n)), so replaying the
/// same split twice produces byte-identical batches.
///
/// Each ApplyNext call appends one micro-batch to the target database
/// (atomically — see ApplyInsertions), bumps its data version, and returns
/// the per-table row deltas stamped with the new version, ready to hand to
/// CardinalityEstimator::Update.
class StreamingInsertFeed {
 public:
  /// `db` is only used to resolve timestamp columns at construction (it is
  /// typically the stale database the feed will later be applied to).
  /// `insertions` are consumed (moved into the internal schedule).
  StreamingInsertFeed(const Database& db,
                      std::vector<TimeSplit::Insertion> insertions,
                      const TimestampColumnFn& ts_column_of,
                      size_t num_batches);

  size_t num_batches() const { return batches_.size(); }
  size_t batches_applied() const { return next_; }
  bool Done() const { return next_ >= batches_.size(); }
  size_t total_rows() const { return total_rows_; }

  /// Applies the next micro-batch to `db` and returns its deltas. Fails
  /// with OutOfRange once the feed is exhausted; on any apply error the
  /// database is unchanged and the batch is not consumed.
  Result<InsertionBatch> ApplyNext(Database& db);

 private:
  // batches_[b] holds per-table insertion slices for micro-batch b, in the
  // replay order computed at construction.
  std::vector<std::vector<TimeSplit::Insertion>> batches_;
  size_t next_ = 0;
  size_t total_rows_ = 0;
};

}  // namespace cardbench

#endif  // CARDBENCH_DATAGEN_STREAMING_FEED_H_
