// Streaming statistics helpers for the benchmark harness: a fixed-resolution
// log-bucket latency histogram (HdrHistogram-lite) and a simple running
// mean/min/max accumulator.
#ifndef FMDS_SRC_COMMON_HISTOGRAM_H_
#define FMDS_SRC_COMMON_HISTOGRAM_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace fmds {

// Log2-bucketed histogram with linear sub-buckets, covering [0, 2^62).
// Records integer values (typically nanoseconds or access counts) with
// bounded relative error set by sub_bucket_bits. Zero is a first-class
// value (bucket 0): background far ops cost the client clock nothing and
// the recorder still histograms them.
class LogHistogram {
 public:
  explicit LogHistogram(int sub_bucket_bits = 5);

  // Inline: this sits on the windowed-signals drain path, where an
  // out-of-line call per record dominated the E15 overhead budget.
  void Record(uint64_t value) {
    const size_t index = BucketIndex(value);
    buckets_[index]++;
    Touch(index);
    ++count_;
    sum_ += value;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  // Batch-recorder interface (WindowedSignals): a caller that pre-buckets
  // values with BucketIndexFor folds whole batches in — bucket deltas via
  // AddBucketCount, then count/sum/min/max once via ApplyBatchSummary.
  // The index MUST come from BucketIndexFor with this histogram's sub_bits
  // and bucket_count().
  void AddBucketCount(size_t index, uint64_t n) {
    buckets_[index] += n;
    Touch(index);
  }
  void ApplyBatchSummary(uint64_t n, uint64_t sum, uint64_t min_value,
                         uint64_t max_value) {
    count_ += n;
    sum_ += sum;
    min_ = std::min(min_, min_value);
    max_ = std::max(max_, max_value);
  }
  size_t bucket_count() const { return buckets_.size(); }

  // The bucketing function, usable without an instance (hot paths bucket
  // into their own compact staging before ever touching a histogram).
  static size_t BucketIndexFor(uint64_t value, int sub_bits,
                               size_t num_buckets) {
    const uint64_t sub_count = 1ULL << sub_bits;
    if (value < sub_count) {
      return static_cast<size_t>(value);
    }
    const int msb = 63 - std::countl_zero(value);
    const int shift = msb - sub_bits;
    const uint64_t sub = (value >> shift) - sub_count;  // in [0, sub_count)
    const size_t base = static_cast<size_t>(msb - sub_bits + 1)
                        << sub_bits;
    return std::min(base + static_cast<size_t>(sub), num_buckets - 1);
  }
  void Merge(const LogHistogram& other);
  void Reset();
  // Zeroes counts in place, keeping the bucket allocation — the window
  // rotation path (WindowedHistogram) clears an expired sub-window on every
  // epoch advance, so this must not free/reallocate.
  void Clear() { Reset(); }

  // In-place bucket-wise merge. Unlike Merge(), which degrades a
  // resolution-mismatched source by re-recording bucket lower bounds, this
  // REJECTS a cross-sub-bits merge: returns false and leaves this histogram
  // untouched. Window rotation merges like-configured sub-windows only, and
  // a silent lossy merge there would corrupt rolling percentiles.
  bool MergeFrom(const LogHistogram& other);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) /
                                   static_cast<double>(count_);
  }

  // Value at quantile q in [0, 1], e.g. 0.5 / 0.99 / 0.999. Results are
  // clamped into [min(), max()]: q=0 returns the exact minimum, q=1 the
  // exact maximum, and interior quantiles never report a bucket lower
  // bound below the smallest recorded value.
  uint64_t Percentile(double q) const;

  // "count=... mean=... p50=... p99=... max=..." one-liner.
  std::string Summary() const;

 private:
  size_t BucketIndex(uint64_t value) const {
    return BucketIndexFor(value, sub_bits_, buckets_.size());
  }
  uint64_t BucketLowerBound(size_t index) const;
  // Dirty-range bookkeeping: every write into buckets_ goes through Touch,
  // so [dirty_lo_, dirty_hi_] covers all nonzero buckets. Clear() then
  // zeroes only that span (the window-rotation path clears a sub-window
  // histogram every epoch advance — a full 4 KB memset there costs more
  // than the records it erases), and MergeFrom walks only the source's
  // span instead of the whole array.
  void Touch(size_t index) {
    dirty_lo_ = std::min(dirty_lo_, index);
    dirty_hi_ = std::max(dirty_hi_, index);
  }
  // Bucket-wise add of `other` (same resolution) plus summary fold.
  void AddBucketRange(const LogHistogram& other);

  int sub_bits_;
  uint64_t sub_count_;
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
  size_t dirty_lo_ = SIZE_MAX;  // SIZE_MAX/0 = nothing dirty
  size_t dirty_hi_ = 0;
};

// Mean/min/max/stddev accumulator for doubles.
class RunningStat {
 public:
  void Record(double v) {
    ++n_;
    const double delta = v - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (v - mean_);
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }

  uint64_t count() const { return n_; }
  double mean() const { return mean_; }
  double min() const { return n_ == 0 ? 0.0 : min_; }
  double max() const { return n_ == 0 ? 0.0 : max_; }
  double variance() const {
    return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
  }
  double stddev() const;

 private:
  uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 1e300;
  double max_ = -1e300;
};

}  // namespace fmds

#endif  // FMDS_SRC_COMMON_HISTOGRAM_H_
