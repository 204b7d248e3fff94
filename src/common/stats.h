#ifndef CRAYFISH_COMMON_STATS_H_
#define CRAYFISH_COMMON_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace crayfish {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
/// O(1) memory; no percentiles — see Reservoir or Histogram for those.
class RunningStats {
 public:
  RunningStats() = default;

  void Add(double x);
  /// Merges another accumulator into this one (parallel Welford).
  void Merge(const RunningStats& other);
  void Reset();

  size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  /// Sample variance (n-1 denominator); 0 when count < 2.
  double variance() const;
  double stddev() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Stores every sample; supports exact percentiles. Intended for per-
/// experiment latency collections (bounded by the 1M-measurement cap the
/// paper uses).
class SampleSet {
 public:
  SampleSet() = default;

  void Add(double x) { samples_.push_back(x); }
  void Reserve(size_t n) { samples_.reserve(n); }
  void Clear() { samples_.clear(); }

  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;
  /// Exact percentile by linear interpolation, p in [0, 100].
  /// Returns 0 for an empty set.
  double Percentile(double p) const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
};

/// Fixed-boundary histogram in the style of HdrHistogram-lite: exponential
/// bucket boundaries between [min_value, max_value]. Used for latency
/// distribution summaries in reports.
class Histogram {
 public:
  /// Buckets grow geometrically from min_value to max_value over
  /// `num_buckets` buckets. Values outside the range clamp to the edge
  /// buckets.
  Histogram(double min_value, double max_value, size_t num_buckets);

  void Add(double x);
  /// Merges another histogram with identical bucket geometry (same
  /// min/max/num_buckets) into this one. Bucket-for-bucket addition, so
  /// merging per-window histograms reproduces the whole-run histogram
  /// exactly — CHECK-fails on a geometry mismatch.
  void Merge(const Histogram& other);
  size_t count() const { return total_; }
  /// Approximate percentile from bucket midpoints, p in [0, 100].
  double Percentile(double p) const;
  /// Multi-line textual rendering: one row per non-empty bucket.
  std::string ToString() const;

  size_t num_buckets() const { return counts_.size(); }
  size_t bucket_count(size_t i) const { return counts_[i]; }
  double bucket_lower(size_t i) const;

 private:
  size_t BucketIndex(double x) const;

  double min_value_;
  double log_min_;
  double log_step_;
  std::vector<size_t> counts_;
  size_t total_ = 0;
};

}  // namespace crayfish

#endif  // CRAYFISH_COMMON_STATS_H_
