#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.h"

namespace crayfish {

void RunningStats::Add(double x) {
  ++count_;
  if (count_ == 1) {
    mean_ = x;
    m2_ = 0.0;
    min_ = x;
    max_ = x;
    return;
  }
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::Reset() { *this = RunningStats(); }

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double SampleSet::mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

double SampleSet::stddev() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double m2 = 0.0;
  for (double s : samples_) m2 += (s - m) * (s - m);
  return std::sqrt(m2 / static_cast<double>(samples_.size() - 1));
}

double SampleSet::min() const {
  if (samples_.empty()) return 0.0;
  return *std::min_element(samples_.begin(), samples_.end());
}

double SampleSet::max() const {
  if (samples_.empty()) return 0.0;
  return *std::max_element(samples_.begin(), samples_.end());
}

double SampleSet::Percentile(double p) const {
  if (samples_.empty()) return 0.0;
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  if (p <= 0.0) return sorted.front();
  if (p >= 100.0) return sorted.back();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

Histogram::Histogram(double min_value, double max_value, size_t num_buckets)
    : min_value_(min_value), counts_(num_buckets, 0) {
  CRAYFISH_CHECK_GT(min_value, 0.0);
  CRAYFISH_CHECK_GT(max_value, min_value);
  CRAYFISH_CHECK_GT(num_buckets, 0u);
  log_min_ = std::log(min_value);
  log_step_ =
      (std::log(max_value) - log_min_) / static_cast<double>(num_buckets);
}

size_t Histogram::BucketIndex(double x) const {
  if (x <= min_value_) return 0;
  const double idx = (std::log(x) - log_min_) / log_step_;
  if (idx >= static_cast<double>(counts_.size())) return counts_.size() - 1;
  return static_cast<size_t>(idx);
}

void Histogram::Add(double x) {
  ++counts_[BucketIndex(x)];
  ++total_;
}

void Histogram::Merge(const Histogram& other) {
  CRAYFISH_CHECK_EQ(counts_.size(), other.counts_.size());
  CRAYFISH_CHECK_EQ(min_value_, other.min_value_);
  CRAYFISH_CHECK_EQ(log_step_, other.log_step_);
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

double Histogram::bucket_lower(size_t i) const {
  return std::exp(log_min_ + log_step_ * static_cast<double>(i));
}

double Histogram::Percentile(double p) const {
  if (total_ == 0) return 0.0;
  const double target = p / 100.0 * static_cast<double>(total_);
  double cum = 0.0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    cum += static_cast<double>(counts_[i]);
    if (cum >= target) {
      // Bucket midpoint in log space.
      return std::exp(log_min_ + log_step_ * (static_cast<double>(i) + 0.5));
    }
  }
  return std::exp(log_min_ + log_step_ * static_cast<double>(counts_.size()));
}

std::string Histogram::ToString() const {
  std::ostringstream os;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    os << "[" << bucket_lower(i) << ", " << bucket_lower(i + 1)
       << "): " << counts_[i] << "\n";
  }
  return os.str();
}

}  // namespace crayfish
