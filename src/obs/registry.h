#ifndef CRAYFISH_OBS_REGISTRY_H_
#define CRAYFISH_OBS_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/stats.h"
#include "common/status.h"

namespace crayfish::obs {

/// Label set attached to a metric instance, e.g. {{"engine", "flink"},
/// {"operator", "scoring"}}. Labels are sorted by key when forming the
/// metric's identity, so insertion order does not matter.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Monotone event count (records produced, bytes moved, applies run).
class CounterMetric {
 public:
  void Increment(double delta = 1.0);
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Last-written value (current queue depth, configured parallelism).
class GaugeMetric {
 public:
  void Set(double v);
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Distribution metric: exact mean/min/max via RunningStats plus
/// approximate percentiles via a geometric-bucket histogram. The default
/// bucket range [1e-6, 1e6] covers everything Crayfish records (seconds,
/// depths, bytes) at ~3% relative resolution.
class HistogramMetric {
 public:
  HistogramMetric() : histogram_(1e-6, 1e6, 512) {}

  void Observe(double v);

  size_t count() const { return stats_.count(); }
  double mean() const { return stats_.mean(); }
  double min() const { return stats_.min(); }
  double max() const { return stats_.max(); }
  double Percentile(double p) const { return histogram_.Percentile(p); }

 private:
  crayfish::RunningStats stats_;
  crayfish::Histogram histogram_;
};

/// Registry of named, labeled metrics for one experiment run.
///
/// `Counter`/`Gauge`/`Histogram` return a stable pointer the caller may
/// cache for the lifetime of the registry — instrument once, update on the
/// hot path without a map lookup. Metric identity is `name{k=v,...}` with
/// labels sorted by key; the std::map storage makes `Snapshot()` output
/// deterministic.
///
/// Like the trace recorder, the registry is passive: updates never touch
/// the event queue or RNG, so metrics collection cannot perturb a run.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  CounterMetric* Counter(const std::string& name,
                         const MetricLabels& labels = {});
  GaugeMetric* Gauge(const std::string& name,
                     const MetricLabels& labels = {});
  HistogramMetric* Histogram(const std::string& name,
                             const MetricLabels& labels = {});

  /// `name{k=v,...}` with labels sorted by key — the identity under which
  /// the metric appears in snapshots.
  static std::string Key(const std::string& name,
                         const MetricLabels& labels);

  size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// All metrics as a JSON object keyed by metric identity. Counters and
  /// gauges map to their value; histograms to
  /// {count, mean, min, max, p50, p95, p99}.
  crayfish::JsonValue Snapshot() const;
  std::string SnapshotJson() const;

  /// CSV rows: key,kind,count,value_or_mean,min,max,p50,p95,p99
  /// (count/min/max/percentile columns are empty for counters and gauges).
  std::string ToCsv() const;
  crayfish::Status WriteCsv(const std::string& path) const;

 private:
  /// Ordered (lint R3): Snapshot()/ToCsv() iterate these; exported metric
  /// rows must come out byte-identical across runs and platforms.
  std::map<std::string, std::unique_ptr<CounterMetric>> counters_;
  std::map<std::string, std::unique_ptr<GaugeMetric>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>> histograms_;
  /// Guards the three lookup-or-create maps only; metric *updates* are
  /// unsynchronized (lint R6 carve-out). Metric identities are key-sorted,
  /// so the stored set — and every snapshot — is independent of arrival
  /// order.
  mutable std::mutex mu_;
};

}  // namespace crayfish::obs

#endif  // CRAYFISH_OBS_REGISTRY_H_
