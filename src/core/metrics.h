#ifndef CRAYFISH_CORE_METRICS_H_
#define CRAYFISH_CORE_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "core/generator.h"
#include "core/output_consumer.h"

namespace crayfish::core {

/// Summary statistics of one experiment run, produced by the metrics
/// analyzer from the output consumer's measurement log.
struct MetricsSummary {
  uint64_t measurements = 0;
  /// Mean sustained events/s over the post-warmup window.
  double throughput_eps = 0.0;
  /// Latency statistics in milliseconds (post-warmup).
  double latency_mean_ms = 0.0;
  double latency_stddev_ms = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_min_ms = 0.0;
  double latency_max_ms = 0.0;
  /// Simulated time span of the analyzed window (seconds).
  double window_s = 0.0;

  std::string ToString() const;
  /// Machine-readable rendering for tooling (keys match the fields).
  std::string ToJson() const;
};

/// Recovery analysis of one burst (Fig. 8): time from the burst's end
/// until the measured latency stabilizes back at the pre-burst level.
struct BurstRecovery {
  double burst_start_s = 0.0;
  double burst_end_s = 0.0;
  /// -1 when the system never recovered within the run.
  double recovery_s = -1.0;
};

/// The metrics-analyzer component (Fig. 1).
class MetricsAnalyzer {
 public:
  /// `warmup_fraction`: leading fraction of measurements discarded
  /// (paper: 25%).
  static MetricsSummary Summarize(const std::vector<Measurement>& ms,
                                  double warmup_fraction = 0.25);

  /// Writes the raw measurement log as CSV
  /// (batch_id,create_time_s,append_time_s,latency_ms,batch_size).
  static crayfish::Status WriteMeasurementsCsv(
      const std::string& path, const std::vector<Measurement>& ms);

  /// Recovery time per burst: latency is "recovered" at the first time
  /// after the burst end where the windowed mean latency stays within
  /// `threshold_factor` x the pre-burst baseline for `stable_windows`
  /// consecutive windows.
  static std::vector<BurstRecovery> BurstRecoveryTimes(
      const std::vector<Measurement>& ms, const RateSchedule& schedule,
      double run_end_s, double window_s = 1.0,
      double threshold_factor = 1.5, int stable_windows = 3);
};

}  // namespace crayfish::core

#endif  // CRAYFISH_CORE_METRICS_H_
