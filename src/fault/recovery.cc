#include "fault/recovery.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "obs/registry.h"

namespace crayfish::fault {

std::string FaultMetrics::ToString() const {
  std::ostringstream out;
  out << "faults=" << faults_injected << " downtime_s=" << downtime_s
      << " ttr_s=" << mean_time_to_recover_s << " retries=" << retries
      << " deliveries=" << deliveries << " unique=" << unique_deliveries
      << " duplicates=" << duplicates << " losses=" << losses
      << " goodput_eps=" << goodput_eps
      << " throughput_eps=" << throughput_eps;
  return out.str();
}

void RecoveryTracker::BeginFault(const FaultSpec& spec, double now_s) {
  FaultWindow window;
  window.name = spec.name;
  window.kind = spec.kind;
  window.start_s = now_s;
  window.outage = spec.outage();
  windows_.push_back(std::move(window));
}

void RecoveryTracker::EndFault(const std::string& name, double now_s) {
  for (FaultWindow& window : windows_) {
    if (window.name == name && !window.closed()) {
      window.end_s = now_s;
      return;
    }
  }
}

void RecoveryTracker::RecordDelivery(uint64_t batch_id,
                                     double append_time_s) {
  ++deliveries_;
  if (!seen_.insert(batch_id).second) {
    ++duplicates_;
    return;
  }
  // First sight of this batch: it may recover any repaired outage window
  // that has not yet seen a post-repair delivery.
  for (FaultWindow& window : windows_) {
    if (window.outage && window.closed() && window.recovered_at_s < 0.0 &&
        append_time_s >= window.end_s) {
      window.recovered_at_s = append_time_s;
    }
  }
}

FaultMetrics RecoveryTracker::Finalize(uint64_t events_sent,
                                       double run_end_s) const {
  FaultMetrics m;
  m.faults_injected = static_cast<int>(windows_.size());
  m.deliveries = deliveries_;
  m.unique_deliveries = seen_.size();
  m.duplicates = duplicates_;
  m.losses = events_sent > seen_.size() ? events_sent - seen_.size() : 0;
  if (run_end_s > 0.0) {
    m.goodput_eps = static_cast<double>(m.unique_deliveries) / run_end_s;
    m.throughput_eps = static_cast<double>(m.deliveries) / run_end_s;
  }

  // Downtime: merge overlapping outage intervals so concurrent faults do
  // not double-count wall-clock unavailability.
  std::vector<std::pair<double, double>> intervals;
  for (const FaultWindow& window : windows_) {
    if (!window.outage) continue;
    const double end = window.closed() ? window.end_s : run_end_s;
    if (end > window.start_s) intervals.emplace_back(window.start_s, end);
  }
  std::sort(intervals.begin(), intervals.end());
  double cursor = -1.0;
  for (const auto& [start, end] : intervals) {
    const double from = std::max(start, cursor);
    if (end > from) {
      m.downtime_s += end - from;
      cursor = end;
    }
  }

  // Time-to-recover: mean over closed outage windows that saw a fresh
  // delivery after their repair instant.
  double ttr_sum = 0.0;
  int ttr_count = 0;
  for (const FaultWindow& window : windows_) {
    if (window.outage && window.closed() && window.recovered_at_s >= 0.0) {
      ttr_sum += window.recovered_at_s - window.end_s;
      ++ttr_count;
    }
  }
  if (ttr_count > 0) m.mean_time_to_recover_s = ttr_sum / ttr_count;
  m.windows = windows_;
  return m;
}

void RecoveryTracker::PublishMetrics(const FaultMetrics& metrics,
                                     obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  registry->Gauge("fault_faults_injected")
      ->Set(static_cast<double>(metrics.faults_injected));
  registry->Gauge("fault_downtime_s")->Set(metrics.downtime_s);
  registry->Gauge("fault_mean_time_to_recover_s")
      ->Set(metrics.mean_time_to_recover_s);
  registry->Gauge("fault_deliveries")
      ->Set(static_cast<double>(metrics.deliveries));
  registry->Gauge("fault_unique_deliveries")
      ->Set(static_cast<double>(metrics.unique_deliveries));
  registry->Gauge("fault_duplicates")
      ->Set(static_cast<double>(metrics.duplicates));
  registry->Gauge("fault_losses")->Set(static_cast<double>(metrics.losses));
  registry->Gauge("fault_goodput_eps")->Set(metrics.goodput_eps);
  registry->Gauge("fault_throughput_eps")->Set(metrics.throughput_eps);
}

}  // namespace crayfish::fault
