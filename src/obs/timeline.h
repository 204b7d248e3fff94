#ifndef CRAYFISH_OBS_TIMELINE_H_
#define CRAYFISH_OBS_TIMELINE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/status.h"

namespace crayfish::obs {

/// How a registered probe's reading is folded into a window.
enum class ProbeKind {
  /// Instantaneous reading sampled once at the window boundary (queue
  /// depth, consumer lag, pending sim events). Exported as a gauge column.
  kGauge,
  /// Monotone cumulative reading; the window records the delta since the
  /// previous boundary (busy-seconds, retry totals). Exported as a counter
  /// column.
  kCumulative,
};

/// One tumbling window [start_s, end_s) of the telemetry timeline.
struct TimelineWindow {
  size_t index = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  /// Output-topic completions whose append time fell in this window.
  uint64_t completions = 0;
  /// End-to-end latency of those completions.
  crayfish::RunningStats latency;
  /// Mergeable latency histogram: same geometry as the run-level
  /// HistogramMetric, so per-window histograms roll up into run totals.
  crayfish::Histogram latency_hist{1e-6, 1e6, 512};
  /// Event counts recorded via Count() plus deltas of kCumulative probes.
  std::map<std::string, double> counters;
  /// kGauge probe readings taken at the window boundary.
  std::map<std::string, double> gauges;
  /// Point annotations (autoscale decisions, fault inject/repair marks).
  std::vector<std::string> annotations;
  /// Names of injected faults active at any point during the window.
  std::set<std::string> active_faults;
  /// True once the boundary passed and probes were sampled.
  bool closed = false;

  double span_s() const { return end_s - start_s; }
  double throughput_eps() const {
    const double span = span_s();
    return span > 0.0 ? static_cast<double>(completions) / span : 0.0;
  }
};

/// Continuous telemetry timeline: a DES-clock-driven periodic sampler.
///
/// The sampler divides simulated time into tumbling windows of
/// `interval_s` seconds. Two kinds of data feed it:
///
///  - *Pushed* observations, keyed by simulated timestamp: completion
///    latencies (ObserveLatency), named event counts (Count), point
///    annotations (Annotate) and fault activity (BeginFault/EndFault).
///    Each lands in the window containing its timestamp, so late
///    observations still attribute to the right window.
///  - *Pulled* probes (AddProbe): read-only closures sampled exactly once
///    per window, at the boundary. The simulation kernel drives this by
///    calling AdvanceTo(t) before executing each event — no sampler events
///    are ever scheduled and no RNG is consumed, so enabling the timeline
///    cannot perturb a deterministic run (same guarantee as the trace
///    recorder; asserted by tests/determinism_test.cc).
///
/// All maps are ordered (lint R3) and export formatting is fixed, so
/// JSONL/CSV output is byte-identical across same-seed runs.
class TimelineSampler {
 public:
  explicit TimelineSampler(double interval_s);
  TimelineSampler(const TimelineSampler&) = delete;
  TimelineSampler& operator=(const TimelineSampler&) = delete;

  double interval_s() const { return interval_s_; }

  /// Registers a named probe. The closure must stay valid until Finalize;
  /// the experiment driver registers probes over objects that outlive the
  /// run. Probe names must be unique.
  void AddProbe(const std::string& name, ProbeKind kind,
                std::function<double()> fn);

  /// Records one completed batch of `events` records with end-to-end
  /// latency `latency_s`, attributed to the window containing time `t`.
  void ObserveLatency(double t, double latency_s, uint64_t events = 1);

  /// Adds `delta` to counter `name` in the window containing `t`.
  void Count(const std::string& name, double t, double delta = 1.0);

  /// Appends a point annotation to the window containing `t`.
  void Annotate(double t, const std::string& label);

  /// Marks fault `name` active from `t` until EndFault. Every window
  /// overlapping the active interval lists the fault.
  void BeginFault(const std::string& name, double t);
  void EndFault(const std::string& name, double t);

  /// Advances the sampling clock to simulated time `t`, closing (and
  /// probe-sampling) every window whose boundary is <= t. Called by
  /// Simulation::Run before each event executes; idempotent within a
  /// window.
  void AdvanceTo(double t);

  /// Closes the trailing partial window at the end of the run. After this
  /// the timeline is immutable.
  void Finalize(double end_s);
  bool finalized() const { return finalized_; }

  const std::vector<TimelineWindow>& windows() const { return windows_; }

  /// Roll-up of all per-window latency histograms / stats — equals the
  /// whole-run distribution exactly (Histogram::Merge is lossless).
  crayfish::Histogram MergedLatencyHistogram() const;
  crayfish::RunningStats MergedLatencyStats() const;

  /// One JSON object per window, one per line.
  std::string ToJsonl() const;
  /// RFC 4180 CSV; counter/gauge columns are the sorted union across all
  /// windows.
  std::string ToCsv() const;
  crayfish::Status WriteJsonl(const std::string& path) const;
  crayfish::Status WriteCsv(const std::string& path) const;

 private:
  struct Probe {
    std::string name;
    ProbeKind kind;
    std::function<double()> fn;
    /// Last reading, for kCumulative deltas.
    double last = 0.0;
  };

  /// Grows `windows_` through index `idx`, seeding new windows with the
  /// currently active fault set.
  void EnsureWindow(size_t idx);
  TimelineWindow& WindowAt(double t);
  /// Samples every probe into the window being closed.
  void SampleProbes(TimelineWindow* w);

  double interval_s_;
  std::vector<TimelineWindow> windows_;
  std::vector<Probe> probes_;
  std::set<std::string> active_faults_;
  /// Index of the first window whose boundary has not yet passed.
  size_t next_to_close_ = 0;
  bool finalized_ = false;
};

}  // namespace crayfish::obs

#endif  // CRAYFISH_OBS_TIMELINE_H_
