#ifndef CRAYFISH_OBS_SLO_H_
#define CRAYFISH_OBS_SLO_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"

namespace crayfish::obs {

class MetricsRegistry;
class TimelineSampler;
class TraceRecorder;
struct TimelineWindow;

/// One declarative service-level objective, evaluated per timeline window.
///
/// `metric` names a per-window series:
///   - built-ins: p50_latency_s / p95_latency_s / p99_latency_s /
///     mean_latency_s / max_latency_s (skipped on windows with zero
///     completions), throughput_eps, completions;
///   - otherwise a timeline counter (missing counters read as 0) or gauge
///     (skipped when the window has no such gauge).
///
/// A window breaches when the resolved value violates `max` and/or `min`.
/// `error_budget` is the fraction of evaluated windows allowed to breach
/// before the objective as a whole fails (MLPerf Server-style percentile
/// bounds use a 0 budget: one bad window fails the run).
struct SloSpec {
  std::string name;
  std::string metric;
  double max = 0.0;
  double min = 0.0;
  bool has_max = false;
  bool has_min = false;
  double error_budget = 0.0;
};

/// A set of SLOs loaded from JSON:
///   {"slos": [{"name": "p99", "metric": "p99_latency_s", "max": 0.1,
///              "error_budget": 0.05},
///             {"name": "goodput", "metric": "throughput_eps",
///              "min": 500}]}
struct SloConfig {
  std::vector<SloSpec> slos;

  bool active() const { return !slos.empty(); }

  static crayfish::StatusOr<SloConfig> FromJsonText(const std::string& text);
  static crayfish::StatusOr<SloConfig> FromFile(const std::string& path);
};

/// A maximal run of consecutive breached windows.
struct SloBreachRun {
  size_t first_window = 0;
  size_t last_window = 0;
  double start_s = 0.0;
  double end_s = 0.0;
};

/// Post-run evaluation of one objective.
struct SloObjectiveReport {
  SloSpec spec;
  size_t windows_evaluated = 0;
  size_t windows_breached = 0;
  /// windows_breached / windows_evaluated (0 when nothing was evaluated).
  double breach_fraction = 0.0;
  /// breach_fraction / error_budget; a zero budget burns infinitely on the
  /// first breach, reported as the sentinel 1e9.
  double budget_burn = 0.0;
  bool passed = true;
  /// Worst observed per-window value (max for `max` bounds, min for `min`
  /// bounds; for two-sided specs, the value furthest outside the band).
  double worst_value = 0.0;
  bool has_worst = false;
  std::vector<SloBreachRun> breaches;
};

/// Whole-run SLO evaluation: per-objective verdicts plus the overall
/// pass/fail conjunction. Stored on ExperimentResult.
struct SloReport {
  std::vector<SloObjectiveReport> objectives;
  size_t windows = 0;
  bool passed = true;

  /// Human-readable multi-line summary for the CLI.
  std::string Summary() const;
  crayfish::JsonValue ToJson() const;
  crayfish::Status WriteJson(const std::string& path) const;
};

/// Evaluates SLO specs against a finalized timeline and fans the verdicts
/// out to the run's observability sinks. Pure analysis — runs after the
/// simulation, never during it.
class SloMonitor {
 public:
  /// InvalidArgument naming the first SLO whose metric is neither a
  /// built-in (throughput_eps, completions, the latency statistics) nor a
  /// counter or gauge that at least one window of `timeline` recorded — a
  /// misspelled metric is an error, never a silent 0. A timeline with no
  /// windows evaluates nothing and rejects no name. RunExperiment calls
  /// this before Evaluate.
  static crayfish::Status CheckMetrics(const SloConfig& config,
                                       const TimelineSampler& timeline);

  /// `timeline` must be finalized. An objective whose metric CheckMetrics
  /// rejects evaluates no window and fails, so it can never pass.
  static SloReport Evaluate(const SloConfig& config,
                            const TimelineSampler& timeline);

  /// Publishes slo_* gauges (per objective: windows breached, breach
  /// fraction, budget burn, passed) into the metrics registry.
  static void PublishMetrics(const SloReport& report, MetricsRegistry* reg);

  /// Emits per-breach-run spans plus breach/recover instant events on the
  /// "slo" track of the Chrome trace.
  static void AnnotateTrace(const SloReport& report, TraceRecorder* tracer);
};

}  // namespace crayfish::obs

#endif  // CRAYFISH_OBS_SLO_H_
