// Telemetry-timeline and SLO-monitor tests: window attribution, probe
// sampling, fault tagging, export determinism, SLO evaluation semantics,
// and the end-to-end acceptance scenario — a broker crash whose lag /
// queue-depth spike and SLO breach windows must overlap the fault's
// [inject, repair] interval.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "obs/registry.h"
#include "obs/slo.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace crayfish::obs {
namespace {

// ------------------------------------------------------------- sampler --

TEST(TimelineSamplerTest, ObservationsLandInTheWindowContainingThem) {
  TimelineSampler tl(1.0);
  tl.ObserveLatency(0.25, 0.010);
  tl.ObserveLatency(0.75, 0.030);
  tl.ObserveLatency(2.5, 0.100, /*events=*/4);
  tl.Finalize(3.0);
  ASSERT_EQ(tl.windows().size(), 3u);
  EXPECT_EQ(tl.windows()[0].completions, 2u);
  EXPECT_DOUBLE_EQ(tl.windows()[0].latency.mean(), 0.020);
  EXPECT_EQ(tl.windows()[1].completions, 0u);
  EXPECT_EQ(tl.windows()[2].completions, 4u);
  EXPECT_DOUBLE_EQ(tl.windows()[0].throughput_eps(), 2.0);
  EXPECT_DOUBLE_EQ(tl.windows()[2].throughput_eps(), 4.0);
  EXPECT_TRUE(tl.finalized());
}

TEST(TimelineSamplerTest, GaugeProbesSampleInstantsAtBoundaries) {
  TimelineSampler tl(1.0);
  double depth = 0.0;
  tl.AddProbe("depth", ProbeKind::kGauge, [&depth]() { return depth; });
  depth = 7.0;
  tl.AdvanceTo(1.0);  // closes window 0 with the current reading
  depth = 3.0;
  tl.AdvanceTo(2.5);  // closes window 1
  depth = 99.0;
  tl.Finalize(2.5);  // trailing partial window 2
  ASSERT_EQ(tl.windows().size(), 3u);
  EXPECT_DOUBLE_EQ(tl.windows()[0].gauges.at("depth"), 7.0);
  EXPECT_DOUBLE_EQ(tl.windows()[1].gauges.at("depth"), 3.0);
  EXPECT_DOUBLE_EQ(tl.windows()[2].gauges.at("depth"), 99.0);
}

TEST(TimelineSamplerTest, CumulativeProbesRecordPerWindowDeltas) {
  TimelineSampler tl(1.0);
  double busy = 0.0;
  tl.AddProbe("busy_s", ProbeKind::kCumulative, [&busy]() { return busy; });
  busy = 0.4;
  tl.AdvanceTo(1.0);
  busy = 1.0;
  tl.AdvanceTo(2.0);
  busy = 1.0;  // idle window: delta 0
  tl.Finalize(3.0);
  ASSERT_EQ(tl.windows().size(), 3u);
  EXPECT_DOUBLE_EQ(tl.windows()[0].counters.at("busy_s"), 0.4);
  EXPECT_DOUBLE_EQ(tl.windows()[1].counters.at("busy_s"), 0.6);
  EXPECT_DOUBLE_EQ(tl.windows()[2].counters.at("busy_s"), 0.0);
}

TEST(TimelineSamplerTest, EventsExactlyOnABoundaryBelongToTheNextWindow) {
  TimelineSampler tl(1.0);
  double reading = 1.0;
  tl.AddProbe("g", ProbeKind::kGauge, [&reading]() { return reading; });
  // The kernel calls AdvanceTo(t) *before* executing the event at t, so a
  // state change scheduled exactly at the boundary must not be visible to
  // the window that closes there.
  tl.AdvanceTo(1.0);
  reading = 2.0;  // the boundary event's effect
  tl.Finalize(1.5);
  EXPECT_DOUBLE_EQ(tl.windows()[0].gauges.at("g"), 1.0);
  EXPECT_DOUBLE_EQ(tl.windows()[1].gauges.at("g"), 2.0);
}

TEST(TimelineSamplerTest, FaultsTagEveryOverlappingWindow) {
  TimelineSampler tl(1.0);
  tl.ObserveLatency(0.5, 0.01);
  tl.BeginFault("crash0", 1.5);
  tl.ObserveLatency(2.5, 0.01);  // windows 2 created while fault active
  tl.EndFault("crash0", 3.2);
  tl.ObserveLatency(4.5, 0.01);
  tl.Finalize(5.0);
  ASSERT_EQ(tl.windows().size(), 5u);
  EXPECT_TRUE(tl.windows()[0].active_faults.empty());
  EXPECT_EQ(tl.windows()[1].active_faults.count("crash0"), 1u);
  EXPECT_EQ(tl.windows()[2].active_faults.count("crash0"), 1u);
  // The repair instant is inside window 3: still tagged.
  EXPECT_EQ(tl.windows()[3].active_faults.count("crash0"), 1u);
  EXPECT_TRUE(tl.windows()[4].active_faults.empty());
}

TEST(TimelineSamplerTest, AnnotationsAndCountsAttributeByTimestamp) {
  TimelineSampler tl(2.0);
  tl.Annotate(1.0, "autoscale-up:tf-serving:3");
  tl.Count("fetch_retries", 0.5, 2.0);
  tl.Count("fetch_retries", 1.5);
  tl.Count("fetch_retries", 3.0);
  tl.Finalize(4.0);
  ASSERT_EQ(tl.windows().size(), 2u);
  ASSERT_EQ(tl.windows()[0].annotations.size(), 1u);
  EXPECT_EQ(tl.windows()[0].annotations[0], "autoscale-up:tf-serving:3");
  EXPECT_DOUBLE_EQ(tl.windows()[0].counters.at("fetch_retries"), 3.0);
  EXPECT_DOUBLE_EQ(tl.windows()[1].counters.at("fetch_retries"), 1.0);
}

TEST(TimelineSamplerTest, FinalizeTrimsTheTrailingPartialWindow) {
  TimelineSampler tl(1.0);
  tl.ObserveLatency(2.25, 0.01);
  tl.Finalize(2.5);
  ASSERT_EQ(tl.windows().size(), 3u);
  EXPECT_DOUBLE_EQ(tl.windows()[2].end_s, 2.5);
  // Throughput uses the trimmed span: 1 completion over half a second.
  EXPECT_DOUBLE_EQ(tl.windows()[2].throughput_eps(), 2.0);
  // Feeds after Finalize are ignored.
  tl.ObserveLatency(2.3, 0.01);
  tl.Count("x", 0.1);
  EXPECT_EQ(tl.windows()[2].completions, 1u);
  EXPECT_EQ(tl.windows()[0].counters.count("x"), 0u);
}

TEST(TimelineSamplerTest, MergedHistogramEqualsWholeRunDistribution) {
  TimelineSampler tl(1.0);
  crayfish::Histogram whole(1e-6, 1e6, 512);
  crayfish::RunningStats stats;
  for (int i = 0; i < 500; ++i) {
    const double t = 0.02 * static_cast<double>(i);
    const double lat = 0.001 * static_cast<double>(1 + i % 97);
    tl.ObserveLatency(t, lat);
    whole.Add(lat);
    stats.Add(lat);
  }
  tl.Finalize(10.0);
  const crayfish::Histogram merged = tl.MergedLatencyHistogram();
  ASSERT_EQ(merged.count(), whole.count());
  for (size_t i = 0; i < whole.num_buckets(); ++i) {
    ASSERT_EQ(merged.bucket_count(i), whole.bucket_count(i)) << "bucket " << i;
  }
  const crayfish::RunningStats mstats = tl.MergedLatencyStats();
  EXPECT_EQ(mstats.count(), stats.count());
  EXPECT_NEAR(mstats.mean(), stats.mean(), 1e-12);
  EXPECT_DOUBLE_EQ(mstats.max(), stats.max());
}

TEST(TimelineSamplerTest, ExportsAreDeterministicAndRfc4180Quoted) {
  auto build = []() {
    TimelineSampler tl(1.0);
    tl.AddProbe("lag", ProbeKind::kGauge, []() { return 5.0; });
    tl.ObserveLatency(0.5, 0.010);
    tl.Annotate(0.25, "note with, comma and \"quote\"");
    tl.BeginFault("crash0", 0.75);
    tl.EndFault("crash0", 1.25);
    tl.Finalize(2.0);
    return std::make_pair(tl.ToJsonl(), tl.ToCsv());
  };
  const auto a = build();
  const auto b = build();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  // JSONL: one object per line, fault + event fields present.
  EXPECT_NE(a.first.find("\"faults\":[\"crash0\"]"), std::string::npos)
      << a.first;
  EXPECT_NE(a.first.find("\"events\""), std::string::npos) << a.first;
  // CSV: the annotation cell contains a comma and a quote, so it must be
  // quoted with the embedded quote doubled.
  EXPECT_NE(a.second.find("\"note with, comma and \"\"quote\"\"\""),
            std::string::npos)
      << a.second;
  EXPECT_NE(a.second.find(",lag"), std::string::npos);
}

// ----------------------------------------------------------------- slo --

TEST(SloConfigTest, ParsesBoundsNamesAndBudgets) {
  auto cfg = SloConfig::FromJsonText(
      R"({"slos": [
            {"name": "p99", "metric": "p99_latency_s", "max": 0.1,
             "error_budget": 0.05},
            {"metric": "throughput_eps", "min": 500}]})");
  ASSERT_TRUE(cfg.ok()) << cfg.status().ToString();
  ASSERT_EQ(cfg->slos.size(), 2u);
  EXPECT_EQ(cfg->slos[0].name, "p99");
  EXPECT_TRUE(cfg->slos[0].has_max);
  EXPECT_FALSE(cfg->slos[0].has_min);
  EXPECT_DOUBLE_EQ(cfg->slos[0].error_budget, 0.05);
  // Name defaults to the metric; min-only bound.
  EXPECT_EQ(cfg->slos[1].name, "throughput_eps");
  EXPECT_TRUE(cfg->slos[1].has_min);
  EXPECT_DOUBLE_EQ(cfg->slos[1].error_budget, 0.0);
  EXPECT_TRUE(cfg->active());
}

TEST(SloConfigTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(SloConfig::FromJsonText("[]").ok());
  EXPECT_FALSE(SloConfig::FromJsonText(R"({"slos": []})").ok());
  // Missing metric.
  EXPECT_FALSE(
      SloConfig::FromJsonText(R"({"slos": [{"max": 1}]})").ok());
  // No bound at all.
  EXPECT_FALSE(
      SloConfig::FromJsonText(R"({"slos": [{"metric": "x"}]})").ok());
  // error_budget out of [0, 1).
  EXPECT_FALSE(SloConfig::FromJsonText(
                   R"({"slos": [{"metric": "x", "max": 1,
                                 "error_budget": 1.0}]})")
                   .ok());
}

/// Six 1 s windows with per-window completions {10, 2, 3, 10, 1, 10}.
/// (The sampler is non-copyable, so the caller owns it and we fill it.)
void FillThroughputTimeline(TimelineSampler* tl) {
  const int completions[] = {10, 2, 3, 10, 1, 10};
  for (int w = 0; w < 6; ++w) {
    for (int i = 0; i < completions[w]; ++i) {
      tl->ObserveLatency(static_cast<double>(w) + 0.1 +
                             0.01 * static_cast<double>(i),
                         0.010);
    }
  }
  tl->Finalize(6.0);
}

TEST(SloConfigTest, RejectsMisspelledFields) {
  // A misspelled "max" beside a valid "min" must not load as min-only.
  auto cfg = SloConfig::FromJsonText(
      R"({"slos": [{"name": "lat", "metric": "p99_latency_s", "mx": 0.1,
                    "min": 0}]})");
  ASSERT_TRUE(cfg.status().IsInvalidArgument()) << cfg.status().ToString();
  EXPECT_NE(cfg.status().message().find("mx"), std::string::npos);
  EXPECT_TRUE(SloConfig::FromJsonText(
                  R"({"slos": [{"metric": "completions", "min": 1}],
                      "slo": []})")
                  .status()
                  .IsInvalidArgument());
  // A bound or budget of the wrong type is an error too: a string "max"
  // used to be dropped, leaving a min-only objective that always passed.
  for (const char* slo :
       {R"({"metric": "p99_latency_s", "max": "0.000001", "min": 0})",
        R"({"metric": "p99_latency_s", "max": 0.1, "error_budget": "0.5"})",
        R"({"metric": "p99_latency_s", "max": null})",
        R"({"metric": "p99_latency_s", "max": 0.1, "name": 7})",
        R"({"metric": "p99_latency_s", "max": 1e999})"}) {
    EXPECT_TRUE(SloConfig::FromJsonText(std::string(R"({"slos": [)") + slo +
                                        "]}")
                    .status()
                    .IsInvalidArgument())
        << slo;
  }
}

TEST(SloMonitorTest, MisspelledMetricIsAnErrorNeverAPass) {
  TimelineSampler tl(1.0);
  FillThroughputTimeline(&tl);
  SloConfig cfg;
  SloSpec spec;
  spec.name = "p99";
  spec.metric = "p99_latncy_s";
  spec.max = 0.1;
  spec.has_max = true;
  cfg.slos.push_back(spec);
  const crayfish::Status checked = SloMonitor::CheckMetrics(cfg, tl);
  ASSERT_TRUE(checked.IsInvalidArgument()) << checked.ToString();
  EXPECT_NE(checked.message().find("p99_latncy_s"), std::string::npos);
  const SloReport report = SloMonitor::Evaluate(cfg, tl);
  EXPECT_FALSE(report.passed);
  EXPECT_FALSE(report.objectives[0].passed);
  EXPECT_EQ(report.objectives[0].windows_evaluated, 0u);
  // With no windows there is nothing to evaluate, so no name is rejected.
  TimelineSampler empty(1.0);
  empty.Finalize(0.0);
  ASSERT_TRUE(empty.windows().empty());
  EXPECT_TRUE(SloMonitor::CheckMetrics(cfg, empty).ok());
  // A gauge some window recorded is a known metric.
  TimelineSampler gauges(1.0);
  gauges.AddProbe("depth", ProbeKind::kGauge, [] { return 3.0; });
  gauges.AdvanceTo(2.5);
  gauges.Finalize(2.5);
  cfg.slos[0].metric = "depth";
  cfg.slos[0].max = 5.0;
  EXPECT_TRUE(SloMonitor::CheckMetrics(cfg, gauges).ok());
  EXPECT_TRUE(SloMonitor::Evaluate(cfg, gauges).passed);
}

TEST(SloMonitorTest, BuildsContiguousBreachRunsAndBudgetVerdicts) {
  TimelineSampler tl(1.0);
  FillThroughputTimeline(&tl);
  SloConfig cfg;
  SloSpec spec;
  spec.name = "goodput";
  spec.metric = "throughput_eps";
  spec.min = 5.0;
  spec.has_min = true;
  spec.error_budget = 0.5;  // 3/6 breached: exactly on budget → pass
  cfg.slos.push_back(spec);
  const SloReport report = SloMonitor::Evaluate(cfg, tl);
  ASSERT_EQ(report.objectives.size(), 1u);
  const SloObjectiveReport& obj = report.objectives[0];
  EXPECT_EQ(obj.windows_evaluated, 6u);
  EXPECT_EQ(obj.windows_breached, 3u);
  EXPECT_DOUBLE_EQ(obj.breach_fraction, 0.5);
  EXPECT_TRUE(obj.passed);
  EXPECT_TRUE(report.passed);
  // Windows 1-2 merge into one run; window 4 is its own.
  ASSERT_EQ(obj.breaches.size(), 2u);
  EXPECT_EQ(obj.breaches[0].first_window, 1u);
  EXPECT_EQ(obj.breaches[0].last_window, 2u);
  EXPECT_DOUBLE_EQ(obj.breaches[0].start_s, 1.0);
  EXPECT_DOUBLE_EQ(obj.breaches[0].end_s, 3.0);
  EXPECT_EQ(obj.breaches[1].first_window, 4u);
  EXPECT_EQ(obj.breaches[1].last_window, 4u);
  // Worst value is the deepest violation (1 ev/s in window 4).
  ASSERT_TRUE(obj.has_worst);
  EXPECT_DOUBLE_EQ(obj.worst_value, 1.0);
  EXPECT_FALSE(report.Summary().empty());
}

TEST(SloMonitorTest, ZeroBudgetFailsOnFirstBreachWithSentinelBurn) {
  TimelineSampler tl(1.0);
  FillThroughputTimeline(&tl);
  SloConfig cfg;
  SloSpec spec;
  spec.name = "strict";
  spec.metric = "throughput_eps";
  spec.min = 5.0;
  spec.has_min = true;
  spec.error_budget = 0.0;  // MLPerf Server style: one bad window fails
  cfg.slos.push_back(spec);
  const SloReport report = SloMonitor::Evaluate(cfg, tl);
  EXPECT_FALSE(report.passed);
  EXPECT_FALSE(report.objectives[0].passed);
  EXPECT_GE(report.objectives[0].budget_burn, 1e8);
}

TEST(SloMonitorTest, LatencyMetricsSkipEmptyWindows) {
  TimelineSampler tl(1.0);
  tl.ObserveLatency(0.5, 0.200);  // breaches
  // Window 1 empty; window 2 conforms.
  tl.ObserveLatency(2.5, 0.010);
  tl.Finalize(3.0);
  SloConfig cfg;
  SloSpec spec;
  spec.name = "p99";
  spec.metric = "p99_latency_s";
  spec.max = 0.1;
  spec.has_max = true;
  cfg.slos.push_back(spec);
  const SloReport report = SloMonitor::Evaluate(cfg, tl);
  // Only the two non-empty windows are evaluated.
  EXPECT_EQ(report.objectives[0].windows_evaluated, 2u);
  EXPECT_EQ(report.objectives[0].windows_breached, 1u);
  ASSERT_EQ(report.objectives[0].breaches.size(), 1u);
  EXPECT_EQ(report.objectives[0].breaches[0].first_window, 0u);
}

TEST(SloMonitorTest, PublishesGaugesAndTraceInstants) {
  TimelineSampler tl(1.0);
  FillThroughputTimeline(&tl);
  SloConfig cfg;
  SloSpec spec;
  spec.name = "goodput";
  spec.metric = "throughput_eps";
  spec.min = 5.0;
  spec.has_min = true;
  cfg.slos.push_back(spec);
  const SloReport report = SloMonitor::Evaluate(cfg, tl);

  MetricsRegistry reg;
  SloMonitor::PublishMetrics(report, &reg);
  EXPECT_DOUBLE_EQ(reg.Gauge("slo_windows_breached", {{"slo", "goodput"}})
                       ->value(),
                   3.0);
  EXPECT_DOUBLE_EQ(reg.Gauge("slo_passed", {{"slo", "goodput"}})->value(),
                   0.0);
  EXPECT_DOUBLE_EQ(reg.Gauge("slo_report_passed")->value(), 0.0);

  TraceRecorder trace;
  SloMonitor::AnnotateTrace(report, &trace);
  // Two breach runs → one breach + one recover instant each.
  ASSERT_EQ(trace.instants().size(), 4u);
  EXPECT_EQ(trace.text(trace.instants()[0].name), "goodput breach");
  const std::string chrome = trace.ToChromeTraceJson();
  EXPECT_NE(chrome.find("\"ph\":\"i\""), std::string::npos) << chrome;

  // Report JSON round-trips through the shared parser.
  auto parsed = crayfish::JsonValue::Parse(report.ToJson().Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  // Null sinks are no-ops, not crashes.
  SloMonitor::PublishMetrics(report, nullptr);
  SloMonitor::AnnotateTrace(report, nullptr);
}

// ------------------------------------------------- e2e acceptance test --

core::ExperimentConfig CrashConfig() {
  core::ExperimentConfig cfg;
  cfg.engine = "flink";
  cfg.serving = "tf-serving";
  cfg.model = "ffnn";
  cfg.input_rate = 600.0;
  cfg.parallelism = 2;
  cfg.duration_s = 30.0;
  cfg.drain_s = 10.0;
  cfg.seed = 42;
  cfg.timeline_interval_s = 1.0;

  fault::FaultSpec crash;
  crash.kind = fault::FaultKind::kBrokerCrash;
  crash.name = "crash0";
  crash.at_s = 10.0;
  crash.until_s = 18.0;
  crash.broker = 0;
  cfg.fault_plan.faults.push_back(crash);

  SloSpec goodput;
  goodput.name = "goodput";
  goodput.metric = "throughput_eps";
  // Healthy windows run at ~input_rate; the outage halves goodput (one of
  // two partitions is on the crashed broker), so a 75% floor isolates it.
  goodput.min = 450.0;
  goodput.has_min = true;
  goodput.error_budget = 0.1;
  cfg.slo.slos.push_back(goodput);
  return cfg;
}

/// True when window [start_s, end_s) touches the closed fault interval.
bool Overlaps(const obs::TimelineWindow& w, double at_s, double until_s) {
  return w.start_s <= until_s && w.end_s > at_s;
}

TEST(TimelineExperimentTest, BrokerCrashSpikeAndSloBreachOverlapTheFault) {
  const core::ExperimentConfig cfg = CrashConfig();
  const double at = cfg.fault_plan.faults[0].at_s;
  const double until = cfg.fault_plan.faults[0].until_s;
  auto result = core::RunExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->timeline, nullptr);
  const auto& windows = result->timeline->windows();
  ASSERT_GE(windows.size(), 40u);

  // Every window overlapping the outage is tagged with the fault, and the
  // inject/repair annotations land in the right windows.
  for (const obs::TimelineWindow& w : windows) {
    if (w.end_s <= at || w.start_s > until) continue;
    EXPECT_EQ(w.active_faults.count("crash0"), 1u)
        << "window " << w.index << " overlaps the outage but is untagged";
  }
  const auto& inject_w = windows[static_cast<size_t>(at)];
  EXPECT_NE(std::find(inject_w.annotations.begin(),
                      inject_w.annotations.end(), "fault-inject:crash0"),
            inject_w.annotations.end());

  // Consumer fetch retries spike while the leader is down: the window with
  // the most retries lies inside [inject, repair].
  size_t retry_peak = 0;
  double retry_max = 0.0;
  double retry_total = 0.0;
  for (const obs::TimelineWindow& w : windows) {
    auto it = w.counters.find("fetch_retries");
    const double v = it == w.counters.end() ? 0.0 : it->second;
    retry_total += v;
    if (v > retry_max) {
      retry_max = v;
      retry_peak = w.index;
    }
  }
  ASSERT_GT(retry_total, 0.0) << "the crash produced no fetch retries";
  EXPECT_TRUE(Overlaps(windows[retry_peak], at, until))
      << "fetch-retry peak at window " << retry_peak;

  // Consumer lag and operator queue depth spike from the outage's backlog.
  // The lag peak must overlap the fault interval itself: it becomes visible
  // when the repaired leader accepts the producer's buffered batches, i.e.
  // in the window containing the repair instant. Operator queues sit one
  // hop downstream and drain that same backlog, so their peak may trail the
  // repair by a window — allow one interval of slack there.
  const auto peak_of = [&windows](const char* gauge) {
    size_t peak = 0;
    double peak_v = -1.0;
    for (const obs::TimelineWindow& w : windows) {
      auto it = w.gauges.find(gauge);
      if (it == w.gauges.end()) continue;
      if (it->second > peak_v) {
        peak_v = it->second;
        peak = w.index;
      }
    }
    return std::make_pair(peak, peak_v);
  };
  const auto [lag_peak, lag_v] = peak_of("consumer_lag");
  ASSERT_GT(lag_v, 0.0) << "consumer_lag never rose above zero";
  EXPECT_TRUE(Overlaps(windows[lag_peak], at, until))
      << "consumer_lag peak at window " << lag_peak << " (["
      << windows[lag_peak].start_s << ", " << windows[lag_peak].end_s
      << ") vs fault [" << at << ", " << until << "])";
  const auto [qd_peak, qd_v] = peak_of("sps_queue_depth");
  ASSERT_GT(qd_v, 0.0) << "sps_queue_depth never rose above zero";
  EXPECT_TRUE(Overlaps(windows[qd_peak], at, until + cfg.timeline_interval_s))
      << "sps_queue_depth peak at window " << qd_peak << " (["
      << windows[qd_peak].start_s << ", " << windows[qd_peak].end_s
      << ") vs fault [" << at << ", " << until << "] + slack";

  // The goodput SLO fails, and at least one of its breach runs overlaps
  // the outage.
  ASSERT_TRUE(result->has_slo_report);
  ASSERT_EQ(result->slo_report.objectives.size(), 1u);
  const SloObjectiveReport& obj = result->slo_report.objectives[0];
  EXPECT_FALSE(obj.passed);
  ASSERT_FALSE(obj.breaches.empty());
  const bool breach_overlaps_fault =
      std::any_of(obj.breaches.begin(), obj.breaches.end(),
                  [&](const SloBreachRun& run) {
                    return run.start_s <= until && run.end_s > at;
                  });
  EXPECT_TRUE(breach_overlaps_fault);

  // Serving-side probes rode along (external tool): worker gauge matches
  // the configured parallelism and the pool accumulated busy time.
  double busy_total = 0.0;
  for (const obs::TimelineWindow& w : windows) {
    auto it = w.counters.find("serving_busy_s");
    if (it != w.counters.end()) busy_total += it->second;
    auto git = w.gauges.find("serving_workers");
    if (git != w.gauges.end()) {
      EXPECT_DOUBLE_EQ(git->second, 2.0);
    }
  }
  EXPECT_GT(busy_total, 0.0);

  // The run-level summary and the timeline agree on completion counts.
  uint64_t completions = 0;
  for (const obs::TimelineWindow& w : windows) completions += w.completions;
  uint64_t measured = 0;
  for (const core::Measurement& m : result->measurements) {
    measured += m.batch_size;
  }
  EXPECT_EQ(completions, measured);
}

TEST(TimelineExperimentTest, MisspelledSloMetricFailsTheRun) {
  core::ExperimentConfig cfg = CrashConfig();
  cfg.duration_s = 8.0;
  cfg.drain_s = 4.0;
  cfg.fault_plan = fault::FaultPlan{};
  auto slo = SloConfig::FromJsonText(
      R"({"slos": [{"name": "p99", "metric": "p99_latncy_s", "max": 0.1}]})");
  ASSERT_TRUE(slo.ok()) << slo.status().ToString();
  cfg.slo = *slo;
  auto result = core::RunExperiment(cfg);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument())
      << result.status().ToString();
}

TEST(TimelineExperimentTest, SloAloneImpliesATimelineWithDefaultWindows) {
  core::ExperimentConfig cfg = CrashConfig();
  cfg.timeline_interval_s = 0.0;  // only the SLO config is set
  cfg.duration_s = 8.0;
  cfg.drain_s = 4.0;
  cfg.fault_plan = fault::FaultPlan{};
  auto result = core::RunExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->timeline, nullptr);
  EXPECT_DOUBLE_EQ(result->timeline->interval_s(), 1.0);
  EXPECT_TRUE(result->has_slo_report);
  // SLO gauges land in a registry even without tracing or faults.
  ASSERT_NE(result->metrics, nullptr);
  EXPECT_DOUBLE_EQ(result->metrics->Gauge("slo_report_passed")->value(),
                   result->slo_report.passed ? 1.0 : 0.0);
}

}  // namespace
}  // namespace crayfish::obs
