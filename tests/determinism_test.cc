// Runtime witness for determinism rules R1-R3 (see DESIGN.md "Determinism
// rules"): the same configuration and seed must reproduce a run bit-for-bit
// — measurements, summary, and the full stage trace — while a different
// seed must actually change the stochastic workload.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

#include "common/logging.h"
#include "core/experiment.h"
#include "obs/registry.h"
#include "obs/slo.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace crayfish::core {
namespace {

ExperimentConfig SmallConfig(uint64_t seed) {
  ExperimentConfig cfg;
  cfg.engine = "flink";
  cfg.serving = "onnx";
  cfg.model = "ffnn";
  cfg.batch_size = 4;
  cfg.input_rate = 300.0;
  cfg.bursty = true;  // exercise the burst scheduler's RNG paths too
  cfg.burst_rate = 600.0;
  cfg.burst_duration_s = 2.0;
  cfg.time_between_bursts_s = 4.0;
  cfg.first_burst_at_s = 2.0;
  cfg.duration_s = 8.0;
  cfg.drain_s = 4.0;
  cfg.seed = seed;
  cfg.enable_tracing = true;
  return cfg;
}

/// Bit-exact rendering of a double: the decimal round trips of iostreams
/// could mask low-bit drift, which is exactly what this test exists to catch.
void AppendBits(std::ostringstream* os, double d) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  *os << std::hex << bits << std::dec << ",";
}

std::string Fingerprint(const ExperimentResult& r) {
  std::ostringstream os;
  os << r.events_sent << "|" << r.events_scored << "|"
     << r.sim_events_executed << "|";
  AppendBits(&os, r.sim_end_s);
  os << "\n";
  for (const Measurement& m : r.measurements) {
    os << m.batch_id << ":" << m.batch_size << ":";
    AppendBits(&os, m.create_time);
    AppendBits(&os, m.append_time);
    os << "\n";
  }
  os << r.summary.ToJson() << "\n";
  if (r.has_fault_metrics) {
    const fault::FaultMetrics& f = r.fault_metrics;
    os << "faults:" << f.faults_injected << ":" << f.retries << ":"
       << f.deliveries << ":" << f.unique_deliveries << ":" << f.duplicates
       << ":" << f.losses << ":";
    AppendBits(&os, f.downtime_s);
    AppendBits(&os, f.mean_time_to_recover_s);
    AppendBits(&os, f.goodput_eps);
    os << "\n";
  }
  if (r.has_autoscale) {
    for (const scale::ScalingAction& a : r.autoscale.actions) {
      os << "scale:";
      AppendBits(&os, a.t_s);
      os << a.from << ">" << a.to << ":" << a.reason << "\n";
    }
    os << "scale-ticks:" << r.autoscale.ticks << ":"
       << r.autoscale.peak_replicas << ":" << r.autoscale.final_replicas
       << "\n";
  }
  if (r.trace != nullptr) os << r.trace->ToStageCsv();
  return os.str();
}

TEST(DeterminismTest, SameSeedReproducesByteForByte) {
  auto first = RunExperiment(SmallConfig(1234));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = RunExperiment(SmallConfig(1234));
  ASSERT_TRUE(second.ok()) << second.status().ToString();

  ASSERT_GT(first->events_scored, 0u);
  const std::string a = Fingerprint(*first);
  const std::string b = Fingerprint(*second);
  ASSERT_FALSE(a.empty());
  // EXPECT_EQ on multi-KB strings prints an unreadable diff; compare and
  // report sizes plus the first divergence instead.
  if (a != b) {
    size_t at = 0;
    while (at < a.size() && at < b.size() && a[at] == b[at]) ++at;
    FAIL() << "runs diverged at byte " << at << " (sizes " << a.size()
           << " vs " << b.size() << "); context: \""
           << a.substr(at > 40 ? at - 40 : 0, 80) << "\" vs \""
           << b.substr(at > 40 ? at - 40 : 0, 80) << "\"";
  }
}

TEST(DeterminismTest, DifferentSeedsProduceDifferentRuns) {
  auto first = RunExperiment(SmallConfig(1234));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = RunExperiment(SmallConfig(99991));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_NE(Fingerprint(*first), Fingerprint(*second))
      << "two seeds produced identical runs; the seed is not reaching the "
         "workload RNG";
}

/// The bursty workload from SmallConfig against an external serving tool,
/// with a broker crash injected mid-run: the fault path adds timers,
/// retries, and jittered backoff, all of which must stay on the seeded
/// RNG for the run to reproduce.
ExperimentConfig FaultedConfig(uint64_t seed) {
  ExperimentConfig cfg = SmallConfig(seed);
  cfg.serving = "tf-serving";
  cfg.enable_tracing = false;  // faulted runs fingerprint via measurements

  fault::FaultSpec crash;
  crash.kind = fault::FaultKind::kBrokerCrash;
  crash.name = "crash0";
  crash.at_s = 3.0;
  crash.until_s = 6.0;
  crash.broker = 0;
  cfg.fault_plan.faults.push_back(crash);
  cfg.fault_plan.retry.timeout_s = 0.3;
  cfg.fault_plan.retry.jitter = 0.2;  // jittered backoff draws from the RNG
  return cfg;
}

TEST(DeterminismTest, FaultedRunReproducesByteForByte) {
  auto first = RunExperiment(FaultedConfig(1234));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = RunExperiment(FaultedConfig(1234));
  ASSERT_TRUE(second.ok()) << second.status().ToString();

  ASSERT_TRUE(first->has_fault_metrics);
  ASSERT_GT(first->fault_metrics.retries, 0u)
      << "the crash produced no retries; the fault path was not exercised";
  const std::string a = Fingerprint(*first);
  const std::string b = Fingerprint(*second);
  if (a != b) {
    size_t at = 0;
    while (at < a.size() && at < b.size() && a[at] == b[at]) ++at;
    FAIL() << "faulted runs diverged at byte " << at << " (sizes "
           << a.size() << " vs " << b.size() << "); context: \""
           << a.substr(at > 40 ? at - 40 : 0, 80) << "\" vs \""
           << b.substr(at > 40 ? at - 40 : 0, 80) << "\"";
  }
}

TEST(DeterminismTest, FaultedRunsDivergeAcrossSeeds) {
  auto first = RunExperiment(FaultedConfig(1234));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = RunExperiment(FaultedConfig(99991));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_NE(Fingerprint(*first), Fingerprint(*second))
      << "two seeds produced identical faulted runs; retry jitter is not "
         "reaching the seeded RNG";
}

TEST(DeterminismTest, TimelineDoesNotPerturbTheRun) {
  // The telemetry sampler is driven by the DES clock inside Run() without
  // scheduling events or touching the RNG, so switching it on must leave
  // every core field — including sim_events_executed — byte-identical.
  ExperimentConfig timed = SmallConfig(777);
  timed.enable_tracing = false;
  ExperimentConfig plain = timed;
  timed.timeline_interval_s = 0.5;
  auto with = RunExperiment(timed);
  auto without = RunExperiment(plain);
  ASSERT_TRUE(with.ok() && without.ok());
  ASSERT_NE(with->timeline, nullptr);
  EXPECT_EQ(without->timeline, nullptr);
  EXPECT_EQ(with->sim_events_executed, without->sim_events_executed)
      << "the sampler scheduled simulation events";
  EXPECT_EQ(Fingerprint(*with), Fingerprint(*without));
}

TEST(DeterminismTest, FaultedTimelineDoesNotPerturbTheRun) {
  // Same neutrality through the fault path: lag probes, fetch-retry
  // counters, and fault tagging all read state without feeding it back.
  ExperimentConfig timed = FaultedConfig(1234);
  ExperimentConfig plain = FaultedConfig(1234);
  timed.timeline_interval_s = 1.0;
  auto with = RunExperiment(timed);
  auto without = RunExperiment(plain);
  ASSERT_TRUE(with.ok() && without.ok());
  EXPECT_EQ(with->sim_events_executed, without->sim_events_executed);
  EXPECT_EQ(Fingerprint(*with), Fingerprint(*without));
}

TEST(DeterminismTest, TimelineExportsReproduceByteForByte) {
  ExperimentConfig cfg = FaultedConfig(1234);
  cfg.timeline_interval_s = 1.0;
  auto first = RunExperiment(cfg);
  auto second = RunExperiment(cfg);
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_NE(first->timeline, nullptr);
  ASSERT_NE(second->timeline, nullptr);
  const std::string jsonl = first->timeline->ToJsonl();
  ASSERT_FALSE(jsonl.empty());
  EXPECT_EQ(jsonl, second->timeline->ToJsonl());
  EXPECT_EQ(first->timeline->ToCsv(), second->timeline->ToCsv());
}

/// The faulted workload with timeline + SLO evaluation enabled — the
/// widest export surface a run has.
ExperimentConfig WideProbeConfig(uint64_t seed) {
  ExperimentConfig cfg = FaultedConfig(seed);
  cfg.timeline_interval_s = 1.0;
  auto slo = obs::SloConfig::FromJsonText(
      R"({"slos": [{"name": "p95", "metric": "p95_latency_s", "max": 5.0,
                    "error_budget": 0.2},
                   {"metric": "throughput_eps", "min": 1.0}]})");
  CRAYFISH_CHECK(slo.ok());
  cfg.slo = *slo;
  return cfg;
}

/// Fingerprint plus every timeline/SLO export: the full byte surface.
std::string WideFingerprint(const ExperimentResult& r) {
  std::string out = Fingerprint(r);
  if (r.timeline != nullptr) {
    out += r.timeline->ToJsonl();
    out += r.timeline->ToCsv();
  }
  if (r.has_slo_report) out += r.slo_report.ToJson().Dump();
  return out;
}

/// Byte equality with the first differing offset and its context on failure.
void ExpectSameBytes(const std::string& want, const std::string& got,
                     const std::string& label) {
  if (got == want) return;
  size_t at = 0;
  while (at < want.size() && at < got.size() && want[at] == got[at]) ++at;
  ADD_FAILURE() << label << ": second run diverged at byte " << at
                << " (sizes " << want.size() << " vs " << got.size()
                << "); context: \"" << want.substr(at > 40 ? at - 40 : 0, 80)
                << "\" vs \"" << got.substr(at > 40 ? at - 40 : 0, 80)
                << "\"";
}

TEST(DeterminismTest, WideFaultedRunReproducesByteForByte) {
  auto first = RunExperiment(WideProbeConfig(1234));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first->has_fault_metrics);
  ASSERT_TRUE(first->has_slo_report);
  ASSERT_NE(first->timeline, nullptr);
  auto second = RunExperiment(WideProbeConfig(1234));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ExpectSameBytes(WideFingerprint(*first), WideFingerprint(*second),
                  "faulted flink");
}

// Every engine routes differently through the producer emit loop, broker
// request/response hops, engine task graphs and serving-side work, so the
// double-run equality is checked per engine on the same faulted pipeline
// with the timeline + SLO surface, and a second seed must change it.
TEST(DeterminismTest, EveryEngineReproducesByteForByte) {
  for (const char* engine : {"flink", "kafka-streams", "spark", "ray"}) {
    ExperimentConfig cfg = WideProbeConfig(1234);
    cfg.engine = engine;
    auto first = RunExperiment(cfg);
    ASSERT_TRUE(first.ok()) << engine << ": " << first.status().ToString();
    ASSERT_GT(first->events_scored, 0u) << engine;
    auto second = RunExperiment(cfg);
    ASSERT_TRUE(second.ok()) << engine << ": " << second.status().ToString();
    const std::string want = WideFingerprint(*first);
    ExpectSameBytes(want, WideFingerprint(*second), engine);
    cfg.seed = 99991;
    auto reseeded = RunExperiment(cfg);
    ASSERT_TRUE(reseeded.ok())
        << engine << ": " << reseeded.status().ToString();
    EXPECT_NE(want, WideFingerprint(*reseeded))
        << engine << ": two seeds produced identical runs";
  }
}

/// An autoscaled flash-crowd run: every resize decision, and therefore
/// every downstream byte, must reproduce from the seed.
ExperimentConfig AutoscaledProbeConfig(uint64_t seed) {
  ExperimentConfig cfg;
  cfg.engine = "flink";
  // TorchServe: worker-count-bound capacity, so the control loop actually
  // resizes during the spike instead of idling at min_replicas.
  cfg.serving = "torchserve";
  cfg.model = "ffnn";
  cfg.input_rate = 100.0;
  cfg.parallelism = 4;
  cfg.duration_s = 30.0;
  cfg.drain_s = 8.0;
  cfg.seed = seed;
  cfg.timeline_interval_s = 1.0;
  cfg.workload.enabled = true;
  cfg.workload.shape.kind = scale::ShapeKind::kFlashCrowd;
  cfg.workload.shape.base_rate = 120.0;
  cfg.workload.shape.spike_at_s = 8.0;
  cfg.workload.shape.ramp_up_s = 2.0;
  cfg.workload.shape.hold_s = 8.0;
  cfg.workload.shape.decay_s = 4.0;
  cfg.workload.shape.spike_mult = 5.0;
  cfg.workload.tenants = 2;
  cfg.workload.tenant_partitions = 4;
  cfg.autoscaler.enabled = true;
  cfg.autoscaler.interval_s = 2.0;
  cfg.autoscaler.min_replicas = 1;
  cfg.autoscaler.max_replicas = 4;
  cfg.autoscaler.step = 1;
  cfg.autoscaler.cooldown_s = 4.0;
  cfg.autoscaler.scale_in_hysteresis = 2;
  cfg.autoscaler.scale_up_lag = 60.0;
  cfg.autoscaler.scale_down_lag = 5.0;
  return cfg;
}

TEST(DeterminismTest, AutoscaledRunReproducesByteForByte) {
  auto first = RunExperiment(AutoscaledProbeConfig(4321));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first->has_autoscale);
  ASSERT_GE(first->autoscale.ticks, 1u);
  auto second = RunExperiment(AutoscaledProbeConfig(4321));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  const std::string want = WideFingerprint(*first);
  ExpectSameBytes(want, WideFingerprint(*second), "autoscaled");
  auto reseeded = RunExperiment(AutoscaledProbeConfig(8642));
  ASSERT_TRUE(reseeded.ok()) << reseeded.status().ToString();
  EXPECT_NE(want, WideFingerprint(*reseeded))
      << "two seeds produced identical autoscaled runs";
}

TEST(DeterminismTest, WideRunsDivergeAcrossSeeds) {
  // A bug that froze RNG-dependent paths would pass the equality tests
  // above while making every seed identical.
  auto first = RunExperiment(WideProbeConfig(1234));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = RunExperiment(WideProbeConfig(99991));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_NE(WideFingerprint(*first), WideFingerprint(*second))
      << "two seeds produced identical runs";
}

/// 64-bit FNV-1a: a pinned export is compared by hash, so the expected
/// value is one constant and not a multi-megabyte golden file.
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 14695981039346656037ULL;
  for (const char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// The overloaded reference run (flink / tf-serving / ffnn, bsz 4, ir 2000,
/// mp 2, 20 s, drain 0, seed 42) with tracing, a 1 s timeline and three
/// SLOs: the run whose four exports a trace-store, interning or
/// metric-handle change must leave byte for byte as they are.
ExperimentConfig ObservedReferenceConfig() {
  ExperimentConfig cfg;
  cfg.engine = "flink";
  cfg.serving = "tf-serving";
  cfg.model = "ffnn";
  cfg.batch_size = 4;
  cfg.input_rate = 2000.0;
  cfg.parallelism = 2;
  cfg.duration_s = 20.0;
  cfg.drain_s = 0.0;
  cfg.seed = 42;
  cfg.enable_tracing = true;
  cfg.timeline_interval_s = 1.0;
  auto slo = obs::SloConfig::FromJsonText(
      R"({"slos": [{"name": "p99-latency", "metric": "p99_latency_s",
                    "max": 0.1, "error_budget": 0.05},
                   {"name": "goodput", "metric": "throughput_eps",
                    "min": 500.0, "error_budget": 0.2},
                   {"name": "bounded-lag", "metric": "consumer_lag",
                    "max": 5000, "error_budget": 0.2}]})");
  CRAYFISH_CHECK(slo.ok());
  cfg.slo = *slo;
  return cfg;
}

TEST(DeterminismTest, ObservedReferenceRunExportsArePinned) {
  auto r = RunExperiment(ObservedReferenceConfig());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r->trace, nullptr);
  ASSERT_NE(r->metrics, nullptr);
  ASSERT_NE(r->timeline, nullptr);
  EXPECT_EQ(r->events_sent, 40000u);
  EXPECT_EQ(r->trace->batch_count(), 40000u);
  EXPECT_EQ(Fnv1a(r->trace->ToChromeTraceJson()), 0x60bf28e1a2ef8293ULL)
      << "Chrome trace";
  EXPECT_EQ(Fnv1a(r->trace->ToStageCsv()), 0x237acb372d641560ULL)
      << "stage CSV";
  EXPECT_EQ(Fnv1a(r->metrics->SnapshotJson()), 0xe36b0e9a56961be3ULL)
      << "registry snapshot";
  EXPECT_EQ(Fnv1a(r->timeline->ToJsonl()), 0xcd7f5755552174baULL)
      << "timeline JSONL";
}

TEST(DeterminismTest, TracingDoesNotPerturbTheRun) {
  ExperimentConfig traced = SmallConfig(777);
  ExperimentConfig untraced = SmallConfig(777);
  untraced.enable_tracing = false;
  auto with = RunExperiment(traced);
  auto without = RunExperiment(untraced);
  ASSERT_TRUE(with.ok() && without.ok());
  // Trace contents differ (one is empty), so compare observable results.
  EXPECT_EQ(with->events_sent, without->events_sent);
  EXPECT_EQ(with->events_scored, without->events_scored);
  EXPECT_EQ(with->sim_events_executed, without->sim_events_executed);
  EXPECT_EQ(with->summary.ToJson(), without->summary.ToJson());
}

}  // namespace
}  // namespace crayfish::core
