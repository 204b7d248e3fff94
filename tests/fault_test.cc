#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/retry.h"
#include "common/rng.h"
#include "core/experiment.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "fault/recovery.h"
#include "sim/network.h"
#include "sim/simulation.h"

namespace crayfish {
namespace {

// ---------------------------------------------------------------------------
// RetryPolicy

TEST(RetryPolicyTest, BackoffGrowsExponentiallyAndCaps) {
  RetryPolicy p;
  p.max_retries = 10;
  p.initial_backoff_s = 0.05;
  p.backoff_multiplier = 2.0;
  p.max_backoff_s = 0.5;
  p.jitter = 0.0;
  EXPECT_DOUBLE_EQ(p.BackoffFor(0, nullptr), 0.05);
  EXPECT_DOUBLE_EQ(p.BackoffFor(1, nullptr), 0.10);
  EXPECT_DOUBLE_EQ(p.BackoffFor(2, nullptr), 0.20);
  EXPECT_DOUBLE_EQ(p.BackoffFor(3, nullptr), 0.40);
  EXPECT_DOUBLE_EQ(p.BackoffFor(4, nullptr), 0.50);  // capped
  EXPECT_DOUBLE_EQ(p.BackoffFor(9, nullptr), 0.50);
}

TEST(RetryPolicyTest, JitterStaysInsideBand) {
  RetryPolicy p;
  p.max_retries = 5;
  p.initial_backoff_s = 0.1;
  p.backoff_multiplier = 1.0;
  p.jitter = 0.2;
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const double d = p.BackoffFor(0, &rng);
    EXPECT_GE(d, 0.1 * 0.8);
    EXPECT_LE(d, 0.1 * 1.2);
  }
}

TEST(RetryPolicyTest, ValidateRejectsBadFields) {
  RetryPolicy p;
  p.max_retries = 3;
  EXPECT_TRUE(p.Validate().ok());
  p.timeout_s = 0.0;
  EXPECT_FALSE(p.Validate().ok());
  p = RetryPolicy{};
  p.backoff_multiplier = 0.5;
  EXPECT_FALSE(p.Validate().ok());
  p = RetryPolicy{};
  p.jitter = 1.0;
  EXPECT_FALSE(p.Validate().ok());
}

TEST(RetryPolicyTest, RetriableCodes) {
  EXPECT_TRUE(RetryPolicy::IsRetriable(Status::Unavailable("down")));
  EXPECT_TRUE(RetryPolicy::IsRetriable(Status::Timeout("slow")));
  EXPECT_FALSE(RetryPolicy::IsRetriable(Status::InvalidArgument("bad")));
  EXPECT_FALSE(RetryPolicy::IsRetriable(Status::Ok()));
}

// ---------------------------------------------------------------------------
// FaultPlan parsing / overrides

constexpr char kPlanJson[] = R"({
  "retry": {"max_retries": 4, "timeout_s": 0.5, "jitter": 0.1},
  "auto_commit_interval_s": 0.25,
  "faults": [
    {"kind": "broker_crash", "name": "crash0", "at_s": 30, "until_s": 45,
     "broker": 1},
    {"kind": "link_degrade", "at_s": 10, "until_s": 20,
     "from": "kafka-0", "latency_mult": 4.0, "bandwidth_mult": 0.25},
    {"kind": "serving_slowdown", "at_s": 5, "until_s": 15, "factor": 3.0},
    {"kind": "serving_down", "at_s": 12, "until_s": 14}
  ]
})";

TEST(FaultPlanTest, ParsesFullSchema) {
  auto plan = fault::FaultPlan::FromJsonText(kPlanJson);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->active());
  EXPECT_EQ(plan->retry.max_retries, 4);
  EXPECT_DOUBLE_EQ(plan->retry.timeout_s, 0.5);
  EXPECT_DOUBLE_EQ(plan->retry.jitter, 0.1);
  // Unset retry fields keep their defaults.
  EXPECT_DOUBLE_EQ(plan->retry.initial_backoff_s, 0.05);
  EXPECT_DOUBLE_EQ(plan->auto_commit_interval_s, 0.25);
  ASSERT_EQ(plan->faults.size(), 4u);
  EXPECT_EQ(plan->faults[0].kind, fault::FaultKind::kBrokerCrash);
  EXPECT_EQ(plan->faults[0].name, "crash0");
  EXPECT_EQ(plan->faults[0].broker, 1);
  EXPECT_TRUE(plan->faults[0].outage());
  // Unnamed specs get "<kind>-<index>".
  EXPECT_EQ(plan->faults[1].name, "link_degrade-1");
  EXPECT_FALSE(plan->faults[1].outage());  // degrade without drop
  EXPECT_EQ(plan->faults[2].name, "serving_slowdown-2");
  EXPECT_EQ(plan->faults[3].kind, fault::FaultKind::kServingDown);
  EXPECT_TRUE(plan->faults[3].outage());
}

TEST(FaultPlanTest, RejectsMalformedPlans) {
  EXPECT_FALSE(fault::FaultPlan::FromJsonText("[1,2]").ok());
  EXPECT_FALSE(fault::FaultPlan::FromJsonText(
                   R"({"faults": [{"kind": "meteor", "at_s": 1}]})")
                   .ok());
  // until_s must be after at_s.
  EXPECT_FALSE(
      fault::FaultPlan::FromJsonText(
          R"({"faults": [{"kind": "broker_crash", "at_s": 9, "until_s": 3}]})")
          .ok());
  // Bandwidth must stay strictly positive.
  EXPECT_FALSE(fault::FaultPlan::FromJsonText(
                   R"({"faults": [{"kind": "link_degrade", "at_s": 1,
                       "bandwidth_mult": 0.0}]})")
                   .ok());
  // Duplicate names.
  EXPECT_FALSE(fault::FaultPlan::FromJsonText(
                   R"({"faults": [
                     {"kind": "broker_crash", "name": "x", "at_s": 1},
                     {"kind": "serving_down", "name": "x", "at_s": 2}]})")
                   .ok());
  EXPECT_FALSE(fault::FaultPlan::FromFile("/nonexistent/plan.json").ok());
}

TEST(FaultPlanTest, RejectsUnknownFields) {
  // A misspelled field must not silently fall back to its default: here
  // "duration_s" would leave until_s unset, and the crash would never be
  // repaired.
  auto plan = fault::FaultPlan::FromJsonText(
      R"({"faults": [{"kind": "broker_crash", "at_s": 2, "duration_s": 1,
                      "broker": 0}]})");
  ASSERT_FALSE(plan.ok());
  EXPECT_TRUE(plan.status().IsInvalidArgument());
  EXPECT_NE(plan.status().message().find("duration_s"), std::string::npos)
      << plan.status().ToString();
  // The same holds for the retry block and the plan's top level.
  EXPECT_FALSE(fault::FaultPlan::FromJsonText(
                   R"({"retry": {"max_retry": 3}})")
                   .ok());
  EXPECT_FALSE(fault::FaultPlan::FromJsonText(
                   R"({"fault": [{"kind": "serving_down", "at_s": 1}]})")
                   .ok());
  // Values of the wrong type or out of range are errors, not defaults:
  // "broker": 4294967296 used to wrap to broker 0, and "drop": "true" was
  // silently false.
  for (const char* spec :
       {R"({"kind": "broker_crash", "at_s": 1, "broker": 4294967296})",
        R"({"kind": "broker_crash", "at_s": 1, "broker": 1.5})",
        R"({"kind": "link_degrade", "at_s": 1, "drop": "true"})",
        R"({"kind": "broker_crash", "at_s": "1"})",
        R"({"kind": "broker_crash", "at_s": 1e999})",
        R"({"kind": "broker_crash", "at_s": 1, "name": 7})",
        R"({"kind": 3, "at_s": 1})",
        R"({"at_s": 1})"}) {
    EXPECT_TRUE(fault::FaultPlan::FromJsonText(
                    std::string(R"({"faults": [)") + spec + "]}")
                    .status()
                    .IsInvalidArgument())
        << spec;
  }
  EXPECT_TRUE(fault::FaultPlan::FromJsonText(R"({"retry": {"jitter": "0"}})")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(fault::FaultPlan::FromJsonText(R"({"faults": {}})")
                  .status()
                  .IsInvalidArgument());
}

TEST(FaultPlanTest, OverridesAddressRetryNamesAndIndices) {
  auto plan = fault::FaultPlan::FromJsonText(kPlanJson);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan->ApplyOverride("retry.max_retries", "7").ok());
  EXPECT_EQ(plan->retry.max_retries, 7);
  ASSERT_TRUE(plan->ApplyOverride("auto_commit_interval_s", "2.5").ok());
  EXPECT_DOUBLE_EQ(plan->auto_commit_interval_s, 2.5);
  // By name.
  ASSERT_TRUE(plan->ApplyOverride("crash0.at_s", "25").ok());
  EXPECT_DOUBLE_EQ(plan->faults[0].at_s, 25.0);
  // By index.
  ASSERT_TRUE(plan->ApplyOverride("2.factor", "8").ok());
  EXPECT_DOUBLE_EQ(plan->faults[2].factor, 8.0);
  EXPECT_FALSE(plan->ApplyOverride("nosuch.at_s", "1").ok());
  EXPECT_FALSE(plan->ApplyOverride("crash0.flux_capacitor", "1").ok());
  EXPECT_FALSE(plan->ApplyOverride("retry.timeout_s", "soon").ok());
  // The nested retry object and fault list take JSON, not override text.
  EXPECT_FALSE(plan->ApplyOverride("retry", "{}").ok());
  EXPECT_FALSE(plan->ApplyOverride("faults", "[]").ok());
  EXPECT_FALSE(plan->ApplyOverride("crash0.drop", "maybe").ok());
  // A fault's kind and name come from the plan file only.
  EXPECT_FALSE(plan->ApplyOverride("crash0.kind", "link_degrade").ok());
  EXPECT_FALSE(plan->ApplyOverride("0.name", "renamed").ok());
  EXPECT_EQ(plan->faults[0].kind, fault::FaultKind::kBrokerCrash);
  EXPECT_EQ(plan->faults[0].name, "crash0");
}

TEST(FaultPlanTest, IntegerOverridesRejectFractionsAndOverflow) {
  auto plan = fault::FaultPlan::FromJsonText(kPlanJson);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->ApplyOverride("crash0.broker", "1e12").ok());
  EXPECT_FALSE(plan->ApplyOverride("retry.max_retries", "2.5").ok());
  EXPECT_EQ(plan->faults[0].broker, 1);  // rejected values leave no trace
  EXPECT_EQ(plan->retry.max_retries, 4);
  ASSERT_TRUE(plan->ApplyOverride("crash0.broker", "2.0").ok());
  EXPECT_EQ(plan->faults[0].broker, 2);
}

TEST(FaultPlanTest, RemovedKindsAndFieldsAreRejected) {
  // Worker resizes and task restarts are not fault kinds, so a plan that
  // names one fails at load instead of running without it.
  for (const char* kind : {"worker_resize", "task_restart"}) {
    const auto plan = fault::FaultPlan::FromJsonText(
        std::string(R"({"faults": [{"kind": ")") + kind +
        R"(", "at_s": 1}]})");
    ASSERT_FALSE(plan.ok()) << kind;
    EXPECT_TRUE(plan.status().IsInvalidArgument()) << kind;
    EXPECT_NE(plan.status().message().find(kind), std::string::npos)
        << plan.status().ToString();
  }
  // Their fields are unknown on every kind, in JSON and as override text.
  auto plan = fault::FaultPlan::FromJsonText(kPlanJson);
  ASSERT_TRUE(plan.ok());
  for (const char* field :
       {"workers_delta", "task_index", "restart_delay_s"}) {
    const auto loaded = fault::FaultPlan::FromJsonText(
        std::string(R"({"faults": [{"kind": "serving_down", "at_s": 1, ")") +
        field + R"(": 1}]})");
    ASSERT_FALSE(loaded.ok()) << field;
    EXPECT_TRUE(loaded.status().IsInvalidArgument()) << field;
    EXPECT_NE(loaded.status().message().find(std::string(
                  "unknown fault field: ") + field),
              std::string::npos)
        << loaded.status().ToString();
    const Status overridden =
        plan->ApplyOverride(std::string("3.") + field, "1");
    EXPECT_TRUE(overridden.IsInvalidArgument()) << overridden.ToString();
    EXPECT_NE(overridden.message().find(field), std::string::npos)
        << overridden.ToString();
  }
}

// ---------------------------------------------------------------------------
// Link degradation (the shared transfer-time helpers)

TEST(LinkDegradationTest, HelpersScaleLatencyAndBandwidth) {
  sim::LinkSpec spec;
  spec.latency_s = 0.001;
  spec.bandwidth_bytes_per_s = 1000.0;
  sim::LinkDegradation none;
  EXPECT_DOUBLE_EQ(sim::PropagationSeconds(spec, none), 0.001);
  EXPECT_DOUBLE_EQ(sim::TransmitSeconds(spec, none, 500), 0.5);
  sim::LinkDegradation deg;
  deg.latency_mult = 3.0;
  deg.bandwidth_mult = 0.5;
  EXPECT_DOUBLE_EQ(sim::PropagationSeconds(spec, deg), 0.003);
  EXPECT_DOUBLE_EQ(sim::TransmitSeconds(spec, deg, 500), 1.0);
}

TEST(LinkDegradationTest, DropPartitionSwallowsTransfers) {
  sim::Simulation sim(1);
  sim::Link link(&sim, sim::LinkSpec{});
  int delivered = 0;
  link.Transfer(100, [&delivered]() { ++delivered; });
  sim::LinkDegradation deg;
  deg.drop = true;
  link.SetDegradation(deg);
  link.Transfer(100, [&delivered]() { ++delivered; });
  link.SetDegradation(sim::LinkDegradation{});
  link.Transfer(100, [&delivered]() { ++delivered; });
  sim.Run(10.0);
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(link.dropped_transfers(), 1u);
}

TEST(LinkDegradationTest, NonPositiveBandwidthMultiplierChecks) {
  sim::Simulation sim(1);
  sim::Link link(&sim, sim::LinkSpec{});
  sim::LinkDegradation deg;
  deg.bandwidth_mult = 0.0;
  EXPECT_DEATH(link.SetDegradation(deg), "Check failed");
}

TEST(LinkDegradationTest, WildcardRulesPreferMostSpecific) {
  sim::Simulation sim(1);
  sim::Network net(&sim);
  sim::LinkDegradation fabric;
  fabric.latency_mult = 2.0;
  net.SetDegradation("", "", fabric);
  sim::LinkDegradation from_kafka;
  from_kafka.latency_mult = 3.0;
  net.SetDegradation("kafka-0", "", from_kafka);
  sim::LinkDegradation exact;
  exact.latency_mult = 5.0;
  net.SetDegradation("kafka-0", "sps", exact);
  EXPECT_DOUBLE_EQ(net.DegradationFor("kafka-0", "sps").latency_mult, 5.0);
  EXPECT_DOUBLE_EQ(net.DegradationFor("kafka-0", "other").latency_mult, 3.0);
  EXPECT_DOUBLE_EQ(net.DegradationFor("a", "b").latency_mult, 2.0);
}

// ---------------------------------------------------------------------------
// RecoveryTracker

fault::FaultSpec OutageSpec(const std::string& name, double at, double until) {
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kBrokerCrash;
  spec.name = name;
  spec.at_s = at;
  spec.until_s = until;
  return spec;
}

TEST(RecoveryTrackerTest, MergesOverlappingOutageWindows) {
  fault::RecoveryTracker tracker;
  tracker.BeginFault(OutageSpec("a", 10, 20), 10.0);
  tracker.BeginFault(OutageSpec("b", 15, 25), 15.0);
  tracker.EndFault("a", 20.0);
  tracker.EndFault("b", 25.0);
  const fault::FaultMetrics m = tracker.Finalize(0, 100.0);
  EXPECT_EQ(m.faults_injected, 2);
  EXPECT_DOUBLE_EQ(m.downtime_s, 15.0);  // [10, 25), not 10 + 10
}

TEST(RecoveryTrackerTest, OpenWindowsExtendToRunEnd) {
  fault::RecoveryTracker tracker;
  tracker.BeginFault(OutageSpec("a", 90, -1), 90.0);
  const fault::FaultMetrics m = tracker.Finalize(0, 100.0);
  EXPECT_DOUBLE_EQ(m.downtime_s, 10.0);
  EXPECT_LT(m.mean_time_to_recover_s, 0.0);  // never recovered
}

TEST(RecoveryTrackerTest, CountsDuplicatesLossesAndRecovery) {
  fault::RecoveryTracker tracker;
  tracker.BeginFault(OutageSpec("a", 10, 20), 10.0);
  tracker.RecordDelivery(1, 5.0);
  tracker.EndFault("a", 20.0);
  tracker.RecordDelivery(1, 21.0);  // duplicate: does not recover
  tracker.RecordDelivery(2, 22.5);  // first fresh delivery after repair
  tracker.RecordDelivery(3, 23.0);
  const fault::FaultMetrics m = tracker.Finalize(/*events_sent=*/5, 100.0);
  EXPECT_EQ(m.deliveries, 4u);
  EXPECT_EQ(m.unique_deliveries, 3u);
  EXPECT_EQ(m.duplicates, 1u);
  EXPECT_EQ(m.losses, 2u);
  EXPECT_DOUBLE_EQ(m.mean_time_to_recover_s, 2.5);
  ASSERT_EQ(m.windows.size(), 1u);
  EXPECT_DOUBLE_EQ(m.windows[0].recovered_at_s, 22.5);
  EXPECT_FALSE(m.ToString().empty());
}

// ---------------------------------------------------------------------------
// End-to-end faulted experiments

core::ExperimentConfig FaultedConfig(const std::string& serving) {
  core::ExperimentConfig cfg;
  cfg.engine = "flink";
  cfg.serving = serving;
  cfg.model = "ffnn";
  cfg.input_rate = 150.0;
  cfg.parallelism = 2;
  cfg.duration_s = 30.0;
  cfg.drain_s = 10.0;
  cfg.seed = 42;
  return cfg;
}

fault::FaultSpec BrokerCrash(double at, double until) {
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kBrokerCrash;
  spec.name = "crash0";
  spec.at_s = at;
  spec.until_s = until;
  spec.broker = 0;
  return spec;
}

TEST(FaultExperimentTest, BrokerCrashRecoversWithoutLoss) {
  core::ExperimentConfig cfg = FaultedConfig("tf-serving");
  cfg.fault_plan.faults.push_back(BrokerCrash(10.0, 18.0));
  auto result = core::RunExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->has_fault_metrics);
  const fault::FaultMetrics& m = result->fault_metrics;
  EXPECT_EQ(m.faults_injected, 1);
  EXPECT_DOUBLE_EQ(m.downtime_s, 8.0);
  EXPECT_GT(m.retries, 0u);
  EXPECT_GE(m.mean_time_to_recover_s, 0.0);
  // At-least-once end to end: every batch the producer sent reaches the
  // output topic despite the dead broker.
  EXPECT_EQ(m.losses, 0u);
  EXPECT_EQ(m.unique_deliveries, result->events_sent);
  // The scorecard also lands in the metrics registry.
  ASSERT_NE(result->metrics, nullptr);
  EXPECT_DOUBLE_EQ(
      result->metrics->Gauge("fault_downtime_s")->value(), 8.0);
}

/// Run horizon (duration + drain) the injector tests arm against.
constexpr double kHorizonS = 10.0;

TEST(FaultInjectorTest, ArmRejectsAFaultAtOrAfterTheRunHorizon) {
  sim::Simulation sim(1);
  sim::Network network(&sim);
  broker::KafkaCluster cluster(&sim, &network, broker::ClusterConfig{});
  fault::RecoveryTracker tracker;
  fault::FaultPlan plan;
  plan.faults.push_back(BrokerCrash(2.0, 3.0));
  plan.faults.push_back(BrokerCrash(kHorizonS, kHorizonS + 1.0));
  plan.faults.back().name = "too-late";
  fault::FaultInjector injector(&sim, &network, &cluster, &tracker, &plan);
  const Status armed = injector.Arm(kHorizonS);
  ASSERT_TRUE(armed.IsInvalidArgument()) << armed.ToString();
  EXPECT_NE(armed.message().find("too-late"), std::string::npos)
      << armed.ToString();
  EXPECT_EQ(sim.pending_events(), 0u);
  // Just inside the horizon arms (a repair past the end is fine: the
  // outage simply lasts until the run stops).
  plan.faults.back().at_s = kHorizonS - 0.5;
  fault::FaultInjector valid(&sim, &network, &cluster, &tracker, &plan);
  EXPECT_TRUE(valid.Arm(kHorizonS).ok());
}

TEST(FaultExperimentTest, FaultAfterTheRunEndsFailsTheRun) {
  core::ExperimentConfig cfg = FaultedConfig("tf-serving");
  const double end_s = cfg.duration_s + cfg.drain_s;
  cfg.fault_plan.faults.push_back(BrokerCrash(end_s, end_s + 1.0));
  auto result = core::RunExperiment(cfg);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument())
      << result.status().ToString();
  // A zero-length run only builds and tears down the deployment (how set-up
  // is timed): it has no horizon to check.
  cfg.duration_s = 0.0;
  cfg.drain_s = 0.0;
  auto setup_only = core::RunExperiment(cfg);
  EXPECT_TRUE(setup_only.ok()) << setup_only.status().ToString();
}

TEST(FaultInjectorTest, ArmRejectsABrokerTheClusterDoesNotHave) {
  sim::Simulation sim(1);
  sim::Network network(&sim);
  broker::KafkaCluster cluster(&sim, &network, broker::ClusterConfig{});
  ASSERT_EQ(cluster.broker_hosts().size(), 4u);
  fault::RecoveryTracker tracker;
  fault::FaultPlan plan;
  plan.faults.push_back(BrokerCrash(2.0, 3.0));
  plan.faults.back().broker = 4;
  fault::FaultInjector injector(&sim, &network, &cluster, &tracker, &plan);
  const Status armed = injector.Arm(kHorizonS);
  ASSERT_FALSE(armed.ok());
  EXPECT_TRUE(armed.IsInvalidArgument());
  EXPECT_NE(armed.message().find("broker 4"), std::string::npos)
      << armed.ToString();
  // The highest real index arms, and nothing was scheduled by the
  // rejected plan.
  EXPECT_EQ(sim.pending_events(), 0u);
  plan.faults.back().broker = 3;
  fault::FaultInjector valid(&sim, &network, &cluster, &tracker, &plan);
  EXPECT_TRUE(valid.Arm(kHorizonS).ok());
}

TEST(FaultInjectorTest, ArmRejectsALinkHostTheNetworkDoesNotHave) {
  sim::Simulation sim(1);
  sim::Network network(&sim);
  broker::KafkaCluster cluster(&sim, &network, broker::ClusterConfig{});
  ASSERT_TRUE(network.AddHost(sim::Host{"client"}).ok());
  fault::RecoveryTracker tracker;
  fault::FaultPlan plan;
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kLinkDegrade;
  spec.name = "slow-net";
  spec.at_s = 1.0;
  spec.until_s = 2.0;
  spec.latency_mult = 4.0;
  spec.from = "client";
  spec.to = "ghost";
  plan.faults.push_back(spec);
  fault::FaultInjector injector(&sim, &network, &cluster, &tracker, &plan);
  const Status armed = injector.Arm(kHorizonS);
  ASSERT_FALSE(armed.ok());
  EXPECT_TRUE(armed.IsInvalidArgument());
  EXPECT_NE(armed.message().find("slow-net"), std::string::npos)
      << armed.ToString();
  EXPECT_NE(armed.message().find("'ghost'"), std::string::npos)
      << armed.ToString();
  EXPECT_EQ(sim.pending_events(), 0u);
  // "*" is a host name like any other, not a wildcard.
  plan.faults.back().from = "*";
  plan.faults.back().to = "";
  fault::FaultInjector star(&sim, &network, &cluster, &tracker, &plan);
  const Status star_armed = star.Arm(kHorizonS);
  ASSERT_FALSE(star_armed.ok());
  EXPECT_NE(star_armed.message().find("'*'"), std::string::npos)
      << star_armed.ToString();
  // Real hosts and the "" wildcard arm.
  plan.faults.back().from = "client";
  plan.faults.back().to = "";
  fault::FaultInjector valid(&sim, &network, &cluster, &tracker, &plan);
  EXPECT_TRUE(valid.Arm(kHorizonS).ok());
  plan.faults.back().from = "";
  plan.faults.back().to = cluster.broker_hosts().front();
  fault::FaultInjector to_broker(&sim, &network, &cluster, &tracker, &plan);
  EXPECT_TRUE(to_broker.Arm(kHorizonS).ok());
}

TEST(FaultExperimentTest, NonexistentBrokerFailsTheRun) {
  core::ExperimentConfig cfg = FaultedConfig("tf-serving");
  cfg.fault_plan.faults.push_back(BrokerCrash(2.0, 3.0));
  cfg.fault_plan.faults.back().broker = 99999;
  auto result = core::RunExperiment(cfg);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(FaultExperimentTest, FaultedRunIsSeedReproducible) {
  core::ExperimentConfig cfg = FaultedConfig("tf-serving");
  cfg.fault_plan.faults.push_back(BrokerCrash(10.0, 18.0));
  auto a = core::RunExperiment(cfg);
  auto b = core::RunExperiment(cfg);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->measurements.size(), b->measurements.size());
  for (size_t i = 0; i < a->measurements.size(); ++i) {
    EXPECT_EQ(a->measurements[i].batch_id, b->measurements[i].batch_id);
    EXPECT_EQ(a->measurements[i].append_time,
              b->measurements[i].append_time);
  }
  EXPECT_EQ(a->fault_metrics.retries, b->fault_metrics.retries);
  EXPECT_EQ(a->fault_metrics.ToString(), b->fault_metrics.ToString());

  cfg.seed = 43;
  auto c = core::RunExperiment(cfg);
  ASSERT_TRUE(c.ok());
  bool diverged = c->measurements.size() != a->measurements.size();
  for (size_t i = 0; !diverged && i < a->measurements.size(); ++i) {
    diverged = a->measurements[i].append_time != c->measurements[i].append_time;
  }
  EXPECT_TRUE(diverged) << "seed 43 reproduced seed 42 byte-for-byte";
}

TEST(FaultExperimentTest, ServingOutageRetriesThroughIt) {
  core::ExperimentConfig cfg = FaultedConfig("tf-serving");
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kServingDown;
  spec.name = "down0";
  spec.at_s = 10.0;
  spec.until_s = 13.0;
  cfg.fault_plan.faults.push_back(spec);
  auto result = core::RunExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->fault_metrics.retries, 0u);
  EXPECT_EQ(result->fault_metrics.losses, 0u);
  EXPECT_DOUBLE_EQ(result->fault_metrics.downtime_s, 3.0);
}

TEST(FaultExperimentTest, ServingSlowdownStretchesLatency) {
  core::ExperimentConfig cfg = FaultedConfig("tf-serving");
  auto baseline = core::RunExperiment(cfg);
  ASSERT_TRUE(baseline.ok());
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kServingSlowdown;
  spec.name = "slow0";
  spec.at_s = 5.0;
  spec.until_s = 25.0;
  spec.factor = 10.0;
  cfg.fault_plan.faults.push_back(spec);
  auto slowed = core::RunExperiment(cfg);
  ASSERT_TRUE(slowed.ok()) << slowed.status().ToString();
  EXPECT_GT(slowed->summary.latency_mean_ms,
            baseline->summary.latency_mean_ms);
  EXPECT_EQ(slowed->fault_metrics.losses, 0u);
}

TEST(FaultExperimentTest, ServingFaultAgainstEmbeddedToolFails) {
  core::ExperimentConfig cfg = FaultedConfig("onnx");
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kServingSlowdown;
  spec.name = "slow0";
  spec.at_s = 5.0;
  spec.until_s = 10.0;
  cfg.fault_plan.faults.push_back(spec);
  auto result = core::RunExperiment(cfg);
  EXPECT_FALSE(result.ok());
}

TEST(FaultExperimentTest, FaultFreePlanMatchesBaselineByteForByte) {
  // Compiling the subsystem in must not perturb an unfaulted run: a run
  // with an empty plan is bit-equal to one that never saw fault code.
  core::ExperimentConfig cfg = FaultedConfig("tf-serving");
  auto base = core::RunExperiment(cfg);
  ASSERT_TRUE(base.ok());
  core::ExperimentConfig cfg2 = FaultedConfig("tf-serving");
  cfg2.fault_plan = fault::FaultPlan{};  // inactive: no faults scheduled
  auto same = core::RunExperiment(cfg2);
  ASSERT_TRUE(same.ok());
  ASSERT_EQ(base->measurements.size(), same->measurements.size());
  for (size_t i = 0; i < base->measurements.size(); ++i) {
    EXPECT_EQ(base->measurements[i].append_time,
              same->measurements[i].append_time);
  }
}

}  // namespace
}  // namespace crayfish
