// Pins the cost structure of the DES hot path on the reference run and on
// the flash-crowd cluster run: almost every scheduled action must fit
// InlineAction's inline buffer (broker, network and serving events capture
// `{this, slot}`, not payloads), and the reference run must schedule
// exactly the events it always has.

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "fault/plan.h"
#include "scale/policy.h"
#include "scale/workload.h"

namespace crayfish::core {
namespace {

constexpr double kMaxHeapShare = 0.05;

double HeapShare(const ExperimentResult& r) {
  return static_cast<double>(r.sim_heap_actions) /
         static_cast<double>(r.sim_events_executed);
}

// flink / tf-serving / ffnn, bsz 4, ir 2000, mp 2, 20 s, drain 0, seed 42:
// the overloaded reference run of the perf workloads.
TEST(HotPathTest, ReferenceRunSchedulesInlineActions) {
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
  auto r = RunExperiment(cfg);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->sim_events_executed, 707723u);
  EXPECT_LT(HeapShare(*r), kMaxHeapShare)
      << r->sim_heap_actions << " of " << r->sim_events_executed
      << " actions spilled";
}

// examples/configs/workload_flash_crowd.json on a 1000-host fleet with 32
// tenants, the reactive autoscaler, and broker 0 down over [30, 36) s
// with client retries on: producer and consumer retries through the outage.
TEST(HotPathTest, FlashCrowdWithAutoscalerAndBrokerCrash) {
  ExperimentConfig cfg;
  cfg.engine = "flink";
  cfg.serving = "torchserve";
  cfg.model = "ffnn";
  cfg.batch_size = 1;
  cfg.input_rate = 150.0;
  cfg.parallelism = 6;
  cfg.duration_s = 40.0;
  cfg.drain_s = 8.0;
  cfg.timeline_interval_s = 1.0;
  cfg.seed = 42;
  auto workload = scale::WorkloadSpec::FromJsonText(R"({
    "kind": "flash-crowd", "base_rate": 150, "spike_at_s": 12,
    "spike_mult": 6, "ramp_up_s": 2, "hold_s": 10, "decay_s": 4,
    "jitter": 0.1, "seed": 42, "tenants": 32, "tenant_partitions": 8,
    "tenant_rate_factor": 0.05, "fleet_hosts": 1000})");
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  cfg.workload = *workload;
  auto policy = scale::PolicyConfig::FromJsonText(R"({
    "kind": "reactive", "interval_s": 2, "min_replicas": 1,
    "max_replicas": 6, "step": 2, "cooldown_s": 4,
    "scale_in_hysteresis": 3, "scale_up_lag": 60, "scale_down_lag": 5,
    "scale_up_utilization": 0.85, "scale_down_utilization": 0.35})");
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  cfg.autoscaler = *policy;
  auto plan = fault::FaultPlan::FromJsonText(R"({
    "retry": {"max_retries": 10, "timeout_s": 1.0,
              "initial_backoff_s": 0.05, "backoff_multiplier": 2.0,
              "max_backoff_s": 2.0, "jitter": 0.2},
    "auto_commit_interval_s": 1.0,
    "faults": [{"kind": "broker_crash", "name": "crash0", "at_s": 30,
                "until_s": 36, "broker": 0}]})");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  cfg.fault_plan = *plan;
  auto r = RunExperiment(cfg);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->sim_events_executed, 0u);
  EXPECT_LT(HeapShare(*r), kMaxHeapShare)
      << r->sim_heap_actions << " of " << r->sim_events_executed
      << " actions spilled";
}

}  // namespace
}  // namespace crayfish::core
