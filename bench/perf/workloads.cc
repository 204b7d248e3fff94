#include "bench/perf/workloads.h"

#include <algorithm>
#include <string>
#include <thread>
#include <utility>

#include "fault/plan.h"
#include "scale/policy.h"
#include "scale/workload.h"

namespace crayfish::perf {
namespace {

// The three SLOs of examples/configs/slo_default.json.
constexpr const char* kSloJson = R"({
  "slos": [
    {"name": "p99-latency", "metric": "p99_latency_s", "max": 0.1,
     "error_budget": 0.05},
    {"name": "goodput", "metric": "throughput_eps", "min": 500.0,
     "error_budget": 0.2},
    {"name": "bounded-lag", "metric": "consumer_lag", "max": 5000,
     "error_budget": 0.2}
  ]
})";

// examples/configs/autoscaler_reactive.json.
constexpr const char* kAutoscalerJson = R"({
  "kind": "reactive",
  "interval_s": 2,
  "min_replicas": 1,
  "max_replicas": 6,
  "step": 2,
  "cooldown_s": 4,
  "scale_in_hysteresis": 3,
  "scale_up_lag": 60,
  "scale_down_lag": 5,
  "scale_up_utilization": 0.85,
  "scale_down_utilization": 0.35
})";

// The retry policy of examples/configs/faults_broker_crash.json; broker 0
// is down over t = [30, 36) s, inside the 48 s run.
constexpr const char* kFaultPlanJson = R"({
  "retry": {"max_retries": 10, "timeout_s": 1.0, "initial_backoff_s": 0.05,
            "backoff_multiplier": 2.0, "max_backoff_s": 2.0, "jitter": 0.2},
  "auto_commit_interval_s": 1.0,
  "faults": [
    {"kind": "broker_crash", "name": "crash0", "at_s": 30, "until_s": 36,
     "broker": 0}
  ]
})";

// The flash crowd of examples/configs/workload_flash_crowd.json, widened
// to a 1000-host fleet with 32 tenants of 8 partitions each. The seed and
// a 10% jitter make the shape itself depend on --seed.
std::string FlashCrowdJson(uint64_t seed) {
  return R"({
  "kind": "flash-crowd",
  "base_rate": 150,
  "spike_at_s": 12,
  "spike_mult": 6,
  "ramp_up_s": 2,
  "hold_s": 10,
  "decay_s": 4,
  "jitter": 0.1,
  "seed": )" + std::to_string(seed) +
         R"(,
  "tenants": 32,
  "tenant_partitions": 8,
  "tenant_rate_factor": 0.05,
  "fleet_hosts": 1000
})";
}

core::ExperimentConfig Pipeline(uint64_t seed) {
  core::ExperimentConfig cfg;
  cfg.engine = "flink";
  cfg.serving = "tf-serving";
  cfg.model = "ffnn";
  cfg.batch_size = 4;
  cfg.input_rate = 2000.0;
  cfg.parallelism = 2;
  cfg.duration_s = 20.0;
  cfg.drain_s = 0.0;
  cfg.seed = seed;
  return cfg;
}

crayfish::StatusOr<core::ExperimentConfig> FlashCrowd(uint64_t seed) {
  core::ExperimentConfig cfg;
  cfg.engine = "flink";
  cfg.serving = "torchserve";
  cfg.model = "ffnn";
  cfg.batch_size = 1;
  cfg.input_rate = 150.0;
  cfg.parallelism = 6;
  cfg.duration_s = 40.0;
  cfg.drain_s = 8.0;
  cfg.timeline_interval_s = 1.0;
  cfg.seed = seed;
  CRAYFISH_ASSIGN_OR_RETURN(
      cfg.workload, scale::WorkloadSpec::FromJsonText(FlashCrowdJson(seed)));
  CRAYFISH_ASSIGN_OR_RETURN(
      cfg.autoscaler, scale::PolicyConfig::FromJsonText(kAutoscalerJson));
  CRAYFISH_ASSIGN_OR_RETURN(
      cfg.fault_plan, fault::FaultPlan::FromJsonText(kFaultPlanJson));
  return cfg;
}

std::vector<core::ExperimentConfig> SweepCells(uint64_t seed) {
  std::vector<core::ExperimentConfig> cells;
  for (const char* engine : {"flink", "kafka-streams", "spark", "ray"}) {
    for (const char* serving : {"onnx", "tf-serving", "torchserve"}) {
      core::ExperimentConfig cfg;
      cfg.engine = engine;
      cfg.serving = serving;
      cfg.model = "ffnn";
      cfg.batch_size = 8;
      cfg.input_rate = 400.0;
      cfg.parallelism = 2;
      cfg.duration_s = 30.0;
      cfg.drain_s = 2.0;
      cfg.seed = seed;
      cells.push_back(std::move(cfg));
    }
  }
  return cells;
}

}  // namespace

crayfish::StatusOr<obs::SloConfig> DefaultSlo() {
  return obs::SloConfig::FromJsonText(kSloJson);
}

core::ExperimentConfig Traced(core::ExperimentConfig cfg) {
  cfg.enable_tracing = true;
  cfg.timeline_interval_s = 1.0;
  return cfg;
}

core::ExperimentConfig Unobserved(core::ExperimentConfig cfg) {
  cfg.enable_tracing = false;
  cfg.timeline_interval_s = 0.0;
  cfg.slo = obs::SloConfig{};
  return cfg;
}

crayfish::StatusOr<Workload> MakeWorkload(const std::string& name,
                                          uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "pipeline_overload") {
    w.cells.push_back(Pipeline(seed));
  } else if (name == "pipeline_observed") {
    core::ExperimentConfig cfg = Traced(Pipeline(seed));
    CRAYFISH_ASSIGN_OR_RETURN(cfg.slo, DefaultSlo());
    w.cells.push_back(std::move(cfg));
    w.observed = true;
  } else if (name == "cluster_flash_crowd") {
    CRAYFISH_ASSIGN_OR_RETURN(core::ExperimentConfig cfg, FlashCrowd(seed));
    w.cells.push_back(std::move(cfg));
  } else if (name == "sweep_matrix") {
    w.cells = SweepCells(seed);
    // Half the hardware threads, at most 4: a pool as wide as the machine
    // times the neighbours' load on the spare hardware threads as much as
    // the pool itself.
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    w.jobs = std::clamp(hw / 2, 1, 4);
  } else {
    return crayfish::Status::InvalidArgument("unknown workload: " + name);
  }
  return w;
}

}  // namespace crayfish::perf
