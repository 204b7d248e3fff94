// Cluster-scale subsystem tests (src/scale, ROADMAP item 2): workload
// shapes are seed-deterministic and integrate to their configured volume;
// the autoscaler's guard rails (bounds, step clamp, cooldown, scale-in
// hysteresis) hold; the reactive policy rides a flash crowd up and back
// down without losing a record; the predictive policy beats the reactive
// one on SLO-breach windows under a diurnal load; the demand search
// bisects to the minimal SLO-holding replica count; and the thousand-host
// multi-tenant acceptance run is byte-for-byte identical to serial under
// the partitioned DES engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "broker/cluster.h"
#include "common/logging.h"
#include "core/experiment.h"
#include "core/sweep.h"
#include "fault/plan.h"
#include "obs/slo.h"
#include "obs/timeline.h"
#include "scale/autoscaler.h"
#include "scale/demand.h"
#include "scale/policy.h"
#include "scale/workload.h"
#include "sim/network.h"
#include "sim/simulation.h"

namespace crayfish::scale {
namespace {

WorkloadShape FlashCrowdShape() {
  WorkloadShape s;
  s.kind = ShapeKind::kFlashCrowd;
  s.base_rate = 100.0;
  s.spike_at_s = 10.0;
  s.ramp_up_s = 2.0;
  s.hold_s = 8.0;
  s.decay_s = 4.0;
  s.spike_mult = 4.0;
  return s;
}

// --- workload shapes ---

TEST(WorkloadShapeTest, ShapesAreSeedDeterministic) {
  WorkloadShape a = FlashCrowdShape();
  a.jitter = 0.3;
  a.seed = 99;
  WorkloadShape b = a;
  bool any_jittered = false;
  for (double t = 0.0; t < 60.0; t += 0.37) {
    ASSERT_DOUBLE_EQ(a.RateAt(t), b.RateAt(t)) << "t=" << t;
    ASSERT_GE(a.RateAt(t), a.floor_rate);
    WorkloadShape smooth = a;
    smooth.jitter = 0.0;
    if (a.RateAt(t) != smooth.RateAt(t)) any_jittered = true;
  }
  EXPECT_TRUE(any_jittered) << "jitter=0.3 never moved the rate";
}

TEST(WorkloadShapeTest, JitterVariesWithSeed) {
  WorkloadShape a = FlashCrowdShape();
  a.jitter = 0.3;
  a.seed = 1;
  WorkloadShape b = a;
  b.seed = 2;
  bool any_diff = false;
  for (double t = 0.0; t < 30.0 && !any_diff; t += 0.5) {
    if (a.RateAt(t) != b.RateAt(t)) any_diff = true;
  }
  EXPECT_TRUE(any_diff) << "the seed is not reaching the jitter hash";
}

TEST(WorkloadShapeTest, DiurnalIntegratesToBaseVolumeOverFullPeriods) {
  WorkloadShape s;
  s.kind = ShapeKind::kDiurnal;
  s.base_rate = 500.0;
  s.amplitude = 0.8;
  s.period_s = 60.0;
  // The sinusoid integrates to zero over whole periods, so two periods of
  // volume must equal the flat base-rate volume.
  const double volume = s.IntegrateRate(0.0, 120.0);
  EXPECT_NEAR(volume, 500.0 * 120.0, 0.01 * 500.0 * 120.0);
}

TEST(WorkloadShapeTest, FlashCrowdPeaksAtSpikeMultiple) {
  WorkloadShape s = FlashCrowdShape();
  EXPECT_DOUBLE_EQ(s.RateAt(0.0), 100.0);
  EXPECT_DOUBLE_EQ(s.RateAt(14.0), 400.0);  // mid-hold
  EXPECT_DOUBLE_EQ(s.RateAt(40.0), 100.0);  // after decay
  EXPECT_GT(s.RateAt(11.0), 100.0);         // mid-ramp
  EXPECT_LT(s.RateAt(11.0), 400.0);
}

TEST(WorkloadShapeTest, ReplayInterpolatesAndClampsAtEdges) {
  WorkloadShape s;
  s.kind = ShapeKind::kReplay;
  s.points = {{10.0, 100.0}, {20.0, 200.0}};
  EXPECT_DOUBLE_EQ(s.RateAt(0.0), 100.0);   // clamps before first knot
  EXPECT_DOUBLE_EQ(s.RateAt(15.0), 150.0);  // linear between knots
  EXPECT_DOUBLE_EQ(s.RateAt(30.0), 200.0);  // clamps after last knot
}

TEST(WorkloadShapeTest, ValidateRejectsBadShapes) {
  WorkloadShape s = FlashCrowdShape();
  EXPECT_TRUE(s.Validate().ok());
  s.jitter = 1.0;
  EXPECT_FALSE(s.Validate().ok()) << "jitter must stay below 1";
  s = FlashCrowdShape();
  s.spike_mult = 0.5;
  EXPECT_FALSE(s.Validate().ok());
  WorkloadShape r;
  r.kind = ShapeKind::kReplay;
  EXPECT_FALSE(r.Validate().ok()) << "replay needs points";
  r.points = {{20.0, 100.0}, {10.0, 50.0}};
  EXPECT_FALSE(r.Validate().ok()) << "replay points must be sorted";
}

TEST(WorkloadSpecTest, JsonAndOverridesRoundTrip) {
  auto spec = WorkloadSpec::FromJsonText(R"({
    "shape": {"kind": "flash-crowd", "base_rate": 250, "spike_at_s": 30,
              "spike_mult": 3, "jitter": 0.1, "seed": 7},
    "tenants": 4, "tenant_partitions": 16, "tenant_rate_factor": 0.1,
    "fleet_hosts": 100})");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_TRUE(spec->enabled);
  EXPECT_EQ(spec->shape.kind, ShapeKind::kFlashCrowd);
  EXPECT_DOUBLE_EQ(spec->shape.base_rate, 250.0);
  EXPECT_EQ(spec->tenants, 4);
  EXPECT_EQ(spec->tenant_partitions, 16);
  EXPECT_EQ(spec->fleet_hosts, 100);
  EXPECT_TRUE(spec->Validate().ok());

  WorkloadSpec o;
  EXPECT_FALSE(o.enabled);
  ASSERT_TRUE(o.ApplyOverride("kind", "diurnal").ok());
  ASSERT_TRUE(o.ApplyOverride("base_rate", "750").ok());
  ASSERT_TRUE(o.ApplyOverride("tenants", "3").ok());
  EXPECT_TRUE(o.enabled);
  EXPECT_EQ(o.shape.kind, ShapeKind::kDiurnal);
  EXPECT_DOUBLE_EQ(o.shape.base_rate, 750.0);
  EXPECT_EQ(o.tenants, 3);
  EXPECT_FALSE(o.ApplyOverride("no_such_key", "1").ok());
}

TEST(WorkloadSpecTest, IntegerOverridesRejectFractionsAndOverflow) {
  WorkloadSpec o;
  EXPECT_FALSE(o.ApplyOverride("seed", "-1").ok());
  EXPECT_FALSE(o.ApplyOverride("seed", "1e30").ok());
  EXPECT_FALSE(o.ApplyOverride("tenants", "2.5").ok());
  EXPECT_FALSE(o.ApplyOverride("fleet_hosts", "1e12").ok());
  EXPECT_EQ(o.shape.seed, 42u);
  ASSERT_TRUE(o.ApplyOverride("seed", "7").ok());
  EXPECT_EQ(o.shape.seed, 7u);

  PolicyConfig p;
  EXPECT_FALSE(p.ApplyOverride("min_replicas", "2.5").ok());
  EXPECT_FALSE(p.ApplyOverride("seed", "-1").ok());
  ASSERT_TRUE(p.ApplyOverride("max_replicas", "16.0").ok());
  EXPECT_EQ(p.max_replicas, 16);
}

TEST(WorkloadSpecTest, JsonSeedPastTwoToThe53IsRejectedNotRounded) {
  // JSON numbers are doubles: 9007199254740993 would load as ...992. The
  // same seed as override text stays exact.
  const std::string kPastExact = "9007199254740993";
  EXPECT_TRUE(WorkloadSpec::FromJsonText(
                  R"({"kind": "constant", "seed": )" + kPastExact + "}")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(PolicyConfig::FromJsonText(R"({"seed": )" + kPastExact + "}")
                  .status()
                  .IsInvalidArgument());
  auto shape = WorkloadSpec::FromJsonText(
      R"({"kind": "constant", "seed": 9007199254740991})");
  ASSERT_TRUE(shape.ok()) << shape.status().ToString();
  EXPECT_EQ(shape->shape.seed, 9007199254740991u);
  auto policy = PolicyConfig::FromJsonText(R"({"seed": 9007199254740991})");
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  EXPECT_EQ(policy->seed, 9007199254740991u);

  WorkloadSpec o;
  ASSERT_TRUE(o.ApplyOverride("seed", kPastExact).ok());
  EXPECT_EQ(o.shape.seed, 9007199254740993u);
  PolicyConfig p;
  ASSERT_TRUE(p.ApplyOverride("seed", kPastExact).ok());
  EXPECT_EQ(p.seed, 9007199254740993u);
}

TEST(WorkloadSpecTest, MisspelledJsonFieldIsRejected) {
  // Flat layout: "base_rat" is neither a shape key nor a spec key.
  auto flat = WorkloadSpec::FromJsonText(
      R"({"kind": "flash-crowd", "base_rat": 300, "spike_at_s": 12})");
  ASSERT_TRUE(flat.status().IsInvalidArgument()) << flat.status().ToString();
  EXPECT_NE(flat.status().message().find("base_rat"), std::string::npos);
  // Nested layout: a shape key beside "shape", and a typo inside it.
  EXPECT_TRUE(WorkloadSpec::FromJsonText(
                  R"({"shape": {"kind": "constant"}, "base_rate": 300})")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(WorkloadSpec::FromJsonText(
                  R"({"shape": {"kind": "constant", "base_rat": 300}})")
                  .status()
                  .IsInvalidArgument());
  // Spec keys sit beside either layout.
  EXPECT_TRUE(WorkloadSpec::FromJsonText(
                  R"({"shape": {"kind": "constant"}, "tenants": 2})")
                  .ok());
  EXPECT_TRUE(
      WorkloadSpec::FromJsonText(R"({"kind": "constant", "tenants": 2})")
          .ok());
  // Replay points get the same check: "rat" used to load as rate 0.
  auto point = WorkloadSpec::FromJsonText(
      R"({"kind": "replay", "points": [{"t_s": 0, "rat": 500}]})");
  ASSERT_TRUE(point.status().IsInvalidArgument())
      << point.status().ToString();
  EXPECT_NE(point.status().message().find("rat"), std::string::npos);
  // Wrong types and out-of-range numbers are errors, not defaults.
  for (const char* json :
       {R"({"kind": "constant", "base_rate": "300"})",
        R"({"kind": "constant", "seed": -1})",
        R"({"kind": "constant", "tenants": 2.5})",
        R"({"kind": 1})",
        R"({"kind": "replay", "points": [[0, "5"]]})",
        R"({"kind": "replay", "points": [[0, 5, 6]]})",
        R"({"shape": "constant"})",
        R"({"kind": "constant", "fleet_host_prefix": 3})"}) {
    EXPECT_TRUE(WorkloadSpec::FromJsonText(json).status().IsInvalidArgument())
        << json;
  }
}

TEST(PolicyConfigTest, MisspelledJsonFieldIsRejected) {
  auto cfg = PolicyConfig::FromJsonText(
      R"({"kind": "reactive", "interval_s": 2, "cooldwn_s": 4})");
  ASSERT_TRUE(cfg.status().IsInvalidArgument()) << cfg.status().ToString();
  EXPECT_NE(cfg.status().message().find("cooldwn_s"), std::string::npos);
  // JSON numbers convert like override text: 2.5 replicas used to
  // truncate to 2, "5" fell back to the default interval, and a seed of -1
  // became 2^64 - 1.
  for (const char* json : {R"({"min_replicas": 2.5})",
                           R"({"interval_s": "5"})",
                           R"({"seed": -1})",
                           R"({"max_replicas": 1e12})",
                           R"({"kind": 1})"}) {
    EXPECT_TRUE(PolicyConfig::FromJsonText(json).status().IsInvalidArgument())
        << json;
  }
  auto exact = PolicyConfig::FromJsonText(R"({"max_replicas": 16.0})");
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_EQ(exact->max_replicas, 16);
}

TEST(ExampleConfigsTest, EveryJsonConfigLoadsUnderStrictFieldChecks) {
  const std::string dir = CRAYFISH_EXAMPLE_CONFIGS_DIR;
  auto workload = WorkloadSpec::FromFile(dir + "/workload_flash_crowd.json");
  EXPECT_TRUE(workload.ok()) << workload.status().ToString();
  auto policy = PolicyConfig::FromFile(dir + "/autoscaler_reactive.json");
  EXPECT_TRUE(policy.ok()) << policy.status().ToString();
  auto slo = obs::SloConfig::FromFile(dir + "/slo_default.json");
  EXPECT_TRUE(slo.ok()) << slo.status().ToString();
  auto plan = fault::FaultPlan::FromFile(dir + "/faults_broker_crash.json");
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
}

TEST(PolicyConfigTest, JsonAndOverridesRoundTrip) {
  auto cfg = PolicyConfig::FromJsonText(R"({
    "kind": "predictive", "interval_s": 2, "min_replicas": 1,
    "max_replicas": 12, "step": 2, "cooldown_s": 6,
    "scale_in_hysteresis": 2, "rate_per_replica": 500,
    "target_utilization": 0.7, "hw_alpha": 0.6, "hw_beta": 0.2,
    "horizon_s": 10})");
  ASSERT_TRUE(cfg.ok()) << cfg.status().ToString();
  EXPECT_TRUE(cfg->enabled);
  EXPECT_EQ(cfg->kind, "predictive");
  EXPECT_EQ(cfg->max_replicas, 12);
  EXPECT_DOUBLE_EQ(cfg->rate_per_replica, 500.0);
  EXPECT_TRUE(cfg->Validate().ok());

  PolicyConfig o;
  EXPECT_FALSE(o.enabled);
  ASSERT_TRUE(o.ApplyOverride("kind", "reactive").ok());
  ASSERT_TRUE(o.ApplyOverride("scale_up_lag", "2500").ok());
  EXPECT_TRUE(o.enabled);
  EXPECT_DOUBLE_EQ(o.scale_up_lag, 2500.0);
  EXPECT_FALSE(o.ApplyOverride("bogus", "1").ok());

  PolicyConfig bad;
  bad.enabled = true;
  bad.kind = "magic";
  EXPECT_FALSE(bad.Validate().ok());
  EXPECT_FALSE(CreatePolicy(bad).ok());
}

// --- policies ---

TEST(PolicyTest, ReactiveThresholds) {
  PolicyConfig cfg;
  cfg.enabled = true;
  cfg.scale_up_lag = 1000.0;
  cfg.scale_down_lag = 100.0;
  cfg.scale_up_utilization = 0.9;
  cfg.scale_down_utilization = 0.3;
  cfg.step = 2;
  ReactivePolicy policy(cfg);

  PolicyInput in;
  in.current_replicas = 4;
  in.total_lag = 5000.0;  // lag high -> up
  in.utilization = 0.5;
  EXPECT_EQ(policy.Evaluate(in).target, 6);

  in.total_lag = 500.0;  // both mid-band -> steady
  EXPECT_EQ(policy.Evaluate(in).target, 4);

  in.utilization = 0.95;  // utilization high -> up
  EXPECT_EQ(policy.Evaluate(in).target, 6);

  in.total_lag = 50.0;  // lag low but utilization high -> still up
  EXPECT_EQ(policy.Evaluate(in).target, 6);

  in.utilization = 0.2;  // both low -> down
  EXPECT_EQ(policy.Evaluate(in).target, 2);
}

TEST(PolicyTest, PredictiveSizesPoolToForecastDemand) {
  PolicyConfig cfg;
  cfg.enabled = true;
  cfg.kind = "predictive";
  cfg.interval_s = 5.0;
  cfg.rate_per_replica = 100.0;
  cfg.target_utilization = 1.0;
  cfg.horizon_s = 5.0;
  cfg.hw_alpha = 0.8;
  cfg.hw_beta = 0.5;
  PredictivePolicy policy(cfg);

  // Steady 100 ev/s with no backlog: one replica suffices.
  PolicyInput in;
  in.current_replicas = 1;
  in.arrival_rate_eps = 100.0;
  for (int i = 0; i < 6; ++i) {
    in.now_s = 5.0 * (i + 1);
    EXPECT_EQ(policy.Evaluate(in).target, 1) << "tick " << i;
  }
  // Demand ramps 100 ev/s per tick: the trend term must push the forecast
  // (and the target) ahead of the instantaneous rate.
  int last_target = 1;
  for (int i = 0; i < 6; ++i) {
    in.now_s += 5.0;
    in.arrival_rate_eps += 100.0;
    last_target = policy.Evaluate(in).target;
  }
  EXPECT_GE(last_target, 7)
      << "forecast should lead a 100 ev/s-per-tick ramp past 700 ev/s";
}

// --- autoscaler guard rails (pure DES, no pipeline) ---

TEST(AutoscalerTest, GuardRailsClampCooldownAndHysteresis) {
  sim::Simulation sim(7);
  int replicas = 4;
  ActuatorHooks hooks;
  hooks.current_replicas = [&replicas]() { return replicas; };
  hooks.set_replicas = [&replicas](int n) { replicas = n; };
  Actuator act(&sim, "pool", std::move(hooks));

  PolicyConfig cfg;
  cfg.enabled = true;
  cfg.interval_s = 1.0;
  cfg.min_replicas = 1;
  cfg.max_replicas = 6;
  cfg.step = 1;
  cfg.cooldown_s = 0.0;
  cfg.scale_in_hysteresis = 3;
  cfg.scale_up_lag = 100.0;
  cfg.scale_down_lag = 10.0;
  cfg.scale_up_utilization = 0.9;
  cfg.scale_down_utilization = 0.5;

  // Overloaded through t=3, idle afterwards.
  Autoscaler as(&sim, cfg, &act, [](double now_s) {
    PolicyInput in;
    in.total_lag = now_s <= 3.0 ? 1000.0 : 0.0;
    in.utilization = now_s <= 3.0 ? 1.0 : 0.0;
    return in;
  });
  ASSERT_TRUE(as.Arm(12.0).ok());
  sim.Run(13.0);

  // Ticks 1,2 grow 4->5->6; tick 3 wants 7 but the max bound holds 6.
  // Idle ticks then need 3 consecutive shrink votes per step, so the pool
  // shrinks on ticks 6, 9, and 12: 6->5->4->3.
  AutoscaleSummary s = as.Summary();
  EXPECT_EQ(s.ticks, 12u);
  EXPECT_EQ(s.scale_ups, 2u);
  EXPECT_EQ(s.scale_downs, 3u);
  EXPECT_EQ(s.peak_replicas, 6);
  EXPECT_EQ(s.final_replicas, 3);
  EXPECT_EQ(replicas, 3);
  ASSERT_EQ(s.actions.size(), 5u);
  EXPECT_EQ(s.actions[0].to, 5);
  EXPECT_EQ(s.actions[1].to, 6);
  EXPECT_EQ(s.actions[2].to, 5);
  EXPECT_DOUBLE_EQ(s.actions[2].t_s, 6.0);
}

TEST(AutoscalerTest, CooldownSuppressesBackToBackResizes) {
  sim::Simulation sim(7);
  int replicas = 1;
  ActuatorHooks hooks;
  hooks.current_replicas = [&replicas]() { return replicas; };
  hooks.set_replicas = [&replicas](int n) { replicas = n; };
  Actuator act(&sim, "pool", std::move(hooks));

  PolicyConfig cfg;
  cfg.enabled = true;
  cfg.interval_s = 1.0;
  cfg.max_replicas = 10;
  cfg.cooldown_s = 3.0;
  cfg.scale_up_lag = 100.0;
  cfg.scale_down_lag = 10.0;

  // Permanently overloaded: without a cooldown the pool would grow every
  // tick; with cooldown_s=3 it can only grow every 3rd tick.
  Autoscaler as(&sim, cfg, &act, [](double) {
    PolicyInput in;
    in.total_lag = 1000.0;
    in.utilization = 1.0;
    return in;
  });
  ASSERT_TRUE(as.Arm(9.0).ok());
  sim.Run(10.0);
  // Resizes land at t=1, 4, 7 only.
  EXPECT_EQ(as.Summary().scale_ups, 3u);
  EXPECT_EQ(replicas, 4);
}

// --- demand-metric search ---

TEST(DemandSearchTest, BisectsToMinimalReplicas) {
  DemandConfig cfg;
  cfg.engines = {"flink", "spark"};
  cfg.loads_eps = {100.0, 500.0};
  cfg.min_replicas = 1;
  cfg.max_replicas = 16;
  // Ground truth the stub enforces: replicas needed = load/50 for flink,
  // load/25 for spark (spark at 500 ev/s needs 20 > 16: infeasible).
  int probes_served = 0;
  DemandProbeBatch probe = [&probes_served](
                               const std::vector<DemandQuery>& queries) {
    std::vector<DemandProbeResult> out;
    for (const DemandQuery& q : queries) {
      ++probes_served;
      const double per_replica = q.engine == "flink" ? 50.0 : 25.0;
      DemandProbeResult r;
      r.slo_ok = q.replicas * per_replica >= q.load_eps;
      r.achieved_eps = std::min(q.load_eps, q.replicas * per_replica);
      out.push_back(r);
    }
    return out;
  };
  auto table = RunDemandSearch(cfg, probe);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_EQ(table->cells.size(), 4u);

  std::map<std::string, DemandCell> by_key;
  for (const DemandCell& c : table->cells) {
    by_key[c.engine + "@" + std::to_string(static_cast<int>(c.load_eps))] = c;
  }
  EXPECT_TRUE(by_key["flink@100"].feasible);
  EXPECT_EQ(by_key["flink@100"].demand, 2);
  EXPECT_TRUE(by_key["flink@500"].feasible);
  EXPECT_EQ(by_key["flink@500"].demand, 10);
  EXPECT_TRUE(by_key["spark@100"].feasible);
  EXPECT_EQ(by_key["spark@100"].demand, 4);
  EXPECT_FALSE(by_key["spark@500"].feasible);
  for (const DemandCell& c : table->cells) {
    EXPECT_LE(c.probes, 5) << c.engine << "@" << c.load_eps
                           << ": bisection over [1,16] needs <= 5 probes";
  }
  EXPECT_LE(probes_served, 20);
}

TEST(DemandSearchTest, ReportsInfeasibleCells) {
  DemandConfig cfg;
  cfg.engines = {"ray"};
  cfg.loads_eps = {1000.0};
  cfg.max_replicas = 8;
  DemandProbeBatch probe = [](const std::vector<DemandQuery>& queries) {
    return std::vector<DemandProbeResult>(queries.size(),
                                          DemandProbeResult{});
  };
  auto table = RunDemandSearch(cfg, probe);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->cells.size(), 1u);
  EXPECT_FALSE(table->cells[0].feasible);
  EXPECT_EQ(table->cells[0].probes, 4);  // ceil(log2(8)) + 1
}

TEST(DemandSearchTest, TableExportsCsvAndJson) {
  DemandTable table;
  DemandCell c;
  c.engine = "flink";
  c.load_eps = 250.0;
  c.feasible = true;
  c.demand = 3;
  c.probes = 4;
  c.achieved_eps = 249.5;
  table.cells.push_back(c);
  const std::string csv = table.ToCsv();
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "engine,load_eps,feasible,demand,probes,achieved_eps");
  EXPECT_NE(csv.find("flink,250,"), std::string::npos) << csv;
  const JsonValue j = table.ToJson();
  EXPECT_NE(j.Dump().find("\"demand\""), std::string::npos);
}

// --- pipeline integration ---

core::ExperimentConfig ShapedConfig(uint64_t seed) {
  core::ExperimentConfig cfg;
  cfg.engine = "flink";
  cfg.serving = "onnx";
  cfg.model = "ffnn";
  cfg.batch_size = 1;
  cfg.input_rate = 100.0;  // superseded by the shape
  cfg.parallelism = 4;
  cfg.duration_s = 30.0;
  cfg.drain_s = 8.0;
  cfg.seed = seed;
  cfg.workload.enabled = true;
  cfg.workload.shape = FlashCrowdShape();
  return cfg;
}

TEST(ScaleIntegrationTest, ProducerFollowsShapeVolume) {
  core::ExperimentConfig cfg = ShapedConfig(11);
  auto result = core::RunExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const double want =
      cfg.workload.shape.IntegrateRate(0.0, cfg.duration_s);
  // The producer paces open-loop at 1/rate gaps, so the emitted count can
  // trail the integral by at most a few gaps plus discretization error.
  EXPECT_NEAR(static_cast<double>(result->events_sent), want, 0.05 * want)
      << "shape asked for ~" << want << " events";
  EXPECT_GT(result->events_scored, 0u);
}

core::ExperimentConfig AutoscaledFlashCrowdConfig(uint64_t seed) {
  core::ExperimentConfig cfg;
  cfg.engine = "flink";
  // TorchServe's Python handler costs ~2.8 ms/event per worker (~350
  // ev/s), so the worker count is the capacity bottleneck — exactly what
  // an autoscaler test needs.
  cfg.serving = "torchserve";
  cfg.model = "ffnn";
  cfg.batch_size = 1;
  cfg.input_rate = 100.0;
  cfg.parallelism = 6;
  cfg.duration_s = 60.0;
  cfg.drain_s = 10.0;
  cfg.seed = seed;
  cfg.timeline_interval_s = 1.0;

  cfg.workload.enabled = true;
  cfg.workload.shape = FlashCrowdShape();
  cfg.workload.shape.base_rate = 150.0;
  cfg.workload.shape.spike_at_s = 20.0;
  cfg.workload.shape.ramp_up_s = 2.0;
  cfg.workload.shape.hold_s = 12.0;
  cfg.workload.shape.decay_s = 4.0;
  cfg.workload.shape.spike_mult = 6.0;

  cfg.autoscaler.enabled = true;
  cfg.autoscaler.kind = "reactive";
  cfg.autoscaler.interval_s = 2.0;
  cfg.autoscaler.min_replicas = 1;
  cfg.autoscaler.max_replicas = 6;
  cfg.autoscaler.step = 2;
  cfg.autoscaler.cooldown_s = 4.0;
  cfg.autoscaler.scale_in_hysteresis = 3;
  cfg.autoscaler.scale_up_lag = 60.0;
  cfg.autoscaler.scale_down_lag = 5.0;
  cfg.autoscaler.scale_up_utilization = 0.85;
  cfg.autoscaler.scale_down_utilization = 0.35;
  return cfg;
}

TEST(ScaleIntegrationTest, ReactiveRidesFlashCrowdUpAndDownLossFree) {
  auto result = core::RunExperiment(AutoscaledFlashCrowdConfig(21));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->has_autoscale);
  const AutoscaleSummary& s = result->autoscale;
  EXPECT_GE(s.scale_ups, 1u) << "the spike never triggered a scale-up";
  EXPECT_GE(s.scale_downs, 1u)
      << "the pool never shrank after the crowd left";
  EXPECT_GT(s.peak_replicas, s.final_replicas);

  // Graceful scale-in must not drop anything: the loss scorecard runs on
  // autoscaled runs exactly as it does on fault runs.
  ASSERT_TRUE(result->has_fault_metrics);
  EXPECT_EQ(result->fault_metrics.losses, 0u);

  // Scaling actions surface as timeline annotations.
  ASSERT_NE(result->timeline, nullptr);
  bool saw_up = false;
  bool saw_down = false;
  for (const obs::TimelineWindow& w : result->timeline->windows()) {
    for (const std::string& a : w.annotations) {
      if (a.rfind("autoscale-up:", 0) == 0) saw_up = true;
      if (a.rfind("autoscale-down:", 0) == 0) saw_down = true;
    }
  }
  EXPECT_TRUE(saw_up);
  EXPECT_TRUE(saw_down);
}

TEST(ScaleIntegrationTest, PredictiveBeatsReactiveOnDiurnalBreaches) {
  core::ExperimentConfig base;
  base.engine = "flink";
  base.serving = "torchserve";
  base.model = "ffnn";
  base.batch_size = 1;
  base.input_rate = 100.0;
  base.parallelism = 6;
  base.duration_s = 90.0;
  base.drain_s = 10.0;
  base.seed = 5;
  // A steep swing: 60..1140 eps against ~350 eps/worker, phased to start at
  // the trough. The upswing gains ~94 eps/s at its steepest — more than one
  // worker's capacity per cooldown — so a follower that waits for
  // utilization to saturate falls behind the ramp, while the headroom-led
  // forecast starts climbing ahead of it.
  base.workload.enabled = true;
  base.workload.shape.kind = ShapeKind::kDiurnal;
  base.workload.shape.base_rate = 600.0;
  base.workload.shape.amplitude = 0.9;
  base.workload.shape.period_s = 36.0;
  base.workload.shape.phase_s = 27.0;
  auto slo = obs::SloConfig::FromJsonText(
      R"({"slos": [{"name": "p95", "metric": "p95_latency_s",
                    "max": 0.5, "error_budget": 0.99}]})");
  ASSERT_TRUE(slo.ok());
  base.slo = *slo;

  // Fast ticks keep the forecast well sampled; the cooldown paces resizes
  // for both policies, so the only difference is when each starts moving.
  base.autoscaler.enabled = true;
  base.autoscaler.interval_s = 2.0;
  base.autoscaler.min_replicas = 1;
  base.autoscaler.max_replicas = 6;
  base.autoscaler.step = 1;
  base.autoscaler.cooldown_s = 5.0;
  base.autoscaler.scale_in_hysteresis = 2;

  core::ExperimentConfig reactive = base;
  reactive.autoscaler.kind = "reactive";
  reactive.autoscaler.scale_up_lag = 200.0;
  reactive.autoscaler.scale_down_lag = 10.0;
  reactive.autoscaler.scale_up_utilization = 0.9;
  reactive.autoscaler.scale_down_utilization = 0.3;

  core::ExperimentConfig predictive = base;
  predictive.autoscaler.kind = "predictive";
  predictive.autoscaler.hw_alpha = 0.5;
  predictive.autoscaler.hw_beta = 0.2;
  predictive.autoscaler.horizon_s = 10.0;
  predictive.autoscaler.rate_per_replica = 350.0;
  predictive.autoscaler.target_utilization = 0.65;

  auto reac = core::RunExperiment(reactive);
  auto pred = core::RunExperiment(predictive);
  ASSERT_TRUE(reac.ok()) << reac.status().ToString();
  ASSERT_TRUE(pred.ok()) << pred.status().ToString();
  ASSERT_TRUE(reac->has_slo_report);
  ASSERT_TRUE(pred->has_slo_report);
  ASSERT_EQ(reac->slo_report.objectives.size(), 1u);
  const size_t reac_breaches =
      reac->slo_report.objectives[0].windows_breached;
  const size_t pred_breaches =
      pred->slo_report.objectives[0].windows_breached;
  EXPECT_LT(pred_breaches, reac_breaches)
      << "forecasting the diurnal swing should pre-provision capacity "
         "(predictive " << pred_breaches << " vs reactive "
      << reac_breaches << " breached windows)";
  EXPECT_GE(pred->autoscale.scale_ups, 1u);
}

// --- memory-lean cluster-scale topology (satellite a) ---

TEST(ScaleTopologyTest, ThousandHostWideTopicConstructsLean) {
  sim::Simulation sim(3);
  sim::Network network(&sim);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(network
                    .AddHost(sim::Host{"fleet-" + std::to_string(i),
                                       /*vcpus=*/4,
                                       /*memory_bytes=*/15ULL << 30,
                                       /*has_gpu=*/false})
                    .ok());
  }
  broker::KafkaCluster cluster(&sim, &network, broker::ClusterConfig{});
  ASSERT_TRUE(cluster.CreateTopic("wide", 256).ok());
  // A thousand-host fleet allocates none of the ~10^6 host-pair links up
  // front; untouched partitions stay null slots.
  EXPECT_EQ(network.live_link_count(), 0u);
  auto n = cluster.NumPartitions(*cluster.FindTopic("wide"));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 256);
  // Touching one partition materializes exactly that partition's state.
  auto p = cluster.GetPartition(
      broker::TopicPartition{*cluster.FindTopic("wide"), 17});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p)->end_offset(), 0);
}

// --- acceptance: 1000 hosts, 256 background partitions, flash crowd, ---
// --- autoscaled, byte-identical across runs of one seed              ---

void AppendBits(std::ostringstream* os, double d) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  *os << std::hex << bits << std::dec << ",";
}

std::string ScaleFingerprint(const core::ExperimentResult& r) {
  std::ostringstream os;
  os << r.events_sent << "|" << r.events_scored << "|"
     << r.sim_events_executed << "|";
  AppendBits(&os, r.sim_end_s);
  os << "\n";
  for (const core::Measurement& m : r.measurements) {
    os << m.batch_id << ":";
    AppendBits(&os, m.create_time);
    AppendBits(&os, m.append_time);
    os << "\n";
  }
  os << r.summary.ToJson() << "\n";
  if (r.has_autoscale) {
    for (const ScalingAction& a : r.autoscale.actions) {
      os << "act:";
      AppendBits(&os, a.t_s);
      os << a.from << ">" << a.to << ":" << a.reason << "\n";
    }
    os << "ticks:" << r.autoscale.ticks << " peak:"
       << r.autoscale.peak_replicas << " final:"
       << r.autoscale.final_replicas << "\n";
  }
  if (r.has_fault_metrics) {
    os << "losses:" << r.fault_metrics.losses
       << " dup:" << r.fault_metrics.duplicates << "\n";
  }
  if (r.timeline != nullptr) {
    os << r.timeline->ToJsonl() << r.timeline->ToCsv();
  }
  return os.str();
}

core::ExperimentConfig AcceptanceConfig(uint64_t seed) {
  core::ExperimentConfig cfg = AutoscaledFlashCrowdConfig(seed);
  cfg.duration_s = 40.0;
  cfg.workload.shape.spike_at_s = 10.0;
  cfg.workload.shape.base_rate = 100.0;
  cfg.workload.shape.spike_mult = 6.0;
  // 32 tenants x 8 partitions = 256 background partitions, plus ~950
  // idle fleet hosts -> >1000 registered hosts with producer, brokers,
  // engine workers, serving, and tenant producer hosts included.
  cfg.workload.tenants = 32;
  cfg.workload.tenant_partitions = 8;
  cfg.workload.tenant_rate_factor = 0.02;
  cfg.workload.fleet_hosts = 950;
  return cfg;
}

TEST(ScaleAcceptanceTest, ThousandHostFlashCrowdReproducesByteForByte) {
  auto first = core::RunExperiment(AcceptanceConfig(77));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first->has_autoscale);
  EXPECT_GE(first->autoscale.scale_ups, 1u);
  EXPECT_GE(first->autoscale.scale_downs, 1u);
  ASSERT_TRUE(first->has_fault_metrics);
  EXPECT_EQ(first->fault_metrics.losses, 0u);
  EXPECT_GT(first->events_scored, 0u);

  const std::string want = ScaleFingerprint(*first);
  auto second = core::RunExperiment(AcceptanceConfig(77));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  const std::string got = ScaleFingerprint(*second);
  if (got != want) {
    size_t at = 0;
    while (at < want.size() && at < got.size() && want[at] == got[at]) ++at;
    FAIL() << "second run diverged at byte " << at << " (sizes "
           << want.size() << " vs " << got.size() << "); context: \""
           << want.substr(at > 40 ? at - 40 : 0, 80) << "\" vs \""
           << got.substr(at > 40 ? at - 40 : 0, 80) << "\"";
  }
  auto reseeded = core::RunExperiment(AcceptanceConfig(78));
  ASSERT_TRUE(reseeded.ok()) << reseeded.status().ToString();
  EXPECT_NE(want, ScaleFingerprint(*reseeded))
      << "two seeds produced identical thousand-host runs";
}

// A small end-to-end demand table over two engines: the probe batch runs
// whole experiments through the sweep pool, the search bisects per cell.
TEST(ScaleAcceptanceTest, DemandTableCoversTwoEngines) {
  DemandConfig dcfg;
  dcfg.engines = {"flink", "kafka-streams"};
  dcfg.loads_eps = {400.0};
  dcfg.min_replicas = 1;
  dcfg.max_replicas = 4;
  auto slo = obs::SloConfig::FromJsonText(
      R"({"slos": [{"name": "p95", "metric": "p95_latency_s",
                    "max": 0.25, "error_budget": 0.1}]})");
  ASSERT_TRUE(slo.ok());

  DemandProbeBatch probe = [&slo](const std::vector<DemandQuery>& queries) {
    std::vector<core::ExperimentConfig> configs;
    for (const DemandQuery& q : queries) {
      core::ExperimentConfig cfg;
      cfg.engine = q.engine;
      cfg.serving = "torchserve";
      cfg.model = "ffnn";
      cfg.input_rate = q.load_eps;
      cfg.parallelism = q.replicas;
      cfg.duration_s = 10.0;
      cfg.drain_s = 5.0;
      cfg.seed = 1000 + static_cast<uint64_t>(q.replicas);
      cfg.slo = *slo;
      configs.push_back(cfg);
    }
    auto results = core::RunExperiments(std::move(configs));
    CRAYFISH_CHECK(results.ok()) << results.status().ToString();
    std::vector<DemandProbeResult> out;
    for (size_t i = 0; i < results->size(); ++i) {
      const core::ExperimentResult& r = (*results)[i];
      DemandProbeResult pr;
      pr.slo_ok = r.has_slo_report && r.slo_report.passed;
      pr.achieved_eps = r.summary.throughput_eps;
      out.push_back(pr);
    }
    return out;
  };
  auto table = RunDemandSearch(dcfg, probe);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_EQ(table->cells.size(), 2u);
  for (const DemandCell& c : table->cells) {
    // 400 ev/s against ffnn/tf-serving is servable within 4 replicas for
    // both engines; the interesting assertion is that the bisection
    // found *some* minimal width and the CSV carries it.
    EXPECT_TRUE(c.feasible) << c.engine << " infeasible: " << c.detail;
    EXPECT_GE(c.demand, 1);
    EXPECT_LE(c.demand, 4);
  }
  EXPECT_NE(table->ToCsv().find("kafka-streams"), std::string::npos);
}

}  // namespace
}  // namespace crayfish::scale
