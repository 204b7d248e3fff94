// Mechanism-level tests for the engine behaviours that drive the paper's
// figures: Flink's buffer penalty is latency-not-occupancy, Kafka
// Streams' idle pickup is closed-loop-only, Spark's checkpoint sets its
// latency floor, Ray Serve's proxy caps scaling, and the engines honor
// their config overrides.

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/experiment.h"

namespace crayfish::core {
namespace {

ExperimentConfig Base(const std::string& engine,
                      const std::string& serving) {
  ExperimentConfig cfg;
  cfg.engine = engine;
  cfg.serving = serving;
  cfg.model = "ffnn";
  cfg.seed = 77;
  return cfg;
}

TEST(FlinkBehaviorTest, BufferPenaltyAffectsLatencyOnly) {
  // Large records: latency scales with the buffer-cycle override while
  // saturated throughput is untouched (the penalty never occupies the
  // task thread).
  ExperimentConfig lat = Base("flink", "onnx");
  lat.batch_size = 128;
  lat.input_rate = 1.0;
  lat.duration_s = 30.0;
  lat.drain_s = 5.0;
  lat.engine_overrides.SetDouble("flink.buffer_cycle_s", 0.0);
  auto no_penalty = RunExperiment(lat);
  lat.engine_overrides.SetDouble("flink.buffer_cycle_s", 0.010);
  auto with_penalty = RunExperiment(lat);
  ASSERT_TRUE(no_penalty.ok());
  ASSERT_TRUE(with_penalty.ok());
  // A 128-sample record (160 + 128*3136 B = ~392 KB) spans 12 extra
  // 32 KB buffers -> +120 ms at 10 ms/cycle.
  EXPECT_NEAR(with_penalty->summary.latency_mean_ms -
                  no_penalty->summary.latency_mean_ms,
              120.0, 10.0);

  ExperimentConfig thr = Base("flink", "onnx");
  thr.input_rate = 30000.0;
  thr.duration_s = 6.0;
  thr.drain_s = 0.5;
  thr.engine_overrides.SetDouble("flink.buffer_cycle_s", 0.0);
  auto thr_no = RunExperiment(thr);
  thr.engine_overrides.SetDouble("flink.buffer_cycle_s", 0.010);
  auto thr_with = RunExperiment(thr);
  ASSERT_TRUE(thr_no.ok());
  ASSERT_TRUE(thr_with.ok());
  EXPECT_NEAR(thr_with->summary.throughput_eps,
              thr_no->summary.throughput_eps,
              thr_no->summary.throughput_eps * 0.02);
}

TEST(KafkaStreamsBehaviorTest, IdlePickupChargedOnlyAfterIdle) {
  // Closed loop (every record preceded by idle): latency ~= pickup cost.
  ExperimentConfig lat = Base("kafka-streams", "onnx");
  lat.input_rate = 1.0;
  lat.duration_s = 30.0;
  lat.drain_s = 3.0;
  auto closed = RunExperiment(lat);
  ASSERT_TRUE(closed.ok());
  EXPECT_GT(closed->summary.latency_mean_ms, 60.0);

  // Sustained rate (records arrive during processing): pickup amortizes
  // away — §5.3.1's "one event in 16.25 ms at ir=512" regime.
  ExperimentConfig busy = Base("kafka-streams", "onnx");
  busy.input_rate = 512.0;
  busy.duration_s = 20.0;
  busy.drain_s = 3.0;
  auto sustained = RunExperiment(busy);
  ASSERT_TRUE(sustained.ok());
  EXPECT_LT(sustained->summary.latency_mean_ms, 30.0);
  EXPECT_LT(sustained->summary.latency_mean_ms,
            closed->summary.latency_mean_ms / 3.0);
}

TEST(SparkBehaviorTest, CheckpointCostSetsLatencyFloor) {
  ExperimentConfig cfg = Base("spark", "onnx");
  cfg.input_rate = 1.0;
  cfg.duration_s = 30.0;
  cfg.drain_s = 3.0;
  cfg.engine_overrides.SetDouble("spark.checkpoint_s", 0.05);
  auto fast_cp = RunExperiment(cfg);
  cfg.engine_overrides.SetDouble("spark.checkpoint_s", 0.25);
  auto slow_cp = RunExperiment(cfg);
  ASSERT_TRUE(fast_cp.ok());
  ASSERT_TRUE(slow_cp.ok());
  EXPECT_NEAR(slow_cp->summary.latency_mean_ms -
                  fast_cp->summary.latency_mean_ms,
              200.0, 25.0);
}

TEST(SparkBehaviorTest, UnboundedTriggerReachesDriverAsymptote) {
  ExperimentConfig cfg = Base("spark", "onnx");
  cfg.input_rate = 30000.0;
  cfg.duration_s = 8.0;
  cfg.drain_s = 0.5;
  auto r = RunExperiment(cfg);
  ASSERT_TRUE(r.ok());
  // Fig. 11: ~20-24k ev/s, bounded by the serial driver per-record cost.
  EXPECT_GT(r->summary.throughput_eps, 17000.0);
  EXPECT_LT(r->summary.throughput_eps, 28000.0);
}

TEST(RayBehaviorTest, EmbeddedScalesProxyDoesNot) {
  ExperimentConfig embedded = Base("ray", "onnx");
  embedded.input_rate = 30000.0;
  embedded.duration_s = 6.0;
  embedded.drain_s = 0.5;
  embedded.parallelism = 16;
  auto onnx16 = RunExperiment(embedded);
  ASSERT_TRUE(onnx16.ok());
  EXPECT_GT(onnx16->summary.throughput_eps, 900.0);

  ExperimentConfig external = Base("ray", "ray-serve");
  external.input_rate = 30000.0;
  external.duration_s = 6.0;
  external.drain_s = 0.5;
  external.parallelism = 16;
  auto serve16 = RunExperiment(external);
  ASSERT_TRUE(serve16.ok());
  // The single HTTP proxy (2.2 ms/request) caps external serving.
  EXPECT_LT(serve16->summary.throughput_eps, 500.0);
}

TEST(EngineOverridesTest, UnknownOrMalformedOverridesAreRejected) {
  // Each of these used to run with the default value.
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"nonsense.key", "whatever"},
           {"flink.async_io", "maybe"},
           {"flink.stage_queue_capacity", "2.5"},
           {"flink.stage_queue_capacity", "-1"},
           {"flink.buffer_cycle_s", "1e9x"},
           {"flink.asyncio", "true"},
           {"spark.continuous", "maybe"},
           {"flink", "true"}}) {
    ExperimentConfig cfg = Base("flink", "onnx");
    cfg.input_rate = 100.0;
    cfg.duration_s = 4.0;
    cfg.drain_s = 2.0;
    cfg.engine_overrides.Set(key, value);
    auto r = RunExperiment(cfg);
    EXPECT_TRUE(r.status().IsInvalidArgument()) << key << " = " << value;
    EXPECT_NE(r.status().message().find(key.substr(key.find('.') + 1)),
              std::string::npos)
        << r.status().ToString();
  }
}

TEST(EngineOverridesTest, AnotherEnginesKnownFieldIsAccepted) {
  // A sweep base shared across engines may carry every engine's knobs.
  ExperimentConfig cfg = Base("flink", "onnx");
  cfg.input_rate = 100.0;
  cfg.duration_s = 4.0;
  cfg.drain_s = 2.0;
  cfg.engine_overrides.Set("spark.max_offsets_per_trigger", "768");
  cfg.engine_overrides.Set("kafka_streams.idle_pickup_s", "0.05");
  auto r = RunExperiment(cfg);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->events_scored, r->events_sent);
}

TEST(EngineOverridesTest, StageQueueCapacityOverrideHonored) {
  // A tiny unchained handoff queue still loses nothing (backpressure).
  ExperimentConfig cfg = Base("flink", "onnx");
  cfg.source_parallelism = 8;
  cfg.sink_parallelism = 8;
  cfg.input_rate = 2000.0;
  cfg.duration_s = 5.0;
  cfg.drain_s = 3.0;
  cfg.engine_overrides.SetInt("flink.stage_queue_capacity", 2);
  auto r = RunExperiment(cfg);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->events_scored, r->events_sent);
}


TEST(WarmupTest, EarlyLatenciesElevatedAndDiscardRemovesThem) {
  // Closed loop: the first ~4 s of events run up to 2.5x slower (JIT);
  // the analyzer's 25% discard must cut them out of the summary.
  ExperimentConfig cfg = Base("flink", "onnx");
  cfg.input_rate = 10.0;
  cfg.duration_s = 40.0;
  cfg.drain_s = 3.0;
  cfg.timeline_interval_s = 1.0;
  auto r = RunExperiment(cfg);
  ASSERT_TRUE(r.ok());
  ASSERT_NE(r->timeline, nullptr);
  // Mean latency (ms) of the non-empty 1 s windows, in time order.
  std::vector<double> window_ms;
  for (const obs::TimelineWindow& w : r->timeline->windows()) {
    if (w.completions > 0) window_ms.push_back(w.latency.mean() * 1000.0);
  }
  ASSERT_GT(window_ms.size(), 10u);
  // First window clearly hotter than a late one.
  EXPECT_GT(window_ms[0], window_ms[10] * 1.5);
  // Summary (post-discard) reflects steady state, not the warm phase.
  EXPECT_LT(r->summary.latency_mean_ms, window_ms[0] * 0.8);
}

TEST(GpuBehaviorTest, EmbeddedGpuLatencyBeatsCpuOnlyForLargeModels) {
  // For the tiny FFNN the PCIe transfer + launch overhead roughly cancels
  // the modest compute speedup — GPU offload pays off for ResNet50-sized
  // models (why the paper runs Fig. 9 on ResNet50 only).
  ExperimentConfig ffnn = Base("flink", "onnx");
  ffnn.input_rate = 2.0;
  ffnn.duration_s = 20.0;
  ffnn.drain_s = 2.0;
  auto cpu = RunExperiment(ffnn);
  ffnn.use_gpu = true;
  auto gpu = RunExperiment(ffnn);
  ASSERT_TRUE(cpu.ok());
  ASSERT_TRUE(gpu.ok());
  const double delta = cpu->summary.latency_mean_ms -
                       gpu->summary.latency_mean_ms;
  EXPECT_LT(std::abs(delta), 0.5);  // within noise for FFNN
}

}  // namespace
}  // namespace crayfish::core
