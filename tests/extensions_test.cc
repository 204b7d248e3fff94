// Tests for the §7 "future work" extensions: Flink async I/O and
// server-side adaptive batching. These features are off in every paper
// experiment (parity with §4.3) and opt-in here.

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/experiment.h"
#include "serving/external_server.h"
#include "sim/network.h"
#include "sim/simulation.h"

namespace crayfish {
namespace {

using serving::CreateExternalServer;
using serving::ExternalServerOptions;
using serving::ExternalServingServer;
using serving::ModelProfile;

// ------------------------------------------------------ Flink async I/O --

TEST(AsyncIoTest, LiftsBlockingExternalThroughput) {
  core::ExperimentConfig cfg;
  cfg.engine = "flink";
  cfg.serving = "tf-serving";
  cfg.input_rate = 30000.0;
  cfg.duration_s = 6.0;
  cfg.drain_s = 0.5;
  auto blocking = core::RunExperiment(cfg);
  cfg.engine_overrides.SetBool("flink.async_io", true);
  auto async = core::RunExperiment(cfg);
  ASSERT_TRUE(blocking.ok());
  ASSERT_TRUE(async.ok());
  // Overlapping the ~1 ms RPC with processing lifts mp=1 throughput ~4x.
  EXPECT_GT(async->summary.throughput_eps,
            blocking->summary.throughput_eps * 3.0);
}

TEST(AsyncIoTest, LosesNoRecordsUnderCapacityPressure) {
  core::ExperimentConfig cfg;
  cfg.engine = "flink";
  cfg.serving = "tf-serving";
  cfg.input_rate = 500.0;
  cfg.duration_s = 5.0;
  cfg.drain_s = 5.0;
  cfg.engine_overrides.SetBool("flink.async_io", true);
  cfg.engine_overrides.SetInt("flink.async_capacity", 4);  // tiny window
  auto r = core::RunExperiment(cfg);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->events_scored, r->events_sent);
  EXPECT_EQ(r->measurements.size(), r->events_sent);
}

TEST(AsyncIoTest, NoEffectOnEmbeddedServing) {
  core::ExperimentConfig cfg;
  cfg.engine = "flink";
  cfg.serving = "onnx";
  cfg.input_rate = 30000.0;
  cfg.duration_s = 5.0;
  cfg.drain_s = 0.5;
  auto plain = core::RunExperiment(cfg);
  cfg.engine_overrides.SetBool("flink.async_io", true);
  auto with_flag = core::RunExperiment(cfg);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(with_flag.ok());
  EXPECT_NEAR(with_flag->summary.throughput_eps,
              plain->summary.throughput_eps,
              plain->summary.throughput_eps * 0.02);
}

// --------------------------------------------------- adaptive batching --

class ServerExtensionsTest : public ::testing::Test {
 protected:
  ServerExtensionsTest() : sim_(21), network_(&sim_) {
    CRAYFISH_CHECK_OK(
        network_.AddHost(sim::Host{"client", 64, 1ULL << 30, false}));
  }

  std::unique_ptr<ExternalServingServer> Make(ExternalServerOptions opts,
                                              const std::string& tool =
                                                  "torchserve") {
    auto server = CreateExternalServer(&sim_, &network_, tool, opts);
    CRAYFISH_CHECK(server.ok());
    (*server)->Start();
    return std::move(*server);
  }

  sim::Simulation sim_;
  sim::Network network_;
};

TEST_F(ServerExtensionsTest, AdaptiveBatchingAmortizesOverheads) {
  // 64 simultaneous single-sample requests: batching executes ~2 groups
  // of 32 instead of 64 separate inferences.
  ExternalServerOptions batched;
  batched.model = ModelProfile::Ffnn();
  batched.adaptive_batching = true;
  batched.max_batch = 32;
  auto server = Make(batched);
  int completed = 0;
  double done_at = 0.0;
  sim_.Schedule(3.0, [&]() {
    for (int i = 0; i < 64; ++i) {
      server->Invoke("client", 1, [&]() {
        if (++completed == 64) done_at = sim_.Now();
      });
    }
  });
  sim_.RunUntilIdle();
  EXPECT_EQ(completed, 64);
  EXPECT_LE(server->batches_executed(), 4u);
  // TorchServe per-request overhead is 260 us + 2.58 ms compute; batching
  // pays the overhead twice instead of 64 times.
  const double makespan = done_at - 3.0;
  EXPECT_LT(makespan, 64 * (0.26e-3 + 2.58e-3));
}

TEST_F(ServerExtensionsTest, BatchTimeoutFlushesPartialGroups) {
  ExternalServerOptions batched;
  batched.model = ModelProfile::Ffnn();
  batched.adaptive_batching = true;
  batched.max_batch = 1000;  // never reached
  batched.batch_timeout_s = 0.02;
  auto server = Make(batched);
  bool answered = false;
  double answered_at = 0.0;
  sim_.Schedule(3.0, [&]() {
    server->Invoke("client", 1, [&]() {
      answered = true;
      answered_at = sim_.Now();
    });
  });
  sim_.RunUntilIdle();
  EXPECT_TRUE(answered);
  // Waited the 20 ms batching window, then served.
  EXPECT_GT(answered_at - 3.0, 0.02);
  EXPECT_LT(answered_at - 3.0, 0.04);
}

// ------------------------------------------------------------ wire size --

TEST_F(ServerExtensionsTest, WireBytesFollowTheServedModel) {
  // Request and response are sized by the model the server hosts.
  ExternalServerOptions opts;
  opts.model = ModelProfile::ResNet50();
  auto server = Make(opts);
  bool answered = false;
  uint64_t before = 0;
  uint64_t bytes = 0;
  sim_.Schedule(10.0, [&]() {  // after the ResNet50 load
    before = network_.total_bytes_sent();
    server->Invoke("client", 2, [&]() {
      answered = true;
      bytes = network_.total_bytes_sent() - before;
    });
  });
  sim_.RunUntilIdle();
  ASSERT_TRUE(answered);
  // 256 B request and 128 B response headers plus 4 B per element.
  const ModelProfile& m = server->model();
  EXPECT_EQ(m.name, "resnet50");
  EXPECT_EQ(bytes, 256 + 128 +
                       4 * 2 *
                           static_cast<uint64_t>(m.input_elements +
                                                 m.output_elements));
}

// --------------------------------------- checkpointing + continuous mode --

TEST(CheckpointingTest, BarriersCostThroughputAndLatencySpikes) {
  core::ExperimentConfig cfg;
  cfg.engine = "flink";
  cfg.serving = "onnx";
  cfg.input_rate = 30000.0;
  cfg.duration_s = 8.0;
  cfg.drain_s = 0.5;
  auto off = core::RunExperiment(cfg);
  cfg.engine_overrides.SetDouble("flink.checkpoint_interval_s", 0.2);
  cfg.engine_overrides.SetDouble("flink.checkpoint_stall_s", 0.05);
  auto on = core::RunExperiment(cfg);
  ASSERT_TRUE(off.ok());
  ASSERT_TRUE(on.ok());
  // 50 ms stall every 200 ms -> ~25% capacity lost to barriers.
  EXPECT_LT(on->summary.throughput_eps,
            off->summary.throughput_eps * 0.85);
  EXPECT_GT(on->summary.throughput_eps,
            off->summary.throughput_eps * 0.60);
}

TEST(CheckpointingTest, NoRecordLossWithBarriers) {
  core::ExperimentConfig cfg;
  cfg.engine = "flink";
  cfg.serving = "onnx";
  cfg.input_rate = 300.0;
  cfg.duration_s = 5.0;
  cfg.drain_s = 3.0;
  cfg.engine_overrides.SetDouble("flink.checkpoint_interval_s", 0.5);
  auto r = core::RunExperiment(cfg);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->events_scored, r->events_sent);
}

TEST(SparkContinuousTest, TradesCheckpointFloorForLowLatency) {
  core::ExperimentConfig cfg;
  cfg.engine = "spark";
  cfg.serving = "onnx";
  cfg.input_rate = 1.0;
  cfg.duration_s = 30.0;
  cfg.drain_s = 3.0;
  auto micro = core::RunExperiment(cfg);
  cfg.engine_overrides.SetBool("spark.continuous", true);
  auto continuous = core::RunExperiment(cfg);
  ASSERT_TRUE(micro.ok());
  ASSERT_TRUE(continuous.ok());
  // Micro-batch carries the ~180 ms checkpoint/schedule floor (Fig. 10);
  // continuous mode processes events in single-digit milliseconds.
  EXPECT_GT(micro->summary.latency_mean_ms, 100.0);
  EXPECT_LT(continuous->summary.latency_mean_ms, 20.0);
  EXPECT_EQ(continuous->events_scored, continuous->events_sent);
}

}  // namespace
}  // namespace crayfish
