#include <map>
#include <set>

#include <gtest/gtest.h>

#include "common/logging.h"

#include "broker/cluster.h"
#include "sps/spark_engine.h"
#include "broker/producer.h"
#include "core/experiment.h"
#include "serving/embedded_library.h"
#include "serving/external_server.h"
#include "sim/network.h"
#include "sim/simulation.h"
#include "sps/engine.h"
#include "sps/operator_task.h"

namespace crayfish::sps {
namespace {

// ---------------------------------------------------------- operator task --

TEST(OperatorTaskTest, ProcessesRecordsSeriallyInOrder) {
  sim::Simulation sim;
  std::vector<uint64_t> order;
  OperatorTask task(
      &sim, "t",
      [&](broker::Record r, std::function<void()> done) {
        sim.Schedule(1.0, [&order, r, done = std::move(done)]() {
          order.push_back(r.batch_id);
          done();
        });
      },
      /*max_queue=*/16);
  for (uint64_t i = 0; i < 3; ++i) {
    broker::Record r;
    r.batch_id = i;
    EXPECT_TRUE(task.Offer(std::move(r)));
  }
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<uint64_t>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(sim.Now(), 3.0);  // serialized, not parallel
  EXPECT_EQ(task.processed(), 3u);
}

TEST(OperatorTaskTest, BoundedQueueRejectsWhenFull) {
  sim::Simulation sim;
  OperatorTask task(
      &sim, "t",
      [&](broker::Record, std::function<void()> done) {
        sim.Schedule(10.0, std::move(done));
      },
      /*max_queue=*/2);
  broker::Record r;
  EXPECT_TRUE(task.Offer(r));  // starts immediately (dequeued)
  EXPECT_TRUE(task.Offer(r));
  EXPECT_TRUE(task.Offer(r));
  EXPECT_FALSE(task.Offer(r));  // queue holds 2, third rejected
  EXPECT_FALSE(task.HasCapacity());
}

TEST(OperatorTaskTest, SpaceAvailableFiresAfterDrain) {
  sim::Simulation sim;
  int space_events = 0;
  OperatorTask task(
      &sim, "t",
      [&](broker::Record, std::function<void()> done) {
        sim.Schedule(1.0, std::move(done));
      },
      /*max_queue=*/1);
  task.SetSpaceAvailableCallback([&]() { ++space_events; });
  broker::Record r;
  EXPECT_TRUE(task.Offer(r));
  EXPECT_TRUE(task.Offer(r));
  EXPECT_FALSE(task.Offer(r));  // now marked full
  sim.RunUntilIdle();
  EXPECT_GE(space_events, 1);
}

TEST(OperatorTaskTest, StopDropsQueuedWork) {
  sim::Simulation sim;
  int processed = 0;
  OperatorTask task(
      &sim, "t",
      [&](broker::Record, std::function<void()> done) {
        ++processed;
        sim.Schedule(1.0, std::move(done));
      },
      /*max_queue=*/8);
  broker::Record r;
  task.Offer(r);
  task.Offer(r);
  task.Stop();
  sim.RunUntilIdle();
  EXPECT_EQ(processed, 1);  // the in-flight one only
}

// ---------------------------------------------------------------- engines --

TEST(EngineFactoryTest, KnownEnginesConstruct) {
  sim::Simulation sim(7);
  sim::Network network(&sim);
  broker::KafkaCluster cluster(&sim, &network, {});
  CRAYFISH_CHECK_OK(cluster.CreateTopic("crayfish-in", 8));
  CRAYFISH_CHECK_OK(cluster.CreateTopic("crayfish-out", 8));
  auto library = serving::CreateEmbeddedLibrary("onnx");
  ASSERT_TRUE(library.ok());
  ScoringConfig scoring;
  scoring.library = library->get();
  scoring.model = serving::ModelProfile::Ffnn();
  for (const std::string& name : EngineNames()) {
    auto engine = CreateEngine(name, &sim, &network, &cluster, {}, scoring);
    ASSERT_TRUE(engine.ok()) << name;
    EXPECT_STREQ((*engine)->name(), name.c_str());
  }
  EXPECT_FALSE(
      CreateEngine("storm", &sim, &network, &cluster, {}, scoring).ok());
}

/// Spins up a cluster + engine, produces `n` records to the input topic
/// and returns (scored, output records) after `horizon` sim-seconds.
struct EngineHarness {
  explicit EngineHarness(const std::string& engine_name, int parallelism = 1,
                         bool external = false,
                         const std::string& tool = "tf-serving",
                         int source_par = 0, int sink_par = 0,
                         crayfish::Config overrides = {})
      : sim(11), network(&sim), cluster(&sim, &network, {}) {
    CRAYFISH_CHECK_OK(cluster.CreateTopic("crayfish-in", 8));
    CRAYFISH_CHECK_OK(cluster.CreateTopic("crayfish-out", 8));
    CRAYFISH_CHECK_OK(
        network.AddHost(sim::Host{"gen", 4, 1ULL << 30, false}));
    ScoringConfig scoring;
    scoring.model = serving::ModelProfile::Ffnn();
    if (external) {
      serving::ExternalServerOptions opts;
      opts.workers = parallelism;
      opts.model = scoring.model;
      server = std::move(*serving::CreateExternalServer(&sim, &network, tool,
                                                        opts));
      server->Start();
      scoring.external = true;
      scoring.server = server.get();
    } else {
      library = std::move(*serving::CreateEmbeddedLibrary("onnx"));
      scoring.library = library.get();
    }
    EngineConfig config;
    config.parallelism = parallelism;
    config.source_parallelism = source_par;
    config.sink_parallelism = sink_par;
    config.overrides = std::move(overrides);
    engine = std::move(
        *CreateEngine(engine_name, &sim, &network, &cluster, config,
                      scoring));
    CRAYFISH_CHECK_OK(engine->Start());
  }

  void Produce(int n) {
    broker::KafkaProducer producer(&cluster, "gen");
    for (int i = 0; i < n; ++i) {
      broker::Record r;
      r.batch_id = static_cast<uint64_t>(i);
      r.create_time = sim.Now();
      r.batch_size = 1;
      r.wire_size = 3300;
      CRAYFISH_CHECK_OK(producer.Send("crayfish-in", std::move(r)));
    }
    producer.Flush();
  }

  int64_t OutputCount() {
    int64_t total = 0;
    for (int p = 0; p < 8; ++p) {
      total += (*cluster.GetPartition(broker::TopicPartition{
                    *cluster.FindTopic("crayfish-out"), p}))
                   ->end_offset();
    }
    return total;
  }

  sim::Simulation sim;
  sim::Network network;
  broker::KafkaCluster cluster;
  std::unique_ptr<serving::EmbeddedLibrary> library;
  std::unique_ptr<serving::ExternalServingServer> server;
  std::unique_ptr<StreamEngine> engine;
};

class AllEnginesTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AllEnginesTest, ScoresEveryRecordExactlyOnce) {
  EngineHarness h(GetParam());
  h.Produce(40);
  h.sim.Run(30.0);
  EXPECT_EQ(h.engine->events_scored(), 40u) << GetParam();
  EXPECT_EQ(h.engine->records_emitted(), 40u);
  EXPECT_EQ(h.OutputCount(), 40);
}

TEST_P(AllEnginesTest, OutputPreservesCreateTimeAndBatchIdentity) {
  EngineHarness h(GetParam());
  h.Produce(10);
  h.sim.Run(30.0);
  std::set<uint64_t> ids;
  for (int p = 0; p < 8; ++p) {
    std::vector<broker::Record> out;
    CRAYFISH_CHECK_OK(
        (*h.cluster.GetPartition(broker::TopicPartition{
             *h.cluster.FindTopic("crayfish-out"), p}))
            ->Fetch(0, 100, 1 << 30, &out));
    for (const broker::Record& r : out) {
      ids.insert(r.batch_id);
      EXPECT_DOUBLE_EQ(r.create_time, 0.0);  // original creation time
      EXPECT_GT(r.log_append_time, 0.0);
    }
  }
  EXPECT_EQ(ids.size(), 10u);
}

TEST_P(AllEnginesTest, ExternalServingAlsoScoresEverything) {
  EngineHarness h(GetParam(), /*parallelism=*/1, /*external=*/true);
  h.Produce(20);
  h.sim.Run(30.0);
  EXPECT_EQ(h.engine->events_scored(), 20u) << GetParam();
  EXPECT_EQ(h.OutputCount(), 20);
  EXPECT_EQ(h.server->requests_served(), 20u);
}

TEST_P(AllEnginesTest, StopHaltsProcessing) {
  EngineHarness h(GetParam());
  h.Produce(1000);
  h.sim.Run(1.0);
  h.engine->Stop();
  const uint64_t scored = h.engine->events_scored();
  h.sim.Run(10.0);
  // Nothing (or at most already-in-flight work) after Stop.
  EXPECT_LE(h.engine->events_scored(), scored + 2);
}

TEST_P(AllEnginesTest, TelemetryMidBacklogIsPinned) {
  // Lag, partition lag, buffered records and stall time of a backlogged
  // engine, pinned exactly: they feed the timeline and the autoscaler, so
  // folding them over an engine's consumers and tasks must not drift.
  struct Pinned {
    int source_sink_par;
    int64_t lag;
    int64_t max_lag;
    int64_t depth;
    double stall_s;
  };
  const std::map<std::string, std::vector<Pinned>> kPinned = {
      // Chained, then unchained (two source and two sink tasks).
      {"flink",
       {{0, 18000, 2275, 12740, 0.0},
        {2, 15000, 1895, 13868, 1.0027609839277893}}},
      {"kafka-streams", {{0, 17000, 2135, 11740, 0.0}}},
      {"spark", {{0, 2220, 305, 2220, 0.0}}},
      {"ray", {{0, 19000, 2405, 13866, 0.17113300000000509}}},
  };
  for (const Pinned& want : kPinned.at(GetParam())) {
    EngineHarness h(GetParam(), /*parallelism=*/2, /*external=*/false,
                    "tf-serving", want.source_sink_par, want.source_sink_par);
    h.Produce(20000);
    h.sim.Run(1.0);
    const EngineTelemetry t = h.engine->Telemetry();
    EXPECT_EQ(t.consumer_lag, want.lag) << want.source_sink_par;
    EXPECT_EQ(t.max_partition_lag, want.max_lag) << want.source_sink_par;
    EXPECT_EQ(t.queue_depth, want.depth) << want.source_sink_par;
    EXPECT_EQ(t.backpressure_stall_s, want.stall_s) << want.source_sink_par;
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, AllEnginesTest,
                         ::testing::Values("flink", "kafka-streams", "spark",
                                           "ray"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(FlinkEngineTest, ParallelismIncreasesThroughput) {
  EngineHarness h1("flink", 1);
  h1.Produce(8000);
  h1.sim.Run(1.2);
  const uint64_t scored1 = h1.engine->events_scored();

  EngineHarness h4("flink", 4);
  h4.Produce(8000);
  h4.sim.Run(1.2);
  const uint64_t scored4 = h4.engine->events_scored();
  EXPECT_LT(scored1, 8000u);  // mp=1 must not finish within the window
  EXPECT_GT(scored4, scored1 * 2);
}

TEST(FlinkEngineTest, OperatorLevelParallelismOutperformsChained) {
  // Fig. 12: flink[32-N-32] reaches ~3.8x flink[N-N-N] for N=1.
  EngineHarness chained("flink", 1);
  chained.Produce(4000);
  chained.sim.Run(1.5);
  const uint64_t scored_chained = chained.engine->events_scored();

  EngineHarness unchained("flink", 1, false, "tf-serving",
                          /*source_par=*/8, /*sink_par=*/8);
  unchained.Produce(4000);
  unchained.sim.Run(1.5);
  const uint64_t scored_unchained = unchained.engine->events_scored();
  EXPECT_GT(scored_unchained, scored_chained * 2);
}

TEST(FlinkEngineTest, BackpressurePropagatesWithoutLoss) {
  // Unchained pipeline with slow scoring must still process everything.
  EngineHarness h("flink", 1, false, "tf-serving", /*source_par=*/4,
                  /*sink_par=*/4);
  h.Produce(500);
  h.sim.Run(20.0);
  EXPECT_EQ(h.engine->events_scored(), 500u);
  EXPECT_EQ(h.OutputCount(), 500);
}

TEST(FlinkEngineTest, FullSinkQueueParksScoringWithoutLoss) {
  // Eight scoring tasks feed one sink task through a two-record queue, so
  // the sink queue is full most of the time: a scoring task must wait for
  // sink space, never drop the scored record.
  crayfish::Config overrides;
  overrides.SetInt("flink.stage_queue_capacity", 2);
  EngineHarness h("flink", 8, false, "tf-serving", /*source_par=*/2,
                  /*sink_par=*/1, overrides);
  h.Produce(3000);
  h.sim.Run(60.0);
  EXPECT_EQ(h.engine->events_scored(), 3000u);
  EXPECT_EQ(h.engine->records_emitted(), 3000u);
  EXPECT_EQ(h.OutputCount(), 3000);
}

TEST(SparkEngineTest, ProcessesInMicroBatches) {
  EngineHarness h("spark");
  h.Produce(200);
  h.sim.Run(30.0);
  auto* spark = dynamic_cast<SparkEngine*>(h.engine.get());
  ASSERT_NE(spark, nullptr);
  EXPECT_EQ(h.engine->events_scored(), 200u);
  // Far fewer micro-batches than records.
  EXPECT_LT(spark->micro_batches(), 50u);
  EXPECT_GE(spark->micro_batches(), 1u);
}

TEST(SparkEngineTest, MaxOffsetsPerTriggerCapsBatchSize) {
  crayfish::Config overrides;
  overrides.SetInt("spark.max_offsets_per_trigger", 10);
  sim::Simulation sim(13);
  sim::Network network(&sim);
  broker::KafkaCluster cluster(&sim, &network, {});
  CRAYFISH_CHECK_OK(cluster.CreateTopic("crayfish-in", 8));
  CRAYFISH_CHECK_OK(cluster.CreateTopic("crayfish-out", 8));
  CRAYFISH_CHECK_OK(network.AddHost(sim::Host{"gen", 4, 1ULL << 30, false}));
  auto library = std::move(*serving::CreateEmbeddedLibrary("onnx"));
  ScoringConfig scoring;
  scoring.library = library.get();
  scoring.model = serving::ModelProfile::Ffnn();
  EngineConfig config;
  config.overrides = overrides;
  auto engine = std::move(*CreateEngine("spark", &sim, &network, &cluster,
                                        config, scoring));
  CRAYFISH_CHECK_OK(engine->Start());
  broker::KafkaProducer producer(&cluster, "gen");
  for (int i = 0; i < 100; ++i) {
    broker::Record r;
    r.batch_id = static_cast<uint64_t>(i);
    r.batch_size = 1;
    r.wire_size = 3300;
    CRAYFISH_CHECK_OK(producer.Send("crayfish-in", std::move(r)));
  }
  producer.Flush();
  sim.Run(60.0);
  auto* spark = dynamic_cast<SparkEngine*>(engine.get());
  EXPECT_EQ(engine->events_scored(), 100u);
  EXPECT_GE(spark->micro_batches(), 10u);  // at most 10 records per batch
}

TEST(RayEngineTest, ActorChainsScaleWithParallelism) {
  EngineHarness h1("ray", 1);
  h1.Produce(400);
  h1.sim.Run(1.0);
  const uint64_t scored1 = h1.engine->events_scored();

  EngineHarness h4("ray", 4);
  h4.Produce(400);
  h4.sim.Run(1.0);
  EXPECT_GT(h4.engine->events_scored(), scored1 * 2);
}

TEST(KafkaStreamsTest, FasterPerEventThanFlink) {
  // Table 5: KS overhead is lower than Flink's for the same serving tool.
  EngineHarness flink("flink", 1);
  flink.Produce(3000);
  flink.sim.Run(1.2);

  EngineHarness ks("kafka-streams", 1);
  ks.Produce(3000);
  ks.sim.Run(1.2);
  EXPECT_GT(ks.engine->events_scored(), flink.engine->events_scored());
}

}  // namespace
}  // namespace crayfish::sps
