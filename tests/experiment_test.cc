#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/logging.h"
#include "core/experiment.h"
#include "core/properties.h"

namespace crayfish::core {
namespace {

ExperimentConfig QuickConfig(const std::string& engine,
                             const std::string& serving) {
  ExperimentConfig cfg;
  cfg.engine = engine;
  cfg.serving = serving;
  cfg.model = "ffnn";
  cfg.input_rate = 200.0;
  cfg.duration_s = 8.0;
  cfg.drain_s = 4.0;
  return cfg;
}

TEST(ExperimentTest, RejectsInvalidParameters) {
  ExperimentConfig cfg = QuickConfig("flink", "onnx");
  cfg.batch_size = 0;
  EXPECT_FALSE(RunExperiment(cfg).ok());
  cfg = QuickConfig("flink", "onnx");
  cfg.input_rate = 0.0;
  EXPECT_FALSE(RunExperiment(cfg).ok());
  cfg = QuickConfig("flink", "clipper");
  EXPECT_FALSE(RunExperiment(cfg).ok());
  cfg = QuickConfig("storm", "onnx");
  EXPECT_FALSE(RunExperiment(cfg).ok());
}

TEST(ExperimentTest, RejectsNonFiniteRateAndNegativeOrNonFiniteHorizon) {
  // Each of these used to run zero events and succeed, never terminate,
  // or abort in InputProducer's CHECK instead of returning an error.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  auto rejected = [](const ExperimentConfig& cfg) {
    auto result = RunExperiment(cfg);
    return !result.ok() && result.status().IsInvalidArgument();
  };
  for (double v : {kNaN, kInf, -kInf}) {
    ExperimentConfig cfg = QuickConfig("flink", "tf-serving");
    cfg.input_rate = v;
    EXPECT_TRUE(rejected(cfg)) << "input_rate " << v;
  }
  for (double v : {kNaN, -1.0, kInf, -kInf}) {
    ExperimentConfig cfg = QuickConfig("flink", "tf-serving");
    cfg.duration_s = v;
    EXPECT_TRUE(rejected(cfg)) << "duration_s " << v;
    cfg = QuickConfig("flink", "tf-serving");
    cfg.drain_s = v;
    EXPECT_TRUE(rejected(cfg)) << "drain_s " << v;
  }
  // A zero-length run only builds and tears down the deployment.
  ExperimentConfig zero = QuickConfig("flink", "tf-serving");
  zero.duration_s = 0.0;
  zero.drain_s = 0.0;
  EXPECT_TRUE(RunExperiment(zero).ok());
}

TEST(ExperimentTest, SampleShapesFollowModel) {
  ExperimentConfig cfg;
  cfg.model = "ffnn";
  EXPECT_EQ(cfg.SampleShape(), (std::vector<int64_t>{28, 28}));
  cfg.model = "resnet50";
  EXPECT_EQ(cfg.SampleShape(), (std::vector<int64_t>{224, 224, 3}));
}

TEST(ExperimentTest, LabelDescribesConfiguration) {
  ExperimentConfig cfg = QuickConfig("spark", "tf-serving");
  cfg.use_gpu = true;
  const std::string label = cfg.Label();
  EXPECT_NE(label.find("spark"), std::string::npos);
  EXPECT_NE(label.find("tf-serving"), std::string::npos);
  EXPECT_NE(label.find("gpu"), std::string::npos);
}

class EngineServingMatrixTest
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string>> {};

TEST_P(EngineServingMatrixTest, PipelineDeliversMeasurements) {
  const auto& [engine, serving] = GetParam();
  ExperimentConfig cfg = QuickConfig(engine, serving);
  // Ray's per-event costs are high; keep its offered load sustainable so
  // the run drains within the horizon.
  if (engine == "ray") cfg.input_rate = 50.0;
  auto result = RunExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->events_sent, 0u);
  EXPECT_GT(result->events_scored, 0u);
  EXPECT_GT(result->summary.measurements, 0u);
  EXPECT_GT(result->summary.latency_mean_ms, 0.0);
  EXPECT_GT(result->summary.throughput_eps, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EngineServingMatrixTest,
    ::testing::Combine(::testing::Values("flink", "kafka-streams", "spark",
                                         "ray"),
                       ::testing::Values("onnx", "tf-serving")),
    [](const auto& info) {
      std::string n = std::get<0>(info.param) + "_" +
                      std::get<1>(info.param);
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

TEST(ExperimentTest, DeterministicUnderSameSeed) {
  ExperimentConfig cfg = QuickConfig("flink", "onnx");
  cfg.seed = 99;
  auto a = RunExperiment(cfg);
  auto b = RunExperiment(cfg);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->events_sent, b->events_sent);
  EXPECT_EQ(a->events_scored, b->events_scored);
  EXPECT_EQ(a->summary.measurements, b->summary.measurements);
  EXPECT_DOUBLE_EQ(a->summary.latency_mean_ms, b->summary.latency_mean_ms);
  EXPECT_EQ(a->sim_events_executed, b->sim_events_executed);
}

TEST(ExperimentTest, DifferentSeedsProduceDifferentJitter) {
  ExperimentConfig cfg = QuickConfig("flink", "onnx");
  cfg.seed = 1;
  auto a = RunExperiment(cfg);
  cfg.seed = 2;
  auto b = RunExperiment(cfg);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->summary.latency_mean_ms, b->summary.latency_mean_ms);
}

TEST(ExperimentTest, SustainableLoadScoresEverythingSent) {
  ExperimentConfig cfg = QuickConfig("flink", "onnx");
  cfg.input_rate = 100.0;  // far below ONNX/Flink capacity (~1.3k)
  auto result = RunExperiment(cfg);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->events_scored, result->events_sent);
  // Well under capacity: latency stays in the low tens of ms.
  EXPECT_LT(result->summary.latency_mean_ms, 50.0);
}

TEST(ExperimentTest, OverloadSaturatesAtSustainableThroughput) {
  ExperimentConfig cfg = QuickConfig("flink", "onnx");
  cfg.input_rate = 30000.0;
  cfg.duration_s = 10.0;
  cfg.drain_s = 1.0;
  auto result = RunExperiment(cfg);
  ASSERT_TRUE(result.ok());
  // Paper Table 4: ~1373 ev/s for Flink+ONNX+FFNN.
  EXPECT_GT(result->summary.throughput_eps, 1000.0);
  EXPECT_LT(result->summary.throughput_eps, 1800.0);
  // Overloaded: latency explodes relative to the sustainable case.
  EXPECT_GT(result->summary.latency_mean_ms, 500.0);
}

TEST(ExperimentTest, MaxEventsCapsGeneration) {
  ExperimentConfig cfg = QuickConfig("flink", "onnx");
  cfg.max_events = 100;
  cfg.input_rate = 1000.0;
  auto result = RunExperiment(cfg);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->events_sent, 100u);
  EXPECT_EQ(result->events_scored, 100u);
}

TEST(ExperimentTest, BurstyRunProducesRecoveryAnalysis) {
  ExperimentConfig cfg = QuickConfig("flink", "onnx");
  cfg.bursty = true;
  cfg.input_rate = 900.0;          // ~70% of ST
  cfg.burst_rate = 1500.0;         // ~115% of ST
  cfg.burst_duration_s = 10.0;
  cfg.time_between_bursts_s = 30.0;
  cfg.first_burst_at_s = 20.0;
  cfg.duration_s = 100.0;
  cfg.drain_s = 10.0;
  auto result = RunExperiment(cfg);
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result->recoveries.size(), 2u);
  for (const BurstRecovery& r : result->recoveries) {
    EXPECT_GT(r.burst_end_s, r.burst_start_s);
  }
  // At least the first burst must recover within the run.
  EXPECT_GE(result->recoveries[0].recovery_s, 0.0);
}

TEST(ExperimentTest, GpuReducesResNetLatency) {
  ExperimentConfig cpu;
  cpu.engine = "flink";
  cpu.serving = "onnx";
  cpu.model = "resnet50";
  cpu.batch_size = 8;
  cpu.input_rate = 0.2;
  cpu.duration_s = 60.0;
  cpu.drain_s = 15.0;
  ExperimentConfig gpu = cpu;
  gpu.use_gpu = true;
  auto r_cpu = RunExperiment(cpu);
  auto r_gpu = RunExperiment(gpu);
  ASSERT_TRUE(r_cpu.ok());
  ASSERT_TRUE(r_gpu.ok());
  EXPECT_LT(r_gpu->summary.latency_mean_ms, r_cpu->summary.latency_mean_ms);
}

TEST(ExperimentTest, RunRepeatedAggregatesAcrossSeeds) {
  ExperimentConfig cfg = QuickConfig("kafka-streams", "onnx");
  auto results = RunRepeated(cfg, 2);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 2u);
  Aggregate thr = AggregateThroughput(*results);
  EXPECT_GT(thr.mean, 0.0);
  Aggregate lat = AggregateLatencyMean(*results);
  EXPECT_GT(lat.mean, 0.0);
}

TEST(ExperimentTest, Fig12OperatorParallelismBeatsChained) {
  ExperimentConfig chained = QuickConfig("flink", "onnx");
  chained.input_rate = 30000.0;
  chained.duration_s = 8.0;
  chained.drain_s = 1.0;
  ExperimentConfig unchained = chained;
  unchained.source_parallelism = 32;
  unchained.sink_parallelism = 32;
  auto r_chained = RunExperiment(chained);
  auto r_unchained = RunExperiment(unchained);
  ASSERT_TRUE(r_chained.ok());
  ASSERT_TRUE(r_unchained.ok());
  // Fig. 12: ~3.8x at N=1.
  EXPECT_GT(r_unchained->summary.throughput_eps,
            r_chained->summary.throughput_eps * 2.0);
}


TEST(ExperimentTest, ValidationModeRunsRealInferenceInThePipeline) {
  // Every scored batch triggers a true forward pass inside the scoring
  // operator: JSON payload -> tensor -> model loaded through the
  // library's native format. Simulated metrics stay calibrated.
  ExperimentConfig cfg = QuickConfig("flink", "onnx");
  cfg.input_rate = 50.0;
  cfg.duration_s = 4.0;
  cfg.drain_s = 2.0;
  cfg.validate_real_inference = true;
  auto r = RunExperiment(cfg);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->events_scored, 0u);
  EXPECT_EQ(r->real_inferences, r->events_scored);
  // Without the flag, no real compute happens.
  cfg.validate_real_inference = false;
  auto plain = RunExperiment(cfg);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->real_inferences, 0u);
}

TEST(ExperimentTest, ValidationModeWorksOnEveryEngineAndLibrary) {
  // "flink-unchained" is Fig. 12's flink[2-1-2]: its scoring operator is
  // a task of its own, not a link of the chained slot.
  for (const std::string engine :
       {"flink", "flink-unchained", "kafka-streams", "spark", "ray"}) {
    for (const char* lib : {"dl4j", "onnx", "savedmodel"}) {
      ExperimentConfig cfg = QuickConfig(engine, lib);
      if (engine == "flink-unchained") {
        cfg.engine = "flink";
        cfg.source_parallelism = 2;
        cfg.sink_parallelism = 2;
      }
      cfg.input_rate = 20.0;
      cfg.duration_s = 3.0;
      cfg.drain_s = 3.0;
      cfg.validate_real_inference = true;
      auto r = RunExperiment(cfg);
      ASSERT_TRUE(r.ok()) << engine << "/" << lib << ": "
                          << r.status().ToString();
      EXPECT_GT(r->events_scored, 0u) << engine << "/" << lib;
      EXPECT_EQ(r->real_inferences, r->events_scored)
          << engine << "/" << lib;
    }
  }
}

TEST(ExperimentTest, ValidationModeRejectsUnsupportedModels) {
  ExperimentConfig cfg = QuickConfig("flink", "onnx");
  cfg.model = "resnet50";
  cfg.validate_real_inference = true;
  EXPECT_TRUE(RunExperiment(cfg).status().IsInvalidArgument());
}

TEST(ExperimentTest, ValidationModeRejectsExternalServing) {
  // An external server computes out of process, so no real forward pass
  // could run in the scoring operator: the run is refused, not silently
  // left unvalidated.
  for (const char* tool : {"tf-serving", "torchserve", "ray-serve"}) {
    ExperimentConfig cfg = QuickConfig("flink", tool);
    cfg.validate_real_inference = true;
    auto r = RunExperiment(cfg);
    ASSERT_FALSE(r.ok()) << tool;
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
  }
}

// --- properties -> ExperimentConfig (core/properties.h) ---

Config Props(const std::string& text) {
  auto props = Config::FromProperties(text);
  CRAYFISH_CHECK(props.ok()) << props.status().ToString();
  return *props;
}

TEST(PropertiesTest, MapsEveryTableOneKey) {
  auto cfg = ExperimentConfigFromProperties(Props(
      "engine = spark\nserving = torchserve\nmodel = resnet50\nbsz = 8\n"
      "ir = 750.5\nmp = 3\ngpu = true\nbursty = true\nburst_rate = 900\n"
      "bd = 12\ntbb = 40\nfirst_burst_at_s = 5\npartitions = 16\n"
      "max_events = 100\nmax_measurements = 50\nseed = 7\ntrace = true\n"
      "spark.max_offsets_per_trigger = 768\n"
      "workload.kind = flash-crowd\nautoscaler.max_replicas = 6\n"));
  ASSERT_TRUE(cfg.ok()) << cfg.status().ToString();
  EXPECT_EQ(cfg->engine, "spark");
  EXPECT_EQ(cfg->serving, "torchserve");
  EXPECT_EQ(cfg->model, "resnet50");
  EXPECT_EQ(cfg->batch_size, 8);
  EXPECT_DOUBLE_EQ(cfg->input_rate, 750.5);
  EXPECT_EQ(cfg->parallelism, 3);
  EXPECT_TRUE(cfg->use_gpu);
  EXPECT_TRUE(cfg->bursty);
  EXPECT_DOUBLE_EQ(cfg->burst_rate, 900.0);
  EXPECT_DOUBLE_EQ(cfg->burst_duration_s, 12.0);
  EXPECT_DOUBLE_EQ(cfg->time_between_bursts_s, 40.0);
  EXPECT_DOUBLE_EQ(cfg->first_burst_at_s, 5.0);
  EXPECT_EQ(cfg->topic_partitions, 16);
  EXPECT_EQ(cfg->max_events, 100u);
  EXPECT_EQ(cfg->max_measurements, 50u);
  EXPECT_EQ(cfg->seed, 7u);
  EXPECT_TRUE(cfg->enable_tracing);
  // Engine keys pass through; spec overrides go to their specs only.
  EXPECT_EQ(*cfg->engine_overrides.GetString("spark.max_offsets_per_trigger"),
            "768");
  EXPECT_EQ(cfg->engine_overrides.values().size(), 1u);
  EXPECT_TRUE(cfg->workload.enabled);
  EXPECT_EQ(cfg->workload.shape.kind, scale::ShapeKind::kFlashCrowd);
  EXPECT_TRUE(cfg->autoscaler.enabled);
  EXPECT_EQ(cfg->autoscaler.max_replicas, 6);
}

TEST(PropertiesTest, SweptBurstDurationReachesTheConfig) {
  // crayfish_sweep sets the swept key on the base config per point.
  Config base = Props("engine = flink\nserving = onnx\nbursty = true\n");
  std::vector<double> seen;
  for (const char* bd : {"10", "30"}) {
    Config point = base;
    point.Set("bd", bd);
    auto cfg = ExperimentConfigFromProperties(point);
    ASSERT_TRUE(cfg.ok()) << cfg.status().ToString();
    seen.push_back(cfg->burst_duration_s);
  }
  EXPECT_EQ(seen, (std::vector<double>{10.0, 30.0}));
}

TEST(PropertiesTest, RejectsUnknownKeysAndMalformedValues) {
  // A key the mapping does not read, such as one left over from a removed
  // option or a typo, must fail loudly rather than be ignored.
  for (const std::string key : {"sim_threads", "engnie"}) {
    auto cfg = ExperimentConfigFromProperties(Props(key + " = 4\n"));
    ASSERT_FALSE(cfg.ok()) << key;
    EXPECT_TRUE(cfg.status().IsInvalidArgument());
    EXPECT_NE(cfg.status().message().find(key), std::string::npos)
        << cfg.status().ToString();
  }
  EXPECT_FALSE(ExperimentConfigFromProperties(Props("bsz = four\n")).ok());
  EXPECT_FALSE(ExperimentConfigFromProperties(Props("gpu = maybe\n")).ok());
  for (const char* line : {"duration_s = nan\n", "drain_s = inf\n",
                           "drain_s = -inf\n", "ir = nan\n", "ir = 1e999\n"}) {
    EXPECT_FALSE(ExperimentConfigFromProperties(Props(line)).ok()) << line;
  }
  EXPECT_FALSE(
      ExperimentConfigFromProperties(Props("faults = /nonexistent.json\n"))
          .ok());
  EXPECT_FALSE(
      ExperimentConfigFromProperties(Props("fault.crash0.at_s = 3\n")).ok());
}

TEST(PropertiesTest, RelativeSpecPathsResolveAgainstBaseDir) {
  // A properties file names its spec files relative to its own directory,
  // so the same file loads from any working directory.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "crayfish_spec_path_test";
  std::filesystem::create_directories(dir / "specs");
  std::ofstream(dir / "specs" / "plan.json")
      << R"({"faults": [{"kind": "broker_crash", "at_s": 3, "until_s": 4}]})";
  const Config props = Props("faults = specs/plan.json\n");
  auto cfg = ExperimentConfigFromProperties(props, dir.string());
  ASSERT_TRUE(cfg.ok()) << cfg.status().ToString();
  ASSERT_EQ(cfg->fault_plan.faults.size(), 1u);
  EXPECT_DOUBLE_EQ(cfg->fault_plan.faults[0].at_s, 3.0);
  // The dataset path is resolved the same way; the file is read at run time.
  auto data = ExperimentConfigFromProperties(Props("dataset = data.jsonl\n"),
                                             dir.string());
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(data->dataset_path, (dir / "data.jsonl").string());
  // Without a base directory the path is relative to the working directory,
  // where no such file exists.
  EXPECT_FALSE(ExperimentConfigFromProperties(props).ok());
  // An absolute path is used as given, whatever the base directory.
  auto abs = ExperimentConfigFromProperties(
      Props("faults = " + (dir / "specs" / "plan.json").string() + "\n"),
      "/nonexistent");
  EXPECT_TRUE(abs.ok()) << abs.status().ToString();
  std::filesystem::remove_all(dir);
}

TEST(PropertiesTest, RejectsNonIntegralAndOutOfRangeOverrides) {
  // Integer overrides used to truncate through static_cast<int>(double):
  // 2.5 silently became 2, and -1 or 1e12 was undefined behaviour.
  for (const char* line :
       {"autoscaler.min_replicas = 2.5\n", "workload.seed = -1\n",
        "workload.tenants = 1e12\n", "mp = 1e20\n", "mp = 3e9\n",
        "max_events = -1\n", "seed = -1\n"}) {
    auto cfg = ExperimentConfigFromProperties(
        Props(std::string("engine = flink\nserving = onnx\n") + line));
    ASSERT_FALSE(cfg.ok()) << line;
    EXPECT_TRUE(cfg.status().IsInvalidArgument()) << line;
  }
  auto ok = ExperimentConfigFromProperties(Props(
      "engine = flink\nserving = onnx\nautoscaler.max_replicas = 8.0\n"));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->autoscaler.max_replicas, 8);
}

TEST(PropertiesTest, RejectsBadEngineOverridesAtLoadTime) {
  // Engine cost overrides are checked when the file loads, like every
  // other key, not after the cluster of the run is built.
  for (const char* line :
       {"flink.asyncio = true\n", "flink.async_io = maybe\n",
        "spark.max_offsets_per_trigger = 2.5\n", "storm.parallelism = 2\n",
        "kafka-streams.record_fixed_s = 1\n"}) {
    auto cfg = ExperimentConfigFromProperties(
        Props(std::string("engine = flink\nserving = onnx\n") + line));
    ASSERT_FALSE(cfg.ok()) << line;
    EXPECT_TRUE(cfg.status().IsInvalidArgument()) << line;
  }
  // Another engine's known field passes: sweep bases are shared.
  auto ok = ExperimentConfigFromProperties(
      Props("engine = flink\nserving = onnx\nspark.continuous = true\n"
            "flink.async_io = true\n"));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->engine_overrides.values().size(), 2u);
}

}  // namespace
}  // namespace crayfish::core
