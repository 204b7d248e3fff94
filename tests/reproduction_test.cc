// Asserts the paper's headline findings (the "Takeaways" boxes of §5) as
// executable claims over short experiment runs. These are the shape
// guarantees the benches rely on; if a calibration change breaks one of
// the paper's conclusions, this suite fails.
//
// Every run a takeaway reads is declared once, by name, in Cells(). All of
// them run in one sweep (core::RunExperiments) before the first test, and
// each test reads its cells by name.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "core/experiment.h"
#include "core/standalone.h"
#include "core/sweep.h"

namespace crayfish::core {
namespace {

/// Saturated run: the sustained output rate of an overloaded pipeline.
ExperimentConfig Sustained(const std::string& engine,
                           const std::string& serving,
                           const std::string& model = "ffnn", int mp = 1,
                           double ir = 30000.0, double duration = 8.0) {
  ExperimentConfig cfg;
  cfg.engine = engine;
  cfg.serving = serving;
  cfg.model = model;
  cfg.parallelism = mp;
  cfg.input_rate = ir;
  cfg.duration_s = duration;
  cfg.drain_s = 1.0;
  return cfg;
}

/// Closed-loop run (ir = 1 ev/s): latency dominated by the inference path.
ExperimentConfig ClosedLoop(const std::string& engine,
                            const std::string& serving, int bsz) {
  ExperimentConfig cfg;
  cfg.engine = engine;
  cfg.serving = serving;
  cfg.model = "ffnn";
  cfg.batch_size = bsz;
  cfg.input_rate = 1.0;
  cfg.duration_s = 40.0;
  cfg.drain_s = 5.0;
  return cfg;
}

/// Fig. 9's closed-loop ResNet50 run on Flink, on CPU or GPU.
ExperimentConfig Gpu(const std::string& serving, bool gpu) {
  ExperimentConfig cfg;
  cfg.engine = "flink";
  cfg.serving = serving;
  cfg.model = "resnet50";
  cfg.batch_size = 8;
  cfg.input_rate = 0.2;
  cfg.duration_s = 120.0;
  cfg.drain_s = 20.0;
  cfg.use_gpu = gpu;
  return cfg;
}

/// Table 5's Spark run, rate-limited per trigger.
ExperimentConfig SparkCapped(const std::string& serving) {
  ExperimentConfig cfg = Sustained("spark", serving);
  cfg.engine_overrides.SetInt("spark.max_offsets_per_trigger", 768);
  return cfg;
}

/// Fig. 12's flink[32-1-32]: source and sink pinned to the 32 partitions.
ExperimentConfig Unchained() {
  ExperimentConfig cfg = Sustained("flink", "onnx");
  cfg.source_parallelism = 32;
  cfg.sink_parallelism = 32;
  return cfg;
}

/// Every run the takeaways read, each declared once.
std::vector<std::pair<std::string, ExperimentConfig>> Cells() {
  std::vector<std::pair<std::string, ExperimentConfig>> cells;
  for (const char* tool :
       {"onnx", "dl4j", "savedmodel", "tf-serving", "torchserve"}) {
    cells.emplace_back(std::string("flink/") + tool, Sustained("flink", tool));
  }
  for (const char* engine : {"kafka-streams", "ray", "spark"}) {
    cells.emplace_back(std::string(engine) + "/onnx",
                       Sustained(engine, "onnx"));
  }
  for (const auto& [engine, serving, mp] :
       {std::tuple{"flink", "onnx", 8}, {"flink", "dl4j", 8},
        {"flink", "dl4j", 16}, {"flink", "tf-serving", 8},
        {"flink", "tf-serving", 16}, {"kafka-streams", "onnx", 8},
        {"ray", "onnx", 8}, {"spark", "onnx", 8}, {"ray", "ray-serve", 8},
        {"ray", "ray-serve", 16}}) {
    cells.emplace_back(std::string(engine) + "/" + serving +
                           " mp=" + std::to_string(mp),
                       Sustained(engine, serving, "ffnn", mp));
  }
  for (const char* tool : {"onnx", "tf-serving"}) {
    cells.emplace_back(std::string("flink/") + tool + " resnet50",
                       Sustained("flink", tool, "resnet50", 1, 16.0, 120.0));
    cells.emplace_back(std::string("gpu ") + tool + " cpu", Gpu(tool, false));
    cells.emplace_back(std::string("gpu ") + tool + " gpu", Gpu(tool, true));
    cells.emplace_back(std::string("spark/") + tool + " capped",
                       SparkCapped(tool));
  }
  for (const char* tool : {"tf-serving", "dl4j", "savedmodel"}) {
    cells.emplace_back(std::string("flink/") + tool + " bsz=128",
                       ClosedLoop("flink", tool, 128));
  }
  for (const char* engine : {"flink", "kafka-streams"}) {
    for (int bsz : {32, 128, 512}) {
      cells.emplace_back(
          std::string(engine) + "/onnx bsz=" + std::to_string(bsz),
          ClosedLoop(engine, "onnx", bsz));
    }
  }
  cells.emplace_back("flink/onnx bsz=1", ClosedLoop("flink", "onnx", 1));
  cells.emplace_back("flink/onnx 32-1-32", Unchained());
  return cells;
}

/// Runs every cell once, in one sweep, plus Fig. 13's two standalone runs.
class Takeaways : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    if (!summaries_.empty()) return;
    std::vector<std::string> names;
    std::vector<ExperimentConfig> configs;
    for (auto& [name, config] : Cells()) {
      names.push_back(name);
      configs.push_back(std::move(config));
    }
    auto results = RunExperiments(configs);
    CRAYFISH_CHECK(results.ok()) << results.status().ToString();
    for (size_t i = 0; i < names.size(); ++i) {
      summaries_[names[i]] = (*results)[i].summary;
    }
    // Fig. 13's no-Kafka pipeline, on the configs of its two Kafka cells.
    for (const std::string name : {"flink/onnx bsz=1", "flink/onnx 32-1-32"}) {
      const size_t i = std::find(names.begin(), names.end(), name) -
                       names.begin();
      auto standalone = RunStandaloneFlink(configs.at(i));
      CRAYFISH_CHECK(standalone.ok()) << standalone.status().ToString();
      summaries_["standalone " + name] = standalone->summary;
    }
  }

  static const MetricsSummary& Cell(const std::string& name) {
    static const MetricsSummary kMissing{
        .throughput_eps = std::numeric_limits<double>::quiet_NaN(),
        .latency_mean_ms = std::numeric_limits<double>::quiet_NaN()};
    const auto it = summaries_.find(name);
    if (it != summaries_.end()) return it->second;
    ADD_FAILURE() << "no cell named '" << name << "'";
    return kMissing;
  }
  static double Thr(const std::string& name) {
    return Cell(name).throughput_eps;
  }
  static double LatencyMs(const std::string& name) {
    return Cell(name).latency_mean_ms;
  }

 private:
  static inline std::map<std::string, MetricsSummary> summaries_;
};

class Section51Takeaways : public Takeaways {};
class Section52Takeaways : public Takeaways {};
class Section53Takeaways : public Takeaways {};
class Section6Findings : public Takeaways {};

// --- §5.1 takeaway 1: big performance differences within each category --

TEST_F(Section51Takeaways, PerformanceVariesWithinCategories) {
  // Embedded spread: ONNX ~1.7x DL4J (1373 vs 787).
  EXPECT_GT(Thr("flink/onnx"), Thr("flink/dl4j") * 1.4);
  // External spread: TF-Serving ~2.7x TorchServe (617 vs 225).
  EXPECT_GT(Thr("flink/tf-serving"), Thr("flink/torchserve") * 2.0);
}

// --- §5.1 takeaway 2: ONNX fastest embedded; SavedModel close behind ---

TEST_F(Section51Takeaways, OnnxLeadsEmbeddedTools) {
  const double onnx = Thr("flink/onnx");
  const double saved = Thr("flink/savedmodel");
  EXPECT_GT(onnx, saved);
  EXPECT_GT(saved, Thr("flink/dl4j"));
  // "followed closely by SavedModel": within 10%.
  EXPECT_LT((onnx - saved) / onnx, 0.10);
}

// --- §5.1 takeaway 3: TF-Serving can beat embedded alternatives --------

TEST_F(Section51Takeaways, ExternalTfServingCanBeatEmbeddedDl4jOnLatency) {
  const double tfs = LatencyMs("flink/tf-serving bsz=128");
  const double saved = LatencyMs("flink/savedmodel bsz=128");
  // Fig. 5 @128: TF-Serving (191 ms) below DL4J (229) and within a hair
  // of SavedModel (188).
  EXPECT_LT(tfs, LatencyMs("flink/dl4j bsz=128"));
  EXPECT_LT(std::abs(tfs - saved) / saved, 0.15);
}

// --- §5.1 takeaway 4: embedded options hit a scaling wall --------------

TEST_F(Section51Takeaways, EmbeddedScalingLagsExternalScaling) {
  // DL4J plateaus after mp=8 (Fig. 6): < 15% gain for doubling resources.
  EXPECT_LT(Thr("flink/dl4j mp=16"), Thr("flink/dl4j mp=8") * 1.15);
  // External serving keeps scaling (~2x).
  EXPECT_GT(Thr("flink/tf-serving mp=16"), Thr("flink/tf-serving mp=8") * 1.8);
}

// --- §5.1 takeaway 5: larger models narrow the gap ----------------------

TEST_F(Section51Takeaways, LargeModelsNarrowEmbeddedExternalGap) {
  const double gap_small = Thr("flink/onnx") / Thr("flink/tf-serving");
  const double gap_large =
      Thr("flink/onnx resnet50") / Thr("flink/tf-serving resnet50");
  // FFNN: ONNX ~2.2x TF-Serving. ResNet50: ~1.09x ("the choice ... is
  // not straightforward when serving large models").
  EXPECT_GT(gap_small, 1.8);
  EXPECT_LT(gap_large, 1.3);
}

// --- §5.2: every configuration benefits from GPU acceleration ----------

TEST_F(Section52Takeaways, GpuImprovesBothServingTypes) {
  for (const std::string tool : {"onnx", "tf-serving"}) {
    const double improvement = 1.0 - LatencyMs("gpu " + tool + " gpu") /
                                         LatencyMs("gpu " + tool + " cpu");
    // Fig. 9: 16.4% (onnx) and 24.1% (tf-serving); both clearly positive
    // but far from the naive "GPUs are 20x faster" expectation.
    EXPECT_GT(improvement, 0.08) << tool;
    EXPECT_LT(improvement, 0.40) << tool;
  }
}

// --- §5.3 takeaway 1: Ray — lowest throughput ---------------------------

TEST_F(Section53Takeaways, RayHasLowestSustainedThroughput) {
  const double ray = Thr("ray/onnx");
  EXPECT_LT(ray, Thr("flink/onnx"));
  EXPECT_LT(ray, Thr("kafka-streams/onnx"));
  EXPECT_LT(ray, 300.0);  // Table 5: 157 ev/s
}

// --- §5.3 takeaway 2: Flink vs Kafka Streams latency crossover ---------

TEST_F(Section53Takeaways, FlinkWinsSmallBatchesKafkaStreamsWinsLarge) {
  EXPECT_LT(LatencyMs("flink/onnx bsz=32"),
            LatencyMs("kafka-streams/onnx bsz=32"));
  EXPECT_LT(LatencyMs("flink/onnx bsz=128"),
            LatencyMs("kafka-streams/onnx bsz=128"));
  EXPECT_GT(LatencyMs("flink/onnx bsz=512"),
            LatencyMs("kafka-streams/onnx bsz=512"));
}

// --- §5.3 takeaway 3: Spark's micro-batching saturates external servers -

TEST_F(Section53Takeaways, SparkErasesEmbeddedExternalGap) {
  const double tfs = Thr("spark/tf-serving capped");
  // Table 5: 4045 vs 3924 — "almost imperceptible". Allow 25%.
  EXPECT_GT(tfs, Thr("spark/onnx capped") * 0.75);
  // And Spark dwarfs Flink's external throughput at the same settings.
  EXPECT_GT(tfs, Thr("flink/tf-serving") * 3.0);
}

// --- §5.3 takeaway 4 + Fig. 11: scaling behaviours ----------------------

TEST_F(Section53Takeaways, AllSpsScaleExceptSpark) {
  // Flink, KS, Ray improve with mp...
  for (const std::string sut : {"flink/onnx", "kafka-streams/onnx",
                                "ray/onnx"}) {
    EXPECT_GT(Thr(sut + " mp=8"), Thr(sut) * 3.0) << sut;
  }
  // ...while Spark is flat (chunk fan-out follows partitions, not mp).
  const double spark_1 = Thr("spark/onnx");
  const double spark_8 = Thr("spark/onnx mp=8");
  EXPECT_LT(spark_8, spark_1 * 1.3);
  EXPECT_GT(spark_8, spark_1 * 0.7);
}

TEST_F(Section53Takeaways, RayServeProxyCapsExternalScaling) {
  // Fig. 11: ~455 ev/s ceiling through the single HTTP proxy.
  EXPECT_NEAR(Thr("ray/ray-serve mp=8"), 455.0, 40.0);
  EXPECT_NEAR(Thr("ray/ray-serve mp=16"), 455.0, 40.0);
}

// --- §6.1 / Fig. 12: operator-level parallelism ------------------------

TEST_F(Section6Findings, OperatorLevelParallelismBeatsChained) {
  const double ratio = Thr("flink/onnx 32-1-32") / Thr("flink/onnx");
  // Fig. 12: ~3.8x at N=1.
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 5.0);
}

// --- §6.2 / Fig. 13: Kafka overhead -------------------------------------

TEST_F(Section6Findings, KafkaAddsLatencyButLittleThroughputOverhead) {
  // Latency: standalone much lower ("up to 59% lower" in the paper).
  EXPECT_LT(LatencyMs("standalone flink/onnx bsz=1"),
            LatencyMs("flink/onnx bsz=1") * 0.6);
  // Throughput: near-identical (paper: 2.42% overhead).
  const double standalone = Thr("standalone flink/onnx 32-1-32");
  EXPECT_NEAR(Thr("flink/onnx 32-1-32"), standalone, standalone * 0.10);
}

}  // namespace
}  // namespace crayfish::core
