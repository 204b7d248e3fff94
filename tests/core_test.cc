#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "common/logging.h"

#include "broker/cluster.h"
#include "core/data_batch.h"
#include "core/generator.h"
#include "core/input_producer.h"
#include "core/metrics.h"
#include "core/output_consumer.h"
#include "common/json.h"
#include "core/report.h"
#include "sim/network.h"
#include "sim/simulation.h"

namespace crayfish::core {
namespace {

// ------------------------------------------------------------ data batch --

TEST(DataBatchTest, JsonRoundTrip) {
  CrayfishDataBatch batch;
  batch.id = 42;
  batch.created_at = 1.5;
  batch.shape = {2, 2};
  batch.data = {0.125f, 0.25f, 0.5f, 0.75f, 1.0f, 0.0f, 0.5f, 0.25f};
  const std::string json = batch.ToJson();
  auto back = CrayfishDataBatch::FromJson(json);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->id, 42u);
  EXPECT_NEAR(back->created_at, 1.5, 1e-6);
  EXPECT_EQ(back->shape, batch.shape);
  EXPECT_EQ(back->batch_size(), 2);
  ASSERT_EQ(back->data.size(), 8u);
  EXPECT_NEAR(back->data[3], 0.75f, 1e-3f);
}

TEST(DataBatchTest, RejectsMalformedJson) {
  EXPECT_FALSE(CrayfishDataBatch::FromJson("{}").ok());
  EXPECT_FALSE(CrayfishDataBatch::FromJson("[1,2]").ok());
  EXPECT_FALSE(
      CrayfishDataBatch::FromJson(R"({"shape":[2],"data":[1,2,3]})").ok());
  EXPECT_FALSE(
      CrayfishDataBatch::FromJson(R"({"shape":["x"],"data":[]})").ok());
}

TEST(DataBatchTest, TensorRoundTrip) {
  crayfish::Rng rng(3);
  tensor::Tensor t = tensor::Tensor::Random(tensor::Shape{3, 4, 4}, &rng);
  CrayfishDataBatch batch = CrayfishDataBatch::FromTensor(9, 2.0, t);
  EXPECT_EQ(batch.batch_size(), 3);
  EXPECT_EQ(batch.shape, (std::vector<int64_t>{4, 4}));
  auto back = batch.ToTensor();
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->AllClose(t, 0.0f));
}

TEST(DataBatchTest, WireSizeAccountingTracksRealJson) {
  // The analytic ~4 bytes/element must track a really serialized batch.
  crayfish::Rng rng(5);
  DataGenerator gen({28, 28}, 1, rng);
  CrayfishDataBatch batch = gen.NextMaterialized(0.0);
  const double real = static_cast<double>(batch.ToJson().size());
  const double accounted = static_cast<double>(gen.BatchWireBytes());
  EXPECT_NEAR(accounted, real, real * 0.35);
}

// -------------------------------------------------------------- schedule --

TEST(RateScheduleTest, ConstantRate) {
  RateSchedule s;
  s.base_rate = 100.0;
  EXPECT_DOUBLE_EQ(s.RateAt(0.0), 100.0);
  EXPECT_DOUBLE_EQ(s.RateAt(1000.0), 100.0);
  EXPECT_FALSE(s.InBurst(50.0));
}

TEST(RateScheduleTest, PeriodicBursts) {
  RateSchedule s;
  s.base_rate = 70.0;
  s.bursty = true;
  s.burst_rate = 110.0;
  s.burst_duration_s = 30.0;
  s.time_between_bursts_s = 120.0;
  s.first_burst_at_s = 60.0;
  EXPECT_FALSE(s.InBurst(0.0));
  EXPECT_FALSE(s.InBurst(59.9));
  EXPECT_TRUE(s.InBurst(60.0));
  EXPECT_TRUE(s.InBurst(89.9));
  EXPECT_FALSE(s.InBurst(90.1));
  // Next cycle at 60 + 150.
  EXPECT_TRUE(s.InBurst(210.5));
  EXPECT_DOUBLE_EQ(s.RateAt(75.0), 110.0);
  EXPECT_DOUBLE_EQ(s.RateAt(100.0), 70.0);
}

// ------------------------------------------------------------- generator --

TEST(DataGeneratorTest, MetadataOnlyBatchesHaveIdsAndShape) {
  crayfish::Rng rng(9);
  DataGenerator gen({28, 28}, 4, rng);
  CrayfishDataBatch a = gen.NextMetadataOnly(1.0);
  CrayfishDataBatch b = gen.NextMetadataOnly(2.0);
  EXPECT_EQ(a.id, 0u);
  EXPECT_EQ(b.id, 1u);
  EXPECT_EQ(a.shape, (std::vector<int64_t>{28, 28}));
  EXPECT_TRUE(a.data.empty());
  EXPECT_DOUBLE_EQ(b.created_at, 2.0);
}

TEST(DataGeneratorTest, MaterializedBatchHasCorrectSizeAndRange) {
  crayfish::Rng rng(9);
  DataGenerator gen({4, 4}, 3, rng);
  CrayfishDataBatch batch = gen.NextMaterialized(0.0);
  EXPECT_EQ(batch.data.size(), 48u);
  EXPECT_EQ(batch.batch_size(), 3);
  for (float v : batch.data) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LT(v, 1.0f);
  }
}

TEST(DataGeneratorTest, WireBytesScaleWithBatchSize) {
  crayfish::Rng rng(1);
  DataGenerator g1({28, 28}, 1, rng);
  DataGenerator g8({28, 28}, 8, rng);
  EXPECT_GT(g8.BatchWireBytes(), 7 * g1.BatchWireBytes());
}

// --------------------------------------------------- producer + consumer --

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest() : sim_(5), network_(&sim_), cluster_(&sim_, &network_, {}) {
    CRAYFISH_CHECK_OK(cluster_.CreateTopic("crayfish-in", 8));
    CRAYFISH_CHECK_OK(cluster_.CreateTopic("crayfish-out", 8));
  }
  sim::Simulation sim_;
  sim::Network network_;
  broker::KafkaCluster cluster_;
};

TEST_F(PipelineTest, ProducerHonorsConstantRate) {
  crayfish::Rng rng(5);
  InputProducer::Options opts;
  opts.schedule.base_rate = 100.0;
  opts.stop_at_s = 2.0;
  InputProducer producer(&sim_, &cluster_, DataGenerator({28, 28}, 1, rng),
                         opts);
  producer.Start();
  sim_.Run(5.0);
  EXPECT_NEAR(static_cast<double>(producer.events_sent()), 200.0, 3.0);
}

TEST_F(PipelineTest, ProducerStopsAtMaxEvents) {
  crayfish::Rng rng(5);
  InputProducer::Options opts;
  opts.schedule.base_rate = 1000.0;
  opts.max_events = 50;
  InputProducer producer(&sim_, &cluster_, DataGenerator({28, 28}, 1, rng),
                         opts);
  producer.Start();
  sim_.Run(5.0);
  EXPECT_EQ(producer.events_sent(), 50u);
}

TEST_F(PipelineTest, ProducerRecordsStartTimestamps) {
  crayfish::Rng rng(5);
  InputProducer::Options opts;
  opts.schedule.base_rate = 10.0;
  opts.max_events = 5;
  InputProducer producer(&sim_, &cluster_, DataGenerator({28, 28}, 1, rng),
                         opts);
  producer.Start();
  sim_.Run(2.0);
  int64_t total = 0;
  for (int p = 0; p < 8; ++p) {
    broker::Partition* part =
        *cluster_.GetPartition(broker::TopicPartition{
            *cluster_.FindTopic("crayfish-in"), p});
    std::vector<broker::Record> out;
    CRAYFISH_CHECK_OK(part->Fetch(0, 100, 1 << 30, &out));
    for (const broker::Record& r : out) {
      ++total;
      EXPECT_GE(r.create_time, 0.0);
      EXPECT_GT(r.log_append_time, r.create_time);
      EXPECT_GT(r.wire_size, 3000u);  // ~3 KB FFNN point
    }
  }
  EXPECT_EQ(total, 5);
}

TEST_F(PipelineTest, OutputConsumerComputesLatencies) {
  // Write scored records straight to the output topic and verify the
  // consumer extracts create->append latencies.
  OutputConsumer consumer(&sim_, &cluster_, {});
  consumer.Start();
  broker::KafkaProducer producer(&cluster_, "consumer");
  for (int i = 0; i < 6; ++i) {
    broker::Record r;
    r.batch_id = static_cast<uint64_t>(i);
    r.create_time = 0.0;
    r.batch_size = 2;
    r.wire_size = 200;
    CRAYFISH_CHECK_OK(producer.Send("crayfish-out", std::move(r)));
  }
  producer.Flush();
  sim_.Run(3.0);
  ASSERT_EQ(consumer.count(), 6u);
  for (const Measurement& m : consumer.measurements()) {
    EXPECT_GT(m.latency_s(), 0.0);
    EXPECT_EQ(m.batch_size, 2u);
  }
}

TEST_F(PipelineTest, OutputConsumerStopsAtMaxMeasurements) {
  OutputConsumer::Options opts;
  opts.max_measurements = 3;
  OutputConsumer consumer(&sim_, &cluster_, opts);
  consumer.Start();
  broker::KafkaProducer producer(&cluster_, "consumer");
  for (int i = 0; i < 10; ++i) {
    broker::Record r;
    r.batch_id = static_cast<uint64_t>(i);
    CRAYFISH_CHECK_OK(producer.Send("crayfish-out", std::move(r)));
  }
  producer.Flush();
  sim_.Run(3.0);
  EXPECT_EQ(consumer.count(), 3u);
  EXPECT_TRUE(consumer.done());
}

// --------------------------------------------------------------- metrics --

std::vector<Measurement> SyntheticMeasurements(int n, double latency_s,
                                               double rate) {
  std::vector<Measurement> ms;
  for (int i = 0; i < n; ++i) {
    Measurement m;
    m.batch_id = static_cast<uint64_t>(i);
    m.create_time = i / rate;
    m.append_time = m.create_time + latency_s;
    ms.push_back(m);
  }
  return ms;
}

TEST(MetricsAnalyzerTest, SummarizeComputesThroughputAndLatency) {
  auto ms = SyntheticMeasurements(1000, 0.050, 100.0);
  MetricsSummary s = MetricsAnalyzer::Summarize(ms, 0.25);
  EXPECT_EQ(s.measurements, 750u);
  EXPECT_NEAR(s.latency_mean_ms, 50.0, 1e-6);
  EXPECT_NEAR(s.latency_p99_ms, 50.0, 1e-6);
  EXPECT_NEAR(s.throughput_eps, 100.0, 1.0);
}

TEST(MetricsAnalyzerTest, WarmupDiscardRemovesColdStart) {
  // First quarter (in append-time order) pathologically slow (JVM
  // warmup): events spaced 1 s apart, 500 ms latency early vs 10 ms later.
  std::vector<Measurement> ms;
  for (int i = 0; i < 100; ++i) {
    Measurement m;
    m.create_time = i;
    m.append_time = m.create_time + (i < 25 ? 0.5 : 0.010);
    ms.push_back(m);
  }
  MetricsSummary with = MetricsAnalyzer::Summarize(ms, 0.25);
  EXPECT_NEAR(with.latency_mean_ms, 10.0, 1.0);
  MetricsSummary without = MetricsAnalyzer::Summarize(ms, 0.0);
  EXPECT_GT(without.latency_mean_ms, 100.0);
}

TEST(MetricsAnalyzerTest, EmptyInputYieldsZeroSummary) {
  MetricsSummary s = MetricsAnalyzer::Summarize({}, 0.25);
  EXPECT_EQ(s.measurements, 0u);
  EXPECT_EQ(s.throughput_eps, 0.0);
}

TEST(MetricsAnalyzerTest, ThroughputSeriesBucketsByAppendTime) {
  auto ms = SyntheticMeasurements(100, 0.0, 50.0);  // 2 seconds of data
  auto series = MetricsAnalyzer::ThroughputSeries(ms, 1.0);
  ASSERT_GE(series.size(), 2u);
  EXPECT_NEAR(series[0], 50.0, 1.0);
  EXPECT_NEAR(series[1], 50.0, 1.0);
}

TEST(MetricsAnalyzerTest, BurstRecoveryDetectsStabilization) {
  // Latency 10 ms normally; a burst at t=60..90 drives latency to 500 ms,
  // decaying back by t=130.
  std::vector<Measurement> ms;
  for (int t = 0; t < 300; ++t) {
    for (int k = 0; k < 10; ++k) {
      Measurement m;
      double latency = 0.010;
      if (t >= 60 && t < 90) {
        latency = 0.5;
      } else if (t >= 90 && t < 130) {
        latency = 0.5 * (130 - t) / 40.0 + 0.010;
      }
      m.append_time = t + k * 0.1;
      m.create_time = m.append_time - latency;
      ms.push_back(m);
    }
  }
  RateSchedule schedule;
  schedule.bursty = true;
  schedule.base_rate = 70;
  schedule.burst_rate = 110;
  schedule.burst_duration_s = 30;
  schedule.time_between_bursts_s = 120;
  schedule.first_burst_at_s = 60;
  auto recoveries =
      MetricsAnalyzer::BurstRecoveryTimes(ms, schedule, 300.0);
  ASSERT_GE(recoveries.size(), 1u);
  EXPECT_DOUBLE_EQ(recoveries[0].burst_end_s, 90.0);
  EXPECT_GT(recoveries[0].recovery_s, 20.0);
  EXPECT_LT(recoveries[0].recovery_s, 45.0);
}

TEST(MetricsAnalyzerTest, NonBurstyScheduleYieldsNoRecoveries) {
  auto ms = SyntheticMeasurements(10, 0.01, 10.0);
  RateSchedule schedule;  // not bursty
  EXPECT_TRUE(
      MetricsAnalyzer::BurstRecoveryTimes(ms, schedule, 100.0).empty());
}


TEST(MetricsAnalyzerTest, TimeSeriesBucketsLatencyAndThroughput) {
  auto ms = SyntheticMeasurements(200, 0.020, 100.0);  // 2 s of data
  auto series = MetricsAnalyzer::TimeSeries(ms, 0.5);
  ASSERT_GE(series.size(), 4u);
  // The trailing window is partially filled; check the full ones.
  for (size_t i = 0; i + 1 < series.size(); ++i) {
    const WindowStats& w = series[i];
    EXPECT_NEAR(w.throughput_eps, 100.0, 10.0);
    EXPECT_NEAR(w.latency_mean_ms, 20.0, 1e-6);
    EXPECT_NEAR(w.latency_p95_ms, 20.0, 1e-6);
  }
  EXPECT_DOUBLE_EQ(series[1].window_start_s, 0.5);
}

TEST(MetricsAnalyzerTest, TimeSeriesOmitsEmptyWindows) {
  std::vector<Measurement> ms;
  Measurement a;
  a.create_time = 0.0;
  a.append_time = 0.1;
  ms.push_back(a);
  Measurement b;
  b.create_time = 10.0;
  b.append_time = 10.1;
  ms.push_back(b);
  auto series = MetricsAnalyzer::TimeSeries(ms, 1.0);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0].window_start_s, 0.0);
  EXPECT_DOUBLE_EQ(series[1].window_start_s, 10.0);
}

TEST(MetricsSummaryTest, JsonRoundTripsThroughParser) {
  auto ms = SyntheticMeasurements(100, 0.015, 50.0);
  MetricsSummary s = MetricsAnalyzer::Summarize(ms);
  auto parsed = crayfish::JsonValue::Parse(s.ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetNumberOr("measurements", -1),
            static_cast<double>(s.measurements));
  EXPECT_NEAR(parsed->GetNumberOr("latency_mean_ms", 0.0),
              s.latency_mean_ms, 1e-9);
}

TEST(MetricsAnalyzerTest, WritesMeasurementsCsv) {
  auto ms = SyntheticMeasurements(5, 0.010, 100.0);
  const std::string path = ::testing::TempDir() + "/crayfish_meas.csv";
  ASSERT_TRUE(MetricsAnalyzer::WriteMeasurementsCsv(path, ms).ok());
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header,
            "batch_id,create_time_s,append_time_s,latency_ms,batch_size");
  int lines = 0;
  std::string line;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 5);
  std::filesystem::remove(path);
}

TEST(MetricsSummaryTest, EmptyLogStillProducesValidJson) {
  MetricsSummary s = MetricsAnalyzer::Summarize({}, 0.25);
  auto parsed = crayfish::JsonValue::Parse(s.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->GetNumberOr("measurements", -1), 0.0);
  EXPECT_DOUBLE_EQ(parsed->GetNumberOr("throughput_eps", -1.0), 0.0);
  EXPECT_DOUBLE_EQ(parsed->GetNumberOr("latency_mean_ms", -1.0), 0.0);
}

TEST(MetricsAnalyzerTest, WriteMeasurementsCsvToUnwritablePathFails) {
  auto ms = SyntheticMeasurements(3, 0.010, 100.0);
  const crayfish::Status s = MetricsAnalyzer::WriteMeasurementsCsv(
      "/nonexistent-dir/crayfish_meas.csv", ms);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("cannot open"), std::string::npos);
}

TEST(MetricsAnalyzerTest, WriteMeasurementsCsvEmptyLogWritesHeaderOnly) {
  const std::string path = ::testing::TempDir() + "/crayfish_empty.csv";
  ASSERT_TRUE(MetricsAnalyzer::WriteMeasurementsCsv(path, {}).ok());
  std::ifstream in(path);
  std::string header;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, header)));
  EXPECT_EQ(header,
            "batch_id,create_time_s,append_time_s,latency_ms,batch_size");
  std::string rest;
  EXPECT_FALSE(static_cast<bool>(std::getline(in, rest)));
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------- report --

TEST(ReportTableTest, RendersAlignedTable) {
  ReportTable table("Table 4", {"Tool", "Throughput"});
  table.AddRow({"onnx", ReportTable::Num(1373.07)});
  table.AddRow({"tf-serving", ReportTable::Num(617.2)});
  const std::string s = table.ToString();
  EXPECT_NE(s.find("== Table 4 =="), std::string::npos);
  EXPECT_NE(s.find("onnx"), std::string::npos);
  EXPECT_NE(s.find("1373.07"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
}

TEST(ReportTableTest, NumFormatsPrecision) {
  EXPECT_EQ(ReportTable::Num(3.14159, 2), "3.14");
  EXPECT_EQ(ReportTable::Num(3.0, 0), "3");
}

TEST(ReportTableTest, WritesCsvWithEscaping) {
  ReportTable table("t", {"a", "b"});
  table.AddRow({"x,y", "plain"});
  table.AddRow({"quote\"inside", "2"});
  const std::string path = ::testing::TempDir() + "/crayfish_report.csv";
  ASSERT_TRUE(table.WriteCsv(path).ok());
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "\"x,y\",plain");
  std::getline(in, line);
  EXPECT_EQ(line, "\"quote\"\"inside\",2");
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace crayfish::core
