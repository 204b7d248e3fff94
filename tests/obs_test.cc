#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/rng.h"
#include "core/breakdown.h"
#include "core/experiment.h"
#include "obs/format.h"
#include "obs/registry.h"
#include "obs/slo.h"
#include "obs/stage.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace crayfish::obs {
namespace {

// ----------------------------------------------------------------- stages --

TEST(StageTest, NamesAreUniqueAndOrdered) {
  ASSERT_EQ(AllStages().size(), static_cast<size_t>(kNumStages));
  std::vector<std::string> names;
  for (Stage s : AllStages()) names.push_back(StageName(s));
  for (size_t i = 0; i < names.size(); ++i) {
    for (size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]);
    }
  }
  EXPECT_EQ(names.front(), "produce");
  EXPECT_EQ(names.back(), "output-append");
}

// --------------------------------------------------------------- registry --

TEST(RegistryTest, KeySortsLabels) {
  EXPECT_EQ(MetricsRegistry::Key("m", {{"b", "2"}, {"a", "1"}}),
            "m{a=1,b=2}");
  EXPECT_EQ(MetricsRegistry::Key("m", {}), "m");
}

TEST(RegistryTest, ReturnsStablePointers) {
  MetricsRegistry reg;
  CounterMetric* c1 = reg.Counter("events", {{"engine", "flink"}});
  CounterMetric* c2 = reg.Counter("events", {{"engine", "flink"}});
  EXPECT_EQ(c1, c2);
  c1->Increment(3.0);
  EXPECT_DOUBLE_EQ(c2->value(), 3.0);
  // Different labels => different instance.
  EXPECT_NE(c1, reg.Counter("events", {{"engine", "ray"}}));
  EXPECT_EQ(reg.size(), 2u);
}

TEST(RegistryTest, HistogramTracksExactMomentsAndPercentiles) {
  MetricsRegistry reg;
  HistogramMetric* h = reg.Histogram("lat");
  for (int i = 1; i <= 100; ++i) h->Observe(i * 0.001);
  EXPECT_EQ(h->count(), 100u);
  EXPECT_NEAR(h->mean(), 0.0505, 1e-9);
  EXPECT_DOUBLE_EQ(h->min(), 0.001);
  EXPECT_DOUBLE_EQ(h->max(), 0.100);
  EXPECT_NEAR(h->Percentile(50.0), 0.050, 0.005);
  EXPECT_NEAR(h->Percentile(95.0), 0.095, 0.01);
}

TEST(RegistryTest, SnapshotIsValidJsonWithAllKinds) {
  MetricsRegistry reg;
  reg.Counter("c", {{"x", "1"}})->Increment(5.0);
  reg.Gauge("g")->Set(2.5);
  reg.Histogram("h")->Observe(0.25);
  auto parsed = crayfish::JsonValue::Parse(reg.SnapshotJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_DOUBLE_EQ(parsed->GetNumberOr("c{x=1}", -1.0), 5.0);
  EXPECT_DOUBLE_EQ(parsed->GetNumberOr("g", -1.0), 2.5);
}

TEST(RegistryTest, CsvQuotesLabeledKeys) {
  MetricsRegistry reg;
  reg.Counter("c", {{"a", "1"}, {"b", "2"}})->Increment();
  const std::string csv = reg.ToCsv();
  // The key contains a comma, so it must be quoted to stay one column.
  EXPECT_NE(csv.find("\"c{a=1,b=2}\""), std::string::npos);
}

TEST(RegistryTest, CsvDoublesEmbeddedQuotesRfc4180) {
  // Regression: a label value containing `"` (and a comma) must export
  // with the quote doubled, or the row stops parsing as one key column.
  MetricsRegistry reg;
  reg.Gauge("g", {{"path", "a\"b,c"}})->Set(1.0);
  const std::string csv = reg.ToCsv();
  EXPECT_NE(csv.find("\"g{path=a\"\"b,c}\""), std::string::npos)
      << csv;
  // The undoubled form must be gone.
  EXPECT_EQ(csv.find("\"g{path=a\"b,c}\""), std::string::npos);
}

// ------------------------------------------------------------------ trace --

/// The marks of `batch_id` in order (empty when it was never started).
std::vector<TraceRecorder::StageMark> MarksOf(const TraceRecorder& trace,
                                              uint64_t batch_id) {
  std::vector<TraceRecorder::StageMark> marks;
  if (const TraceRecorder::BatchTrace* bt = trace.FindBatch(batch_id)) {
    trace.ForEachMark(*bt, [&](const TraceRecorder::StageMark& m) {
      marks.push_back(m);
    });
  }
  return marks;
}

TEST(TraceTest, MarksTileTheBatchLifetime) {
  TraceRecorder trace;
  trace.StartBatch(7, 1.0);
  trace.Mark(7, Stage::kBrokerAppend, 1.5);
  trace.Mark(7, Stage::kFetchPoll, 1.9);
  trace.MarkAppend(7, 2.5);  // second append path is exercised below
  ASSERT_NE(trace.FindBatch(7), nullptr);
  const auto marks = MarksOf(trace, 7);
  ASSERT_EQ(marks.size(), 3u);
  EXPECT_DOUBLE_EQ(trace.FindBatch(7)->start_s, 1.0);
  double prev = 1.0, total = 0.0;
  for (const auto& mark : marks) {
    total += mark.time_s - prev;
    prev = mark.time_s;
  }
  EXPECT_DOUBLE_EQ(total, 1.5);  // == last mark - start
}

TEST(TraceTest, ProduceAndAppendResolveByPosition) {
  TraceRecorder trace;
  trace.StartBatch(1, 0.0);
  trace.MarkProduce(1, 0.1);  // no appends yet -> kProduce
  trace.MarkAppend(1, 0.2);   // first append -> kBrokerAppend
  trace.MarkProduce(1, 0.8);  // after an append -> kSinkProduce
  trace.MarkAppend(1, 0.9);   // second append -> kOutputAppend, complete
  const auto marks = MarksOf(trace, 1);
  ASSERT_EQ(marks.size(), 4u);
  EXPECT_EQ(marks[0].stage, Stage::kProduce);
  EXPECT_EQ(marks[1].stage, Stage::kBrokerAppend);
  EXPECT_EQ(marks[2].stage, Stage::kSinkProduce);
  EXPECT_EQ(marks[3].stage, Stage::kOutputAppend);
  EXPECT_TRUE(trace.FindBatch(1)->complete);
  EXPECT_EQ(trace.completed_batches(), 1u);
}

TEST(TraceTest, CompletedBatchIgnoresLateMarks) {
  TraceRecorder trace;
  trace.StartBatch(1, 0.0);
  trace.MarkAppend(1, 0.2);
  trace.MarkAppend(1, 0.9);  // completes
  trace.Mark(1, Stage::kFetchPoll, 1.5);  // the measurement consumer
  EXPECT_EQ(MarksOf(trace, 1).size(), 2u);
}

TEST(TraceTest, UnknownBatchAndClampedTimes) {
  TraceRecorder trace;
  trace.Mark(99, Stage::kScore, 1.0);  // never started: dropped
  EXPECT_EQ(trace.batch_count(), 0u);
  trace.StartBatch(1, 1.0);
  trace.Mark(1, Stage::kBrokerAppend, 0.5);  // earlier than start: clamps
  EXPECT_DOUBLE_EQ(MarksOf(trace, 1).at(0).time_s, 1.0);
}

TEST(TraceTest, SparseOutOfOrderIdsKeepTheirOwnMarks) {
  // Ids arrive out of order and far apart; marks interleave across batches
  // in the shared arena, and each batch still reads back only its own, in
  // order, while exports walk batches in id order.
  TraceRecorder trace;
  trace.StartBatch(10, 0.0);
  trace.StartBatch(12345678901ULL, 0.0);
  trace.StartBatch(3, 0.0);
  trace.StartBatch(11, 0.0);
  trace.Mark(11, Stage::kProduce, 0.1);
  trace.Mark(3, Stage::kProduce, 0.2);
  trace.Mark(11, Stage::kScore, 0.3);
  trace.Mark(12345678901ULL, Stage::kProduce, 0.4);
  trace.Mark(3, Stage::kScore, 0.5);
  trace.Mark(4, Stage::kScore, 0.6);  // never started: dropped
  EXPECT_EQ(trace.batch_count(), 4u);
  EXPECT_EQ(trace.FindBatch(4), nullptr);
  EXPECT_EQ(trace.FindBatch(2), nullptr);
  EXPECT_EQ(trace.FindBatch(99999999999ULL), nullptr);
  ASSERT_NE(trace.FindBatch(10), nullptr);
  EXPECT_TRUE(MarksOf(trace, 10).empty());
  const auto three = MarksOf(trace, 3);
  ASSERT_EQ(three.size(), 2u);
  EXPECT_EQ(three[0].stage, Stage::kProduce);
  EXPECT_DOUBLE_EQ(three[1].time_s, 0.5);
  const auto eleven = MarksOf(trace, 11);
  ASSERT_EQ(eleven.size(), 2u);
  EXPECT_EQ(eleven[1].stage, Stage::kScore);
  EXPECT_DOUBLE_EQ(eleven[1].time_s, 0.3);
  EXPECT_EQ(MarksOf(trace, 12345678901ULL).size(), 1u);
  EXPECT_EQ(trace.ToStageCsv(),
            "batch_id,stage,start_s,end_s,duration_ms\n"
            "3,produce,0.000000000,0.200000000,200.000000\n"
            "3,score,0.200000000,0.500000000,300.000000\n"
            "11,produce,0.000000000,0.100000000,100.000000\n"
            "11,score,0.100000000,0.300000000,200.000000\n"
            "12345678901,produce,0.000000000,0.400000000,400.000000\n");
}

TEST(TraceTest, InternedNamesAreSharedAcrossTracksAndSpans) {
  TraceRecorder trace;
  const uint32_t pool = trace.Intern("pool");
  EXPECT_EQ(trace.Intern("pool"), pool);
  const uint32_t serve = trace.Intern("serve");
  EXPECT_NE(serve, pool);
  EXPECT_EQ(trace.text(serve), "serve");
  trace.AddTrackSpan(pool, serve, 0.1, 0.2);
  trace.AddTrackSpan("pool", "serve", 0.3, 0.4);  // the same two ids
  ASSERT_EQ(trace.track_spans().size(), 2u);
  EXPECT_EQ(trace.track_spans()[1].track, pool);
  EXPECT_EQ(trace.track_spans()[1].name, serve);

  // Tids follow the first span on each track, not the intern order.
  TraceRecorder late_first;
  const uint32_t late = late_first.Intern("late");
  late_first.AddTrackSpan("early", "run", 0.0, 1.0);
  late_first.AddTrackSpan(late, late_first.Intern("run"), 0.0, 1.0);
  const std::string json = late_first.ToChromeTraceJson();
  EXPECT_NE(json.find(R"({"ph":"M","pid":2,"tid":0,"name":"thread_name",)"
                      R"("args":{"name":"early"}})"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find(R"({"ph":"M","pid":2,"tid":1,"name":"thread_name",)"
                      R"("args":{"name":"late"}})"),
            std::string::npos)
      << json;
}

TEST(TraceTest, ChromeExportIsValidJson) {
  TraceRecorder trace;
  trace.StartBatch(1, 0.0);
  trace.MarkAppend(1, 0.25);
  trace.MarkAppend(1, 0.75);
  trace.AddTrackSpan("pool", "serve", 0.1, 0.2);
  auto parsed = crayfish::JsonValue::Parse(trace.ToChromeTraceJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::string json = trace.ToChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("broker-append"), std::string::npos);
  const std::string csv = trace.ToStageCsv();
  EXPECT_EQ(csv.rfind("batch_id,stage,start_s,end_s,duration_ms", 0), 0u);
  EXPECT_NE(csv.find("output-append"), std::string::npos);
}

TEST(TraceTest, WriteToUnwritablePathFails) {
  TraceRecorder trace;
  EXPECT_FALSE(trace.WriteChromeTrace("/nonexistent-dir/t.json").ok());
  EXPECT_FALSE(trace.WriteStageCsv("/nonexistent-dir/t.csv").ok());
}

TEST(TraceTest, ControlCharactersInSloNamesEscapeToValidJson) {
  // SLO names come from user JSON and reach the trace through
  // SloMonitor::AnnotateTrace; a raw tab there would make the Chrome trace
  // invalid JSON under RFC 8259.
  TimelineSampler tl(1.0);
  tl.ObserveLatency(0.5, 0.5);
  tl.Finalize(1.0);
  auto config = SloConfig::FromJsonText(
      R"({"slos": [{"name": "p99\tlatency\u0001", "metric": "p99_latency_s",
                    "max": 0.1}]})");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  const SloReport report = SloMonitor::Evaluate(*config, tl);
  ASSERT_EQ(report.objectives.at(0).breaches.size(), 1u);
  TraceRecorder trace;
  SloMonitor::AnnotateTrace(report, &trace);
  const std::string json = trace.ToChromeTraceJson();
  EXPECT_NE(json.find(R"({"ph":"X","pid":2,"tid":0,)"
                      R"("name":"p99\u0009latency\u0001 breach",)"
                      R"("ts":0.000,"dur":1000000.000})"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find(R"("name":"p99\u0009latency\u0001 recover")"),
            std::string::npos);
  // The only raw control bytes left are the newlines between events.
  for (char c : json) {
    if (static_cast<unsigned char>(c) < 0x20) {
      EXPECT_EQ(c, '\n');
    }
  }
  auto parsed = crayfish::JsonValue::Parse(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const crayfish::JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  int named = 0;
  for (const crayfish::JsonValue& ev : events->as_array()) {
    const crayfish::JsonValue* name = ev.Find("name");
    if (name != nullptr && name->as_string() == "p99\tlatency\x01 breach") {
      ++named;
    }
  }
  EXPECT_EQ(named, 2);  // the breach span and its instant
}

// ----------------------------------------------------------------- format --

std::string Printf(const char* fmt, double v) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

std::string Printf(const char* fmt, int precision, double v) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), fmt, precision, v);
  return buf;
}

TEST(FormatTest, DoublesMatchPrintfByteForByte) {
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.5, 0.0625, 0.1875, 2.5, 0.0005, 0.0015,
      1e-5, 1.0 / 3.0, 2.0 / 3.0, 123456789012.0, 1e15, 1e21, 1e-300,
      -2.5e-300, 5e-324, 1.7976931348623157e308,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  // Random bit patterns and random magnitudes over the exports' range.
  crayfish::Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    uint64_t bits = rng.NextUint64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    values.push_back(v);
    values.push_back(rng.Uniform(-1.0, 1.0) *
                     std::pow(10.0, rng.Uniform(-12.0, 12.0)));
  }
  for (double v : values) {
    for (int precision : {0, 3, 6, 9}) {
      std::string fixed;
      AppendFixed(&fixed, v, precision);
      EXPECT_EQ(fixed, Printf("%.*f", precision, v)) << precision;
    }
    std::string g9;
    AppendG9(&g9, v);
    EXPECT_EQ(g9, Printf("%.9g", v));
  }
}

TEST(FormatTest, UintsAndEscapes) {
  std::string out;
  AppendUint(&out, 0);
  out += ' ';
  AppendUint(&out, 18446744073709551615ULL);
  EXPECT_EQ(out, "0 18446744073709551615");
  out.clear();
  AppendJsonEscaped(&out, "a\"b\\c\nd\te\x1f\x7f");
  EXPECT_EQ(out, "a\\\"b\\\\c\\nd\\u0009e\\u001f\x7f");
  out.clear();
  AppendCsvQuoted(&out, "x\"y,z");
  EXPECT_EQ(out, "\"x\"\"y,z\"");
}

// -------------------------------------------------------------- breakdown --

TEST(BreakdownTest, StageMeansSumToEndToEndMean) {
  TraceRecorder trace;
  std::vector<core::Measurement> ms;
  for (uint64_t id = 0; id < 8; ++id) {
    const double start = static_cast<double>(id);
    trace.StartBatch(id, start);
    trace.MarkProduce(id, start + 0.001);
    trace.MarkAppend(id, start + 0.003);
    trace.Mark(id, Stage::kScore, start + 0.010);
    trace.MarkProduce(id, start + 0.011);
    trace.MarkAppend(id, start + 0.012);
    core::Measurement m;
    m.batch_id = id;
    m.create_time = start;
    m.append_time = start + 0.012;
    ms.push_back(m);
  }
  core::LatencyBreakdown bd =
      core::BreakdownAnalyzer::Compute(trace, ms, 0.0);
  EXPECT_EQ(bd.batches, 8u);
  EXPECT_NEAR(bd.total_mean_ms, 12.0, 1e-9);
  double stage_sum = 0.0, share_sum = 0.0;
  for (const auto& row : bd.stages) {
    stage_sum += row.mean_ms;
    share_sum += row.share;
    EXPECT_EQ(row.count, 8u);
  }
  EXPECT_NEAR(stage_sum, bd.total_mean_ms, 1e-9);
  EXPECT_NEAR(share_sum, 1.0, 1e-9);
  auto parsed = crayfish::JsonValue::Parse(bd.ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_NE(bd.ToString().find("score"), std::string::npos);
}

TEST(BreakdownTest, EmptyTraceYieldsEmptyBreakdown) {
  TraceRecorder trace;
  core::LatencyBreakdown bd =
      core::BreakdownAnalyzer::Compute(trace, {}, 0.25);
  EXPECT_TRUE(bd.empty());
  EXPECT_EQ(bd.stages.size(), 0u);
}

// ----------------------------------------------- end-to-end / determinism --

core::ExperimentConfig SmallTracedConfig() {
  core::ExperimentConfig cfg;
  cfg.engine = "flink";
  cfg.serving = "onnx";
  cfg.model = "ffnn";
  cfg.batch_size = 2;
  cfg.input_rate = 200.0;
  cfg.parallelism = 2;
  cfg.duration_s = 5.0;
  cfg.drain_s = 3.0;
  cfg.enable_tracing = true;
  return cfg;
}

TEST(ObservabilityE2ETest, TraceExportsAreByteIdenticalAcrossRuns) {
  auto r1 = core::RunExperiment(SmallTracedConfig());
  auto r2 = core::RunExperiment(SmallTracedConfig());
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  ASSERT_NE(r1->trace, nullptr);
  ASSERT_NE(r2->trace, nullptr);
  EXPECT_GT(r1->trace->completed_batches(), 0u);
  EXPECT_EQ(r1->trace->ToChromeTraceJson(), r2->trace->ToChromeTraceJson());
  EXPECT_EQ(r1->trace->ToStageCsv(), r2->trace->ToStageCsv());
  ASSERT_NE(r1->metrics, nullptr);
  EXPECT_EQ(r1->metrics->SnapshotJson(), r2->metrics->SnapshotJson());
}

TEST(ObservabilityE2ETest, TracingDoesNotPerturbTheRun) {
  core::ExperimentConfig traced = SmallTracedConfig();
  core::ExperimentConfig untraced = SmallTracedConfig();
  untraced.enable_tracing = false;
  auto with = core::RunExperiment(traced);
  auto without = core::RunExperiment(untraced);
  ASSERT_TRUE(with.ok()) << with.status().ToString();
  ASSERT_TRUE(without.ok()) << without.status().ToString();
  EXPECT_EQ(without->trace, nullptr);
  EXPECT_EQ(without->metrics, nullptr);
  // Identical simulated history: same event count, same summary, bit for
  // bit — recording must stay passive.
  EXPECT_EQ(with->sim_events_executed, without->sim_events_executed);
  EXPECT_EQ(with->events_scored, without->events_scored);
  EXPECT_EQ(with->summary.ToJson(), without->summary.ToJson());
}

TEST(ObservabilityE2ETest, BreakdownSumsToSummaryLatency) {
  auto result = core::RunExperiment(SmallTracedConfig());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const core::LatencyBreakdown& bd = result->breakdown;
  ASSERT_FALSE(bd.empty());
  double stage_sum = 0.0;
  for (const auto& row : bd.stages) stage_sum += row.mean_ms;
  EXPECT_NEAR(stage_sum, bd.total_mean_ms, 1e-6);
  // The decomposition analyzes the same post-warmup window as the
  // summary, so its total matches the summary's latency mean.
  EXPECT_EQ(bd.batches, result->summary.measurements);
  EXPECT_NEAR(bd.total_mean_ms, result->summary.latency_mean_ms, 1e-6);
  // The registry saw broker and serving activity.
  const std::string metrics_json = result->metrics->SnapshotJson();
  EXPECT_NE(metrics_json.find("broker_bytes_in"), std::string::npos);
  EXPECT_NE(metrics_json.find("library_simulated_applies"),
            std::string::npos);
}


// --------------------------------------------------------- pinned exports --
//
// Byte-exact pins of every text export. The expected strings, hashes and
// lengths below were produced by the exporters as they stood before the
// single-pass writer replaced snprintf and std::ostringstream, so these
// cases prove the rewrite changed no byte.

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// A hand-built recorder covering every mark path, a clamped mark, a clamped
// track span, names that need escaping, an instant-only track and
// timestamps on %.3f / %.9f rounding edges.
void FillPinnedTrace(TraceRecorder* t) {
  t->StartBatch(3, 0.0000015);
  t->MarkProduce(3, 0.0012345675);  // kProduce
  t->MarkAppend(3, 0.0012345675);   // kBrokerAppend, zero duration
  t->Mark(3, Stage::kFetchPoll, 0.0100000005);
  t->Mark(3, Stage::kDeserialize, 0.0100000015);
  t->Mark(3, Stage::kQueueWait, 0.0100000025);
  t->Mark(3, Stage::kScore, 0.02);
  t->Mark(3, Stage::kServeRpc, 0.0625);
  t->Mark(3, Stage::kSerialize, 0.0624);  // earlier: clamps to 0.0625
  t->Mark(3, Stage::kBufferFlushWait, 0.1875);
  t->MarkProduce(3, 0.3);            // after an append: kSinkProduce
  t->MarkAppend(3, 1234.5678905);    // kOutputAppend completes the batch
  t->Mark(3, Stage::kFetchPoll, 2000.0);  // ignored: batch complete
  t->StartBatch(12345678901ULL, -0.0000000004);  // in flight
  t->Mark(12345678901ULL, Stage::kProduce, 0.00000000049999);
  t->Mark(12345678901ULL, Stage::kBrokerAppend, 0.0000000025);
  t->StartBatch(7, 5.0);  // started, never marked
  t->Mark(99, Stage::kScore, 1.0);  // never started: dropped
  t->AddTrackSpan("pool/tf-serving", "queue-wait", 0.001, 0.0015);
  t->AddTrackSpan("pool/tf-serving", "serve", 0.0015, 0.0010005);  // clamps
  t->AddTrackSpan("executor \"a\\b\"", "run\nline", 1e-7, 2.5e-7);
  t->AddTrackSpan("pool/tf-serving", "serve", 3.0000000005, 3.0000000015);
  t->AddInstant("slo", "p99 breach", 1.0000005);  // instant-only track
  t->AddInstant("pool/tf-serving", "scale-out", 2.0);
}

TEST(PinnedExportTest, ChromeTraceBytes) {
  TraceRecorder trace;
  FillPinnedTrace(&trace);
  EXPECT_EQ(trace.ToChromeTraceJson(), R"json({"traceEvents":[
{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"produce"}},
{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"broker-append"}},
{"ph":"M","pid":1,"tid":2,"name":"thread_name","args":{"name":"fetch-poll"}},
{"ph":"M","pid":1,"tid":3,"name":"thread_name","args":{"name":"deserialize"}},
{"ph":"M","pid":1,"tid":4,"name":"thread_name","args":{"name":"queue-wait"}},
{"ph":"M","pid":1,"tid":5,"name":"thread_name","args":{"name":"score"}},
{"ph":"M","pid":1,"tid":6,"name":"thread_name","args":{"name":"serve-rpc"}},
{"ph":"M","pid":1,"tid":7,"name":"thread_name","args":{"name":"serialize"}},
{"ph":"M","pid":1,"tid":8,"name":"thread_name","args":{"name":"buffer-flush-wait"}},
{"ph":"M","pid":1,"tid":9,"name":"thread_name","args":{"name":"sink-produce"}},
{"ph":"M","pid":1,"tid":10,"name":"thread_name","args":{"name":"output-append"}},
{"ph":"M","pid":1,"name":"process_name","args":{"name":"pipeline stages"}},
{"ph":"X","pid":1,"tid":0,"name":"produce","ts":1.500,"dur":1233.067,"args":{"batch_id":3}},
{"ph":"X","pid":1,"tid":1,"name":"broker-append","ts":1234.567,"dur":0.000,"args":{"batch_id":3}},
{"ph":"X","pid":1,"tid":2,"name":"fetch-poll","ts":1234.567,"dur":8765.433,"args":{"batch_id":3}},
{"ph":"X","pid":1,"tid":3,"name":"deserialize","ts":10000.001,"dur":0.001,"args":{"batch_id":3}},
{"ph":"X","pid":1,"tid":4,"name":"queue-wait","ts":10000.002,"dur":0.001,"args":{"batch_id":3}},
{"ph":"X","pid":1,"tid":5,"name":"score","ts":10000.003,"dur":9999.997,"args":{"batch_id":3}},
{"ph":"X","pid":1,"tid":6,"name":"serve-rpc","ts":20000.000,"dur":42500.000,"args":{"batch_id":3}},
{"ph":"X","pid":1,"tid":7,"name":"serialize","ts":62500.000,"dur":0.000,"args":{"batch_id":3}},
{"ph":"X","pid":1,"tid":8,"name":"buffer-flush-wait","ts":62500.000,"dur":125000.000,"args":{"batch_id":3}},
{"ph":"X","pid":1,"tid":9,"name":"sink-produce","ts":187500.000,"dur":112500.000,"args":{"batch_id":3}},
{"ph":"X","pid":1,"tid":10,"name":"output-append","ts":300000.000,"dur":1234267890.500,"args":{"batch_id":3}},
{"ph":"X","pid":1,"tid":0,"name":"produce","ts":-0.000,"dur":0.001,"args":{"batch_id":12345678901}},
{"ph":"X","pid":1,"tid":1,"name":"broker-append","ts":0.000,"dur":0.002,"args":{"batch_id":12345678901}},
{"ph":"M","pid":2,"name":"process_name","args":{"name":"resources"}},
{"ph":"M","pid":2,"tid":0,"name":"thread_name","args":{"name":"pool/tf-serving"}},
{"ph":"M","pid":2,"tid":1,"name":"thread_name","args":{"name":"executor \"a\\b\""}},
{"ph":"M","pid":2,"tid":2,"name":"thread_name","args":{"name":"slo"}},
{"ph":"X","pid":2,"tid":0,"name":"queue-wait","ts":1000.000,"dur":500.000},
{"ph":"X","pid":2,"tid":0,"name":"serve","ts":1500.000,"dur":0.000},
{"ph":"X","pid":2,"tid":1,"name":"run\nline","ts":0.100,"dur":0.150},
{"ph":"X","pid":2,"tid":0,"name":"serve","ts":3000000.001,"dur":0.001},
{"ph":"i","pid":2,"tid":2,"name":"p99 breach","ts":1000000.500,"s":"t"},
{"ph":"i","pid":2,"tid":0,"name":"scale-out","ts":2000000.000,"s":"t"}
],"displayTimeUnit":"ms"}
)json");
}

TEST(PinnedExportTest, StageCsvBytes) {
  TraceRecorder trace;
  FillPinnedTrace(&trace);
  EXPECT_EQ(trace.ToStageCsv(), R"csv(batch_id,stage,start_s,end_s,duration_ms
3,produce,0.000001500,0.001234567,1.233067
3,broker-append,0.001234567,0.001234567,0.000000
3,fetch-poll,0.001234567,0.010000000,8.765433
3,deserialize,0.010000000,0.010000001,0.000001
3,queue-wait,0.010000001,0.010000003,0.000001
3,score,0.010000003,0.020000000,9.999997
3,serve-rpc,0.020000000,0.062500000,42.500000
3,serialize,0.062500000,0.062500000,0.000000
3,buffer-flush-wait,0.062500000,0.187500000,125.000000
3,sink-produce,0.187500000,0.300000000,112.500000
3,output-append,0.300000000,1234.567890500,1234267.890500
12345678901,produce,-0.000000000,0.000000000,0.000001
12345678901,broker-append,0.000000000,0.000000003,0.000002
)csv");
}

TEST(PinnedExportTest, EmptyTraceBytes) {
  TraceRecorder trace;
  EXPECT_EQ(trace.ToChromeTraceJson(), R"json({"traceEvents":[
{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"produce"}},
{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"broker-append"}},
{"ph":"M","pid":1,"tid":2,"name":"thread_name","args":{"name":"fetch-poll"}},
{"ph":"M","pid":1,"tid":3,"name":"thread_name","args":{"name":"deserialize"}},
{"ph":"M","pid":1,"tid":4,"name":"thread_name","args":{"name":"queue-wait"}},
{"ph":"M","pid":1,"tid":5,"name":"thread_name","args":{"name":"score"}},
{"ph":"M","pid":1,"tid":6,"name":"thread_name","args":{"name":"serve-rpc"}},
{"ph":"M","pid":1,"tid":7,"name":"thread_name","args":{"name":"serialize"}},
{"ph":"M","pid":1,"tid":8,"name":"thread_name","args":{"name":"buffer-flush-wait"}},
{"ph":"M","pid":1,"tid":9,"name":"thread_name","args":{"name":"sink-produce"}},
{"ph":"M","pid":1,"tid":10,"name":"thread_name","args":{"name":"output-append"}},
{"ph":"M","pid":1,"name":"process_name","args":{"name":"pipeline stages"}}
],"displayTimeUnit":"ms"}
)json");
  EXPECT_EQ(trace.ToStageCsv(), "batch_id,stage,start_s,end_s,duration_ms\n");
}

void FillPinnedTimeline(TimelineSampler* tl) {
  double queue = 0.0;
  double busy = 0.0;
  tl->AddProbe("queue_depth", ProbeKind::kGauge, [&queue]() { return queue; });
  tl->AddProbe("busy_s", ProbeKind::kCumulative, [&busy]() { return busy; });
  tl->ObserveLatency(0.1, 1.0 / 3.0);
  tl->ObserveLatency(0.2, 0.0000123456789, 4);
  tl->Count("fetch,retries", 0.3, 2.0);
  tl->Annotate(0.3, "crash \"b0\"");
  tl->BeginFault("broker-0", 0.4);
  queue = 123456789012.0;
  busy = 0.25;
  tl->AdvanceTo(0.5);
  tl->Count("fetch,retries", 0.6);
  tl->EndFault("broker-0", 0.7);
  tl->Annotate(0.7, "repair");
  queue = 1e-5;
  busy = 0.5;
  tl->AdvanceTo(1.0);
  queue = 0.1 + 0.2;
  busy = 2.0 / 3.0;
  tl->Finalize(1.3);
}

TEST(PinnedExportTest, TimelineCsvBytes) {
  TimelineSampler tl(0.5);
  FillPinnedTimeline(&tl);
  EXPECT_EQ(tl.ToCsv(), R"csv(window,start_s,end_s,completions,throughput_eps,latency_mean_s,latency_p50_s,latency_p95_s,latency_p99_s,latency_max_s,busy_s,"fetch,retries",queue_depth,active_faults,events
0,0,0.5,5,10,0.16667284,1.22982623e-05,0.330773912,0.330773912,0.333333333,0.25,2,1.23456789e+11,broker-0,"crash ""b0"""
1,0.5,1,0,0,,,,,,0.25,1,1e-05,broker-0,repair
2,1,1.3,0,0,,,,,,0.166666667,,0.3,,
)csv");
}

TEST(PinnedExportTest, RegistryCsvBytes) {
  MetricsRegistry reg;
  reg.Counter("events", {{"engine", "flink"}, {"a", "x\"y"}})->Increment(3.0);
  reg.Counter("bytes")->Increment(123456789012.0);
  reg.Gauge("tiny")->Set(1e-5);
  reg.Gauge("third")->Set(1.0 / 3.0);
  reg.Gauge("neg")->Set(-2.5e-300);
  reg.Gauge("inf")->Set(std::numeric_limits<double>::infinity());
  reg.Gauge("nan")->Set(std::numeric_limits<double>::quiet_NaN());
  reg.Histogram("empty");
  HistogramMetric* h = reg.Histogram("lat", {{"stage", "score"}});
  for (int i = 1; i <= 10; ++i) h->Observe(i * 0.0123);
  EXPECT_EQ(reg.ToCsv(), R"csv(key,kind,count,value_or_mean,min,max,p50,p95,p99
"bytes",counter,,1.23456789e+11,,,,,
"events{a=x""y,engine=flink}",counter,,3,,,,,
"inf",gauge,,inf,,,,,
"nan",gauge,,nan,,,,,
"neg",gauge,,-2.5e-300,,,,,
"third",gauge,,0.333333333,,,,,
"tiny",gauge,,1e-05,,,,,
"empty",histogram,0,0,0,0,0,0,0
"lat{stage=score}",histogram,10,0.06765,0.0123,0.123,0.0620824361,0.125214969,0.125214969
)csv");
}

TEST(PinnedExportTest, SloSummaryBytes) {
  TimelineSampler tl(0.5);
  FillPinnedTimeline(&tl);
  auto config = SloConfig::FromJsonText(R"({"slos": [
      {"name": "p99", "metric": "p99_latency_s", "max": 0.1,
       "error_budget": 0.05},
      {"name": "goodput", "metric": "throughput_eps", "min": 2.5e-7,
       "max": 1234567890123, "error_budget": 0.3},
      {"name": "depth", "metric": "queue_depth", "max": 5000}]})");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  const SloReport report = SloMonitor::Evaluate(*config, tl);
  EXPECT_EQ(report.Summary(), R"txt(  [FAIL] p99: p99_latency_s <= 0.1 — 1/1 windows breached, worst 0.330773912, budget burn 20
  [FAIL] goodput: throughput_eps <= 1.23456789e+12 >= 2.5e-07 — 2/3 windows breached, worst 0, budget burn 2.22222222
  [FAIL] depth: queue_depth <= 5000 — 1/3 windows breached, worst 1.23456789e+11
  overall: FAIL
)txt");
}

// A short traced flink / tf-serving run with a timeline and the default
// SLOs: the hash and length of each export it writes.
TEST(PinnedExportTest, TracedRunExportHashes) {
  core::ExperimentConfig cfg;
  cfg.engine = "flink";
  cfg.serving = "tf-serving";
  cfg.model = "ffnn";
  cfg.batch_size = 4;
  cfg.input_rate = 400.0;
  cfg.parallelism = 2;
  cfg.duration_s = 3.0;
  cfg.drain_s = 1.0;
  cfg.enable_tracing = true;
  cfg.timeline_interval_s = 0.5;
  auto slo = SloConfig::FromJsonText(R"({"slos": [
      {"name": "p99-latency", "metric": "p99_latency_s", "max": 0.1,
       "error_budget": 0.05},
      {"name": "goodput", "metric": "throughput_eps", "min": 500.0,
       "error_budget": 0.2},
      {"name": "bounded-lag", "metric": "consumer_lag", "max": 5000,
       "error_budget": 0.2}]})");
  ASSERT_TRUE(slo.ok()) << slo.status().ToString();
  cfg.slo = *slo;
  auto r = core::RunExperiment(cfg);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r->trace, nullptr);
  ASSERT_NE(r->metrics, nullptr);
  ASSERT_NE(r->timeline, nullptr);
  ASSERT_TRUE(r->has_slo_report);
  const std::string trace_json = r->trace->ToChromeTraceJson();
  const std::string stage_csv = r->trace->ToStageCsv();
  const std::string timeline_csv = r->timeline->ToCsv();
  const std::string metrics_csv = r->metrics->ToCsv();
  const std::string slo_summary = r->slo_report.Summary();
  EXPECT_EQ(trace_json.size(), 1535251u);
  EXPECT_EQ(Fnv1a(trace_json), 0xc2df010d6ea46108ULL);
  EXPECT_EQ(stage_csv.size(), 643524u);
  EXPECT_EQ(Fnv1a(stage_csv), 0x9d41eab509ca4cbbULL);
  EXPECT_EQ(timeline_csv.size(), 1002u);
  EXPECT_EQ(Fnv1a(timeline_csv), 0x99e2625e7e074cf0ULL);
  EXPECT_EQ(metrics_csv.size(), 3335u);
  EXPECT_EQ(Fnv1a(metrics_csv), 0x06126edb4b9e3367ULL);
  EXPECT_EQ(slo_summary.size(), 313u);
  EXPECT_EQ(Fnv1a(slo_summary), 0xec46b3b1defa0ce4ULL);
}

}  // namespace
}  // namespace crayfish::obs
