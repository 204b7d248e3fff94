#include "core/breakdown.h"

#include <algorithm>
#include <array>

#include "common/json.h"
#include "common/stats.h"
#include "core/report.h"

namespace crayfish::core {

LatencyBreakdown BreakdownAnalyzer::Compute(const obs::TraceRecorder& trace,
                                            const std::vector<Measurement>& ms,
                                            double warmup_fraction) {
  LatencyBreakdown out;
  if (ms.empty()) return out;

  // Identical window selection to MetricsAnalyzer::Summarize, so the
  // decomposition total matches the summary's latency mean.
  std::vector<Measurement> sorted = ms;
  std::sort(sorted.begin(), sorted.end(),
            [](const Measurement& a, const Measurement& b) {
              return a.append_time < b.append_time;
            });
  const size_t drop = static_cast<size_t>(
      warmup_fraction * static_cast<double>(sorted.size()));
  if (drop >= sorted.size()) return out;

  std::array<double, obs::kNumStages> sums{};
  std::array<crayfish::SampleSet, obs::kNumStages> samples;
  double total_sum_ms = 0.0;
  uint64_t batches = 0;

  for (size_t i = drop; i < sorted.size(); ++i) {
    const obs::TraceRecorder::BatchTrace* bt =
        trace.FindBatch(sorted[i].batch_id);
    if (bt == nullptr || !bt->complete) continue;

    // A stage can be marked more than once per batch (e.g. queue waits at
    // successive operators); aggregate its intervals before sampling.
    std::array<double, obs::kNumStages> per_batch{};
    std::array<bool, obs::kNumStages> marked{};
    double prev = bt->start_s;
    trace.ForEachMark(*bt, [&](const obs::TraceRecorder::StageMark& mark) {
      per_batch[static_cast<int>(mark.stage)] += mark.time_s - prev;
      marked[static_cast<int>(mark.stage)] = true;
      prev = mark.time_s;
    });
    for (int s = 0; s < obs::kNumStages; ++s) {
      sums[s] += per_batch[s] * 1000.0;
      // Zero-duration marks still count: "queue-wait: 0 ms over 3k
      // batches" is a finding, not noise.
      if (marked[s]) samples[s].Add(per_batch[s] * 1000.0);
    }
    total_sum_ms += (prev - bt->start_s) * 1000.0;
    ++batches;
  }
  if (batches == 0) return out;

  out.batches = batches;
  out.total_mean_ms = total_sum_ms / static_cast<double>(batches);
  for (obs::Stage stage : obs::AllStages()) {
    const int s = static_cast<int>(stage);
    if (samples[s].count() == 0) continue;
    StageBreakdownRow row;
    row.stage = stage;
    row.count = samples[s].count();
    row.mean_ms = sums[s] / static_cast<double>(batches);
    row.p95_ms = samples[s].Percentile(95.0);
    row.share =
        out.total_mean_ms > 0.0 ? row.mean_ms / out.total_mean_ms : 0.0;
    out.stages.push_back(row);
  }
  return out;
}

std::string LatencyBreakdown::ToString() const {
  ReportTable table("latency breakdown (" + std::to_string(batches) +
                        " batches, mean " + ReportTable::Num(total_mean_ms, 3) +
                        " ms end-to-end)",
                    {"stage", "count", "mean_ms", "p95_ms", "share_%"});
  for (const StageBreakdownRow& row : stages) {
    table.AddRow({obs::StageName(row.stage), std::to_string(row.count),
                  ReportTable::Num(row.mean_ms, 4),
                  ReportTable::Num(row.p95_ms, 4),
                  ReportTable::Num(row.share * 100.0, 1)});
  }
  return table.ToString();
}

std::string LatencyBreakdown::ToJson() const {
  JsonValue obj = JsonValue::MakeObject();
  obj["batches"] = static_cast<int64_t>(batches);
  obj["total_mean_ms"] = total_mean_ms;
  JsonValue rows = JsonValue::MakeArray();
  for (const StageBreakdownRow& row : stages) {
    JsonValue r = JsonValue::MakeObject();
    r["stage"] = std::string(obs::StageName(row.stage));
    r["count"] = static_cast<int64_t>(row.count);
    r["mean_ms"] = row.mean_ms;
    r["p95_ms"] = row.p95_ms;
    r["share"] = row.share;
    rows.Append(std::move(r));
  }
  obj["stages"] = std::move(rows);
  return obj.Dump();
}

}  // namespace crayfish::core
