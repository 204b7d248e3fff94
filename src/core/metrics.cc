#include "core/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json.h"

#include "common/logging.h"

namespace crayfish::core {

std::string MetricsSummary::ToString() const {
  std::ostringstream os;
  os << "n=" << measurements << " thr=" << throughput_eps
     << " ev/s, latency ms: mean=" << latency_mean_ms
     << " sd=" << latency_stddev_ms << " p50=" << latency_p50_ms
     << " p95=" << latency_p95_ms << " p99=" << latency_p99_ms;
  return os.str();
}

MetricsSummary MetricsAnalyzer::Summarize(const std::vector<Measurement>& ms,
                                          double warmup_fraction) {
  MetricsSummary out;
  if (ms.empty()) return out;
  // Measurements are observed in poll order; sort by append time so the
  // warmup cut is temporal.
  std::vector<Measurement> sorted = ms;
  std::sort(sorted.begin(), sorted.end(),
            [](const Measurement& a, const Measurement& b) {
              return a.append_time < b.append_time;
            });
  const size_t drop = static_cast<size_t>(
      warmup_fraction * static_cast<double>(sorted.size()));
  if (drop >= sorted.size()) return out;

  crayfish::SampleSet latencies;
  latencies.Reserve(sorted.size() - drop);
  for (size_t i = drop; i < sorted.size(); ++i) {
    latencies.Add(sorted[i].latency_s() * 1000.0);
  }
  out.measurements = latencies.count();
  out.latency_mean_ms = latencies.mean();
  out.latency_stddev_ms = latencies.stddev();
  out.latency_p50_ms = latencies.Percentile(50.0);
  out.latency_p95_ms = latencies.Percentile(95.0);
  out.latency_p99_ms = latencies.Percentile(99.0);
  out.latency_min_ms = latencies.min();
  out.latency_max_ms = latencies.max();

  const double span =
      sorted.back().append_time - sorted[drop].append_time;
  out.window_s = span;
  if (span > 0.0) {
    out.throughput_eps =
        static_cast<double>(sorted.size() - drop - 1) / span;
  }
  return out;
}

std::string MetricsSummary::ToJson() const {
  JsonValue obj = JsonValue::MakeObject();
  obj["measurements"] = static_cast<int64_t>(measurements);
  obj["throughput_eps"] = throughput_eps;
  obj["latency_mean_ms"] = latency_mean_ms;
  obj["latency_stddev_ms"] = latency_stddev_ms;
  obj["latency_p50_ms"] = latency_p50_ms;
  obj["latency_p95_ms"] = latency_p95_ms;
  obj["latency_p99_ms"] = latency_p99_ms;
  obj["latency_min_ms"] = latency_min_ms;
  obj["latency_max_ms"] = latency_max_ms;
  obj["window_s"] = window_s;
  return obj.Dump();
}

crayfish::Status MetricsAnalyzer::WriteMeasurementsCsv(
    const std::string& path, const std::vector<Measurement>& ms) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return crayfish::Status::IoError("cannot open: " + path);
  out << "batch_id,create_time_s,append_time_s,latency_ms,batch_size\n";
  char line[160];
  for (const Measurement& m : ms) {
    std::snprintf(line, sizeof(line), "%llu,%.6f,%.6f,%.3f,%u\n",
                  static_cast<unsigned long long>(m.batch_id),
                  m.create_time, m.append_time, m.latency_s() * 1000.0,
                  m.batch_size);
    out << line;
  }
  if (!out) return crayfish::Status::IoError("short write: " + path);
  return crayfish::Status::Ok();
}

std::vector<BurstRecovery> MetricsAnalyzer::BurstRecoveryTimes(
    const std::vector<Measurement>& ms, const RateSchedule& schedule,
    double run_end_s, double window_s, double threshold_factor,
    int stable_windows) {
  std::vector<BurstRecovery> out;
  if (!schedule.bursty || ms.empty()) return out;

  // Windowed mean latency over append time.
  const size_t windows =
      static_cast<size_t>(run_end_s / window_s) + 1;
  std::vector<double> sum(windows, 0.0);
  std::vector<uint64_t> count(windows, 0);
  for (const Measurement& m : ms) {
    const size_t w = static_cast<size_t>(m.append_time / window_s);
    if (w >= windows) continue;
    sum[w] += m.latency_s();
    ++count[w];
  }
  auto window_latency = [&](size_t w) -> double {
    return count[w] == 0 ? -1.0 : sum[w] / static_cast<double>(count[w]);
  };

  const double cycle =
      schedule.burst_duration_s + schedule.time_between_bursts_s;
  for (double start = schedule.first_burst_at_s;
       start + schedule.burst_duration_s < run_end_s; start += cycle) {
    BurstRecovery rec;
    rec.burst_start_s = start;
    rec.burst_end_s = start + schedule.burst_duration_s;

    // Baseline: mean latency over the 20 s preceding the burst.
    double base_sum = 0.0;
    int base_n = 0;
    for (double t = std::max(0.0, start - 20.0); t < start;
         t += window_s) {
      const double l = window_latency(static_cast<size_t>(t / window_s));
      if (l >= 0.0) {
        base_sum += l;
        ++base_n;
      }
    }
    if (base_n == 0) {
      out.push_back(rec);
      continue;
    }
    const double baseline = base_sum / base_n;
    const double threshold = baseline * threshold_factor;

    const size_t first_w =
        static_cast<size_t>(rec.burst_end_s / window_s);
    int stable = 0;
    for (size_t w = first_w; w < windows; ++w) {
      const double l = window_latency(w);
      // Empty windows during recovery mean the pipeline is still draining
      // backlog or fully idle; treat idle (no data at all) as stable.
      const bool ok = l < 0.0 ? true : l <= threshold;
      stable = ok ? stable + 1 : 0;
      if (stable >= stable_windows) {
        const double recovered_at =
            static_cast<double>(w + 1 - static_cast<size_t>(stable)) *
            window_s;
        rec.recovery_s =
            std::max(0.0, recovered_at - rec.burst_end_s);
        break;
      }
    }
    out.push_back(rec);
  }
  return out;
}

}  // namespace crayfish::core
