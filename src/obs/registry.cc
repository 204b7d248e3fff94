#include "obs/registry.h"

#include <algorithm>
#include <fstream>

#include "obs/format.h"

namespace crayfish::obs {

void CounterMetric::Increment(double delta) { value_ += delta; }

void GaugeMetric::Set(double v) { value_ = v; }

void HistogramMetric::Observe(double v) {
  stats_.Add(v);
  histogram_.Add(v);
}

std::string MetricsRegistry::Key(const std::string& name,
                                 const MetricLabels& labels) {
  if (labels.empty()) return name;
  MetricLabels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key = name + "{";
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) key += ",";
    key += sorted[i].first + "=" + sorted[i].second;
  }
  key += "}";
  return key;
}

CounterMetric* MetricsRegistry::Counter(const std::string& name,
                                        const MetricLabels& labels) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[Key(name, labels)];
  if (!slot) slot = std::make_unique<CounterMetric>();
  return slot.get();
}

GaugeMetric* MetricsRegistry::Gauge(const std::string& name,
                                    const MetricLabels& labels) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[Key(name, labels)];
  if (!slot) slot = std::make_unique<GaugeMetric>();
  return slot.get();
}

HistogramMetric* MetricsRegistry::Histogram(const std::string& name,
                                            const MetricLabels& labels) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[Key(name, labels)];
  if (!slot) slot = std::make_unique<HistogramMetric>();
  return slot.get();
}

crayfish::JsonValue MetricsRegistry::Snapshot() const {
  JsonValue obj = JsonValue::MakeObject();
  for (const auto& [key, counter] : counters_) {
    obj[key] = counter->value();
  }
  for (const auto& [key, gauge] : gauges_) {
    obj[key] = gauge->value();
  }
  for (const auto& [key, hist] : histograms_) {
    JsonValue h = JsonValue::MakeObject();
    h["count"] = static_cast<int64_t>(hist->count());
    h["mean"] = hist->mean();
    h["min"] = hist->min();
    h["max"] = hist->max();
    h["p50"] = hist->Percentile(50.0);
    h["p95"] = hist->Percentile(95.0);
    h["p99"] = hist->Percentile(99.0);
    obj[key] = std::move(h);
  }
  return obj;
}

std::string MetricsRegistry::SnapshotJson() const {
  return Snapshot().DumpPretty();
}

std::string MetricsRegistry::ToCsv() const {
  // Labeled identities contain commas ("m{a=1,b=2}"), so the key cell is
  // always quoted (RFC 4180).
  std::string out = "key,kind,count,value_or_mean,min,max,p50,p95,p99\n";
  for (const auto& [key, counter] : counters_) {
    AppendCsvQuoted(&out, key);
    out += ",counter,,";
    AppendG9(&out, counter->value());
    out += ",,,,,\n";
  }
  for (const auto& [key, gauge] : gauges_) {
    AppendCsvQuoted(&out, key);
    out += ",gauge,,";
    AppendG9(&out, gauge->value());
    out += ",,,,,\n";
  }
  for (const auto& [key, hist] : histograms_) {
    AppendCsvQuoted(&out, key);
    out += ",histogram,";
    AppendUint(&out, hist->count());
    for (double v : {hist->mean(), hist->min(), hist->max(),
                     hist->Percentile(50.0), hist->Percentile(95.0),
                     hist->Percentile(99.0)}) {
      out.push_back(',');
      AppendG9(&out, v);
    }
    out.push_back('\n');
  }
  return out;
}

crayfish::Status MetricsRegistry::WriteCsv(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return crayfish::Status::IoError("cannot open: " + path);
  out << ToCsv();
  if (!out) return crayfish::Status::IoError("short write: " + path);
  return crayfish::Status::Ok();
}

}  // namespace crayfish::obs
