#include "obs/timeline.h"

#include <fstream>
#include <string_view>
#include <utility>

#include "common/json.h"
#include "common/logging.h"
#include "obs/format.h"

namespace crayfish::obs {

namespace {

// RFC 4180: quote a cell only when it contains a comma, quote, or newline.
void AppendCsvCell(std::string* out, std::string_view s) {
  if (s.find_first_of(",\"\n") == std::string_view::npos) {
    out->append(s);
  } else {
    AppendCsvQuoted(out, s);
  }
}

// Appends `items` joined by ';' as one CSV cell.
template <typename Container>
void AppendJoinedCell(std::string* out, const Container& items) {
  std::string joined;
  for (const std::string& item : items) {
    if (!joined.empty()) joined.push_back(';');
    joined += item;
  }
  AppendCsvCell(out, joined);
}

}  // namespace

TimelineSampler::TimelineSampler(double interval_s)
    : interval_s_(interval_s) {
  CRAYFISH_CHECK_GT(interval_s, 0.0);
}

void TimelineSampler::AddProbe(const std::string& name, ProbeKind kind,
                               std::function<double()> fn) {
  CRAYFISH_CHECK(!finalized_);
  for (const Probe& p : probes_) CRAYFISH_CHECK(p.name != name);
  probes_.push_back(Probe{name, kind, std::move(fn), 0.0});
}

void TimelineSampler::EnsureWindow(size_t idx) {
  while (windows_.size() <= idx) {
    TimelineWindow w;
    w.index = windows_.size();
    w.start_s = static_cast<double>(w.index) * interval_s_;
    w.end_s = w.start_s + interval_s_;
    // Faults already active when the window opens; Begin/EndFault maintain
    // this for transitions inside the window.
    w.active_faults = active_faults_;
    windows_.push_back(std::move(w));
  }
}

TimelineWindow& TimelineSampler::WindowAt(double t) {
  if (t < 0.0) t = 0.0;
  const size_t idx = static_cast<size_t>(t / interval_s_);
  EnsureWindow(idx);
  return windows_[idx];
}

void TimelineSampler::ObserveLatency(double t, double latency_s,
                                     uint64_t events) {
  if (finalized_) return;
  TimelineWindow& w = WindowAt(t);
  w.completions += events;
  w.latency.Add(latency_s);
  w.latency_hist.Add(latency_s);
}

void TimelineSampler::Count(const std::string& name, double t, double delta) {
  if (finalized_) return;
  WindowAt(t).counters[name] += delta;
}

void TimelineSampler::Annotate(double t, const std::string& label) {
  if (finalized_) return;
  WindowAt(t).annotations.push_back(label);
}

void TimelineSampler::BeginFault(const std::string& name, double t) {
  if (finalized_) return;
  active_faults_.insert(name);
  WindowAt(t).active_faults.insert(name);
}

void TimelineSampler::EndFault(const std::string& name, double t) {
  if (finalized_) return;
  active_faults_.erase(name);
  // The fault was still active in the window containing its repair time.
  WindowAt(t).active_faults.insert(name);
}

void TimelineSampler::SampleProbes(TimelineWindow* w) {
  for (Probe& p : probes_) {
    const double v = p.fn();
    if (p.kind == ProbeKind::kGauge) {
      w->gauges[p.name] = v;
    } else {
      w->counters[p.name] += v - p.last;
      p.last = v;
    }
  }
}

void TimelineSampler::AdvanceTo(double t) {
  if (finalized_) return;
  // Close every window whose boundary has passed. State changes scheduled
  // exactly at a boundary belong to the *next* window: the kernel calls
  // AdvanceTo before executing the boundary event.
  while (static_cast<double>(next_to_close_ + 1) * interval_s_ <= t) {
    EnsureWindow(next_to_close_);
    TimelineWindow& w = windows_[next_to_close_];
    SampleProbes(&w);
    w.closed = true;
    ++next_to_close_;
  }
}

void TimelineSampler::Finalize(double end_s) {
  if (finalized_) return;
  AdvanceTo(end_s);
  // Materialize the trailing partial window so the timeline covers the
  // full run span even when nothing fed it after the last boundary.
  if (end_s > static_cast<double>(next_to_close_) * interval_s_) {
    EnsureWindow(static_cast<size_t>(end_s / interval_s_));
  }
  // Trailing partial window (if the run did not end exactly on a
  // boundary): close it at the actual end time.
  if (next_to_close_ < windows_.size()) {
    for (size_t i = next_to_close_; i < windows_.size(); ++i) {
      TimelineWindow& w = windows_[i];
      if (end_s > w.start_s && end_s < w.end_s) w.end_s = end_s;
      SampleProbes(&w);
      w.closed = true;
    }
    next_to_close_ = windows_.size();
  }
  finalized_ = true;
}

crayfish::Histogram TimelineSampler::MergedLatencyHistogram() const {
  crayfish::Histogram merged(1e-6, 1e6, 512);
  for (const TimelineWindow& w : windows_) merged.Merge(w.latency_hist);
  return merged;
}

crayfish::RunningStats TimelineSampler::MergedLatencyStats() const {
  crayfish::RunningStats merged;
  for (const TimelineWindow& w : windows_) merged.Merge(w.latency);
  return merged;
}

std::string TimelineSampler::ToJsonl() const {
  std::string out;
  for (const TimelineWindow& w : windows_) {
    JsonValue obj = JsonValue::MakeObject();
    obj["window"] = JsonValue(static_cast<int64_t>(w.index));
    obj["start_s"] = JsonValue(w.start_s);
    obj["end_s"] = JsonValue(w.end_s);
    obj["completions"] = JsonValue(static_cast<int64_t>(w.completions));
    obj["throughput_eps"] = JsonValue(w.throughput_eps());
    if (w.completions > 0) {
      JsonValue lat = JsonValue::MakeObject();
      lat["mean_s"] = JsonValue(w.latency.mean());
      lat["max_s"] = JsonValue(w.latency.max());
      lat["p50_s"] = JsonValue(w.latency_hist.Percentile(50.0));
      lat["p95_s"] = JsonValue(w.latency_hist.Percentile(95.0));
      lat["p99_s"] = JsonValue(w.latency_hist.Percentile(99.0));
      obj["latency"] = std::move(lat);
    }
    if (!w.counters.empty()) {
      JsonValue counters = JsonValue::MakeObject();
      for (const auto& [name, value] : w.counters) {
        counters[name] = JsonValue(value);
      }
      obj["counters"] = std::move(counters);
    }
    if (!w.gauges.empty()) {
      JsonValue gauges = JsonValue::MakeObject();
      for (const auto& [name, value] : w.gauges) {
        gauges[name] = JsonValue(value);
      }
      obj["gauges"] = std::move(gauges);
    }
    if (!w.active_faults.empty()) {
      JsonValue faults = JsonValue::MakeArray();
      for (const std::string& f : w.active_faults) faults.Append(JsonValue(f));
      obj["faults"] = std::move(faults);
    }
    if (!w.annotations.empty()) {
      JsonValue notes = JsonValue::MakeArray();
      for (const std::string& a : w.annotations) notes.Append(JsonValue(a));
      obj["events"] = std::move(notes);
    }
    out += obj.Dump();
    out += "\n";
  }
  return out;
}

std::string TimelineSampler::ToCsv() const {
  // Column set: fixed prefix, then the sorted union of counter and gauge
  // names over all windows (std::set keeps both deterministic).
  std::set<std::string> counter_names;
  std::set<std::string> gauge_names;
  for (const TimelineWindow& w : windows_) {
    for (const auto& [name, value] : w.counters) {
      (void)value;
      counter_names.insert(name);
    }
    for (const auto& [name, value] : w.gauges) {
      (void)value;
      gauge_names.insert(name);
    }
  }
  std::string out =
      "window,start_s,end_s,completions,throughput_eps,latency_mean_s,"
      "latency_p50_s,latency_p95_s,latency_p99_s,latency_max_s";
  for (const std::string& name : counter_names) {
    out.push_back(',');
    AppendCsvCell(&out, name);
  }
  for (const std::string& name : gauge_names) {
    out.push_back(',');
    AppendCsvCell(&out, name);
  }
  out += ",active_faults,events\n";
  // Fixed "%.9g" rendering keeps the CSV byte-identical across same-seed
  // runs without dragging full 17-digit noise into it.
  const auto append_value = [&out](double v) {
    out.push_back(',');
    AppendG9(&out, v);
  };
  for (const TimelineWindow& w : windows_) {
    AppendUint(&out, w.index);
    append_value(w.start_s);
    append_value(w.end_s);
    out.push_back(',');
    AppendUint(&out, w.completions);
    append_value(w.throughput_eps());
    if (w.completions > 0) {
      append_value(w.latency.mean());
      append_value(w.latency_hist.Percentile(50.0));
      append_value(w.latency_hist.Percentile(95.0));
      append_value(w.latency_hist.Percentile(99.0));
      append_value(w.latency.max());
    } else {
      out += ",,,,,";
    }
    for (const std::string& name : counter_names) {
      auto it = w.counters.find(name);
      if (it != w.counters.end()) append_value(it->second);
      else out.push_back(',');
    }
    for (const std::string& name : gauge_names) {
      auto it = w.gauges.find(name);
      if (it != w.gauges.end()) append_value(it->second);
      else out.push_back(',');
    }
    out.push_back(',');
    AppendJoinedCell(&out, w.active_faults);
    out.push_back(',');
    AppendJoinedCell(&out, w.annotations);
    out.push_back('\n');
  }
  return out;
}

crayfish::Status TimelineSampler::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return crayfish::Status::IoError("cannot open: " + path);
  out << ToJsonl();
  if (!out) return crayfish::Status::IoError("short write: " + path);
  return crayfish::Status::Ok();
}

crayfish::Status TimelineSampler::WriteCsv(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return crayfish::Status::IoError("cannot open: " + path);
  out << ToCsv();
  if (!out) return crayfish::Status::IoError("short write: " + path);
  return crayfish::Status::Ok();
}

}  // namespace crayfish::obs
