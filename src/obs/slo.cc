#include "obs/slo.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "obs/format.h"
#include "obs/registry.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace crayfish::obs {

namespace {

/// Sentinel burn rate for a breached objective with a zero error budget.
constexpr double kInfiniteBurn = 1e9;

/// Resolves `spec.metric` for one window. Returns false when the metric is
/// undefined for this window (latency percentiles on an empty window, a
/// gauge the window never sampled) — such windows are not evaluated.
bool ResolveMetric(const SloSpec& spec, const TimelineWindow& w,
                   double* out) {
  const std::string& m = spec.metric;
  if (m == "throughput_eps") {
    *out = w.throughput_eps();
    return true;
  }
  if (m == "completions") {
    *out = static_cast<double>(w.completions);
    return true;
  }
  if (m == "p50_latency_s" || m == "p95_latency_s" || m == "p99_latency_s" ||
      m == "mean_latency_s" || m == "max_latency_s") {
    if (w.completions == 0) return false;
    if (m == "mean_latency_s") *out = w.latency.mean();
    else if (m == "max_latency_s") *out = w.latency.max();
    else if (m == "p50_latency_s") *out = w.latency_hist.Percentile(50.0);
    else if (m == "p95_latency_s") *out = w.latency_hist.Percentile(95.0);
    else *out = w.latency_hist.Percentile(99.0);
    return true;
  }
  // Counters: a window with no recorded events genuinely saw zero of them.
  auto cit = w.counters.find(m);
  if (cit != w.counters.end()) {
    *out = cit->second;
    return true;
  }
  auto git = w.gauges.find(m);
  if (git != w.gauges.end()) {
    *out = git->second;
    return true;
  }
  // Known counter-style metrics that simply never fired resolve to 0 only
  // when some *other* window recorded them — the caller handles that by
  // treating unknown names as counters with value 0.
  *out = 0.0;
  return true;
}

bool Breached(const SloSpec& spec, double value) {
  if (spec.has_max && value > spec.max) return true;
  if (spec.has_min && value < spec.min) return true;
  return false;
}

/// How far outside the allowed band `value` sits (0 when conforming) —
/// used to pick the worst observed value.
double Violation(const SloSpec& spec, double value) {
  double v = 0.0;
  if (spec.has_max && value > spec.max) v = std::max(v, value - spec.max);
  if (spec.has_min && value < spec.min) v = std::max(v, spec.min - value);
  return v;
}

}  // namespace

StatusOr<SloConfig> SloConfig::FromJsonText(const std::string& text) {
  CRAYFISH_ASSIGN_OR_RETURN(JsonValue root, JsonValue::Parse(text));
  if (!root.is_object()) {
    return Status::InvalidArgument("SLO config: top level must be an object");
  }
  const JsonValue* slos = root.Find("slos");
  if (slos == nullptr || !slos->is_array()) {
    return Status::InvalidArgument(
        "SLO config: missing \"slos\" array");
  }
  SloConfig config;
  for (const JsonValue& entry : slos->as_array()) {
    if (!entry.is_object()) {
      return Status::InvalidArgument("SLO config: each slo must be an object");
    }
    SloSpec spec;
    spec.metric = entry.GetStringOr("metric", "");
    if (spec.metric.empty()) {
      return Status::InvalidArgument("SLO config: slo missing \"metric\"");
    }
    spec.name = entry.GetStringOr("name", spec.metric);
    const JsonValue* max = entry.Find("max");
    if (max != nullptr && max->is_number()) {
      spec.max = max->as_number();
      spec.has_max = true;
    }
    const JsonValue* min = entry.Find("min");
    if (min != nullptr && min->is_number()) {
      spec.min = min->as_number();
      spec.has_min = true;
    }
    if (!spec.has_max && !spec.has_min) {
      return Status::InvalidArgument("SLO config: slo \"" + spec.name +
                                     "\" needs a \"max\" or \"min\" bound");
    }
    spec.error_budget = entry.GetNumberOr("error_budget", 0.0);
    if (spec.error_budget < 0.0 || spec.error_budget >= 1.0) {
      return Status::InvalidArgument(
          "SLO config: error_budget must be in [0, 1)");
    }
    config.slos.push_back(std::move(spec));
  }
  if (config.slos.empty()) {
    return Status::InvalidArgument("SLO config: \"slos\" array is empty");
  }
  return config;
}

StatusOr<SloConfig> SloConfig::FromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot read SLO config: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return FromJsonText(text.str());
}

SloReport SloMonitor::Evaluate(const SloConfig& config,
                               const TimelineSampler& timeline) {
  SloReport report;
  report.windows = timeline.windows().size();
  for (const SloSpec& spec : config.slos) {
    SloObjectiveReport obj;
    obj.spec = spec;
    bool in_breach = false;
    for (const TimelineWindow& w : timeline.windows()) {
      double value = 0.0;
      if (!ResolveMetric(spec, w, &value)) {
        // Unevaluated window: an ongoing breach run stays open only while
        // consecutive windows breach, so close it here.
        in_breach = false;
        continue;
      }
      ++obj.windows_evaluated;
      if (!obj.has_worst || Violation(spec, value) >
                                Violation(spec, obj.worst_value)) {
        obj.worst_value = value;
        obj.has_worst = true;
      }
      if (Breached(spec, value)) {
        ++obj.windows_breached;
        if (in_breach && !obj.breaches.empty() &&
            obj.breaches.back().last_window + 1 == w.index) {
          obj.breaches.back().last_window = w.index;
          obj.breaches.back().end_s = w.end_s;
        } else {
          obj.breaches.push_back(
              SloBreachRun{w.index, w.index, w.start_s, w.end_s});
        }
        in_breach = true;
      } else {
        in_breach = false;
      }
    }
    if (obj.windows_evaluated > 0) {
      obj.breach_fraction = static_cast<double>(obj.windows_breached) /
                            static_cast<double>(obj.windows_evaluated);
    }
    if (obj.windows_breached > 0) {
      obj.budget_burn = spec.error_budget > 0.0
                            ? obj.breach_fraction / spec.error_budget
                            : kInfiniteBurn;
    }
    obj.passed = obj.breach_fraction <= spec.error_budget;
    report.passed = report.passed && obj.passed;
    report.objectives.push_back(std::move(obj));
  }
  return report;
}

void SloMonitor::PublishMetrics(const SloReport& report,
                                MetricsRegistry* reg) {
  if (reg == nullptr) return;
  for (const SloObjectiveReport& obj : report.objectives) {
    const MetricLabels labels = {{"slo", obj.spec.name}};
    reg->Gauge("slo_windows_evaluated", labels)
        ->Set(static_cast<double>(obj.windows_evaluated));
    reg->Gauge("slo_windows_breached", labels)
        ->Set(static_cast<double>(obj.windows_breached));
    reg->Gauge("slo_breach_fraction", labels)->Set(obj.breach_fraction);
    reg->Gauge("slo_budget_burn", labels)->Set(obj.budget_burn);
    reg->Gauge("slo_passed", labels)->Set(obj.passed ? 1.0 : 0.0);
  }
  reg->Gauge("slo_report_passed")->Set(report.passed ? 1.0 : 0.0);
}

void SloMonitor::AnnotateTrace(const SloReport& report,
                               TraceRecorder* tracer) {
  if (tracer == nullptr) return;
  for (const SloObjectiveReport& obj : report.objectives) {
    for (const SloBreachRun& run : obj.breaches) {
      tracer->AddTrackSpan("slo", obj.spec.name + " breach", run.start_s,
                           run.end_s);
      tracer->AddInstant("slo", obj.spec.name + " breach", run.start_s);
      tracer->AddInstant("slo", obj.spec.name + " recover", run.end_s);
    }
  }
}

std::string SloReport::Summary() const {
  std::string out;
  for (const SloObjectiveReport& obj : objectives) {
    out += obj.passed ? "  [PASS] " : "  [FAIL] ";
    out += obj.spec.name;
    out += ": ";
    out += obj.spec.metric;
    if (obj.spec.has_max) {
      out += " <= ";
      AppendG9(&out, obj.spec.max);
    }
    if (obj.spec.has_min) {
      out += " >= ";
      AppendG9(&out, obj.spec.min);
    }
    out += " — ";
    AppendUint(&out, obj.windows_breached);
    out.push_back('/');
    AppendUint(&out, obj.windows_evaluated);
    out += " windows breached";
    if (obj.has_worst) {
      out += ", worst ";
      AppendG9(&out, obj.worst_value);
    }
    if (obj.spec.error_budget > 0.0) {
      out += ", budget burn ";
      AppendG9(&out, obj.budget_burn);
    }
    out.push_back('\n');
  }
  out += passed ? "  overall: PASS\n" : "  overall: FAIL\n";
  return out;
}

JsonValue SloReport::ToJson() const {
  JsonValue root = JsonValue::MakeObject();
  root["passed"] = JsonValue(passed);
  root["windows"] = JsonValue(static_cast<int64_t>(windows));
  JsonValue objs = JsonValue::MakeArray();
  for (const SloObjectiveReport& obj : objectives) {
    JsonValue o = JsonValue::MakeObject();
    o["name"] = JsonValue(obj.spec.name);
    o["metric"] = JsonValue(obj.spec.metric);
    if (obj.spec.has_max) o["max"] = JsonValue(obj.spec.max);
    if (obj.spec.has_min) o["min"] = JsonValue(obj.spec.min);
    o["error_budget"] = JsonValue(obj.spec.error_budget);
    o["windows_evaluated"] =
        JsonValue(static_cast<int64_t>(obj.windows_evaluated));
    o["windows_breached"] =
        JsonValue(static_cast<int64_t>(obj.windows_breached));
    o["breach_fraction"] = JsonValue(obj.breach_fraction);
    o["budget_burn"] = JsonValue(obj.budget_burn);
    o["passed"] = JsonValue(obj.passed);
    if (obj.has_worst) o["worst_value"] = JsonValue(obj.worst_value);
    JsonValue runs = JsonValue::MakeArray();
    for (const SloBreachRun& run : obj.breaches) {
      JsonValue r = JsonValue::MakeObject();
      r["first_window"] = JsonValue(static_cast<int64_t>(run.first_window));
      r["last_window"] = JsonValue(static_cast<int64_t>(run.last_window));
      r["start_s"] = JsonValue(run.start_s);
      r["end_s"] = JsonValue(run.end_s);
      runs.Append(std::move(r));
    }
    o["breaches"] = std::move(runs);
    objs.Append(std::move(o));
  }
  root["objectives"] = std::move(objs);
  return root;
}

Status SloReport::WriteJson(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot open: " + path);
  out << ToJson().DumpPretty() << "\n";
  if (!out) return Status::IoError("short write: " + path);
  return Status::Ok();
}

}  // namespace crayfish::obs
