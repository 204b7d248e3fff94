// crayfish_run — config-file-driven experiment runner, mirroring the
// original framework's per-experiment configuration workflow (Table 1).
//
// Usage:
//   crayfish_run [flags] <config.properties>... [measurements.csv]
//
// Several config files may be given; they run concurrently on a host
// thread pool (one deterministic single-threaded simulation each) and
// their summaries print in argument order. Observability flags and the
// measurements CSV apply to single-config runs only.
//
// Flags:
//   --jobs=N            max concurrent experiments (default: hardware
//                       concurrency; --jobs=1 recovers serial behavior)
//   --trace_out=PATH    write a Chrome trace-event JSON (load in Perfetto
//                       or chrome://tracing) of every batch's stage spans
//   --trace_csv=PATH    write per-span CSV (batch_id,stage,start,end,dur)
//   --metrics_out=PATH  write the metrics-registry snapshot as JSON
//   --breakdown         print the per-stage latency decomposition
//   --timeline_out=PATH     write the telemetry timeline as JSONL
//   --timeline_csv=PATH     write the telemetry timeline as CSV
//   --timeline_interval=S   tumbling-window width in seconds (default 1)
//   --slo=PATH          evaluate SLOs from a JSON spec against the timeline
//   --slo_out=PATH      write the SLO report as JSON
//   --workload=PATH     drive the producer with a workload shape (JSON:
//                       constant|diurnal|flash-crowd|ramp|replay, plus
//                       multi-tenant fan-out; see README)
//   --autoscaler=PATH   run the elastic control loop from a policy JSON
//                       (reactive | predictive) and report scaling actions
//   --help              this text
// (--faults, --slo, --workload and --autoscaler win over the config keys
// of the same name)
// (any trace/metrics flag implicitly enables tracing for the run; any
// timeline/SLO flag enables the telemetry timeline, which never perturbs
// the simulation)
//
// Example config (the keys are listed in core/properties.h; an unknown
// dot-less key or a malformed value is an error):
//   # flink | kafka-streams | spark | ray
//   engine = flink
//   # dl4j | onnx | savedmodel | tf-serving | torchserve | ray-serve
//   serving = onnx
//   model = ffnn
//   # data points per event, events/s, scoring parallelism
//   bsz = 1
//   ir = 30000
//   mp = 1
//   duration_s = 10
//   # burst duration and time between bursts (s)
//   bursty = false
//   bd = 30
//   tbb = 120
//   burst_rate = 1500
//   # > 0 enables the telemetry timeline
//   timeline_interval_s = 0
//   seed = 42
//   # workload.* / autoscaler.* keys override the respective JSON specs
//   # (and enable them), e.g.:
//   # workload.kind = flash-crowd
//   # autoscaler.max_replicas = 8
//   # engine cost overrides (flink. / spark. / ray. / kafka_streams.),
//   # checked against each engine's field table, e.g.:
//   # spark.max_offsets_per_trigger = 768

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "common/config.h"
#include "core/experiment.h"
#include "core/properties.h"
#include "core/report.h"
#include "core/sweep.h"

namespace {

using namespace crayfish;

void PrintUsage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s [flags] <config.properties>... [measurements.csv]\n"
      "flags:\n"
      "  --jobs=N            max concurrent experiments (default: hardware\n"
      "                      concurrency; --jobs=1 runs serially)\n"
      "  --trace_out=PATH    Chrome trace-event JSON (Perfetto-loadable)\n"
      "  --trace_csv=PATH    per-span CSV export of the trace\n"
      "  --metrics_out=PATH  metrics-registry snapshot as JSON\n"
      "  --breakdown         print the per-stage latency decomposition\n"
      "  --faults=PATH       inject the fault plan (JSON; see README) and\n"
      "                      report recovery metrics\n"
      "  --timeline_out=PATH     telemetry timeline as JSONL\n"
      "  --timeline_csv=PATH     telemetry timeline as CSV\n"
      "  --timeline_interval=S   timeline window width, seconds (default 1)\n"
      "  --slo=PATH          evaluate SLOs (JSON spec) against the timeline\n"
      "  --slo_out=PATH      SLO report as JSON\n"
      "  --workload=PATH     workload shape JSON (constant|diurnal|\n"
      "                      flash-crowd|ramp|replay + multi-tenant fan-out)\n"
      "  --autoscaler=PATH   elastic-scaling policy JSON (reactive |\n"
      "                      predictive); scaling actions print after the run\n"
      "  --help              show this text\n"
      "any observability flag enables tracing; observability flags and the\n"
      "measurements CSV require a single config file\n",
      prog);
}

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  const std::string prefix = name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

// Loads one config file into an experiment. The spec-file flags win over
// the config keys of the same name. A file path in the file (a spec file or
// the dataset) is relative to the file's directory; a flag's is relative to
// the working directory.
StatusOr<core::ExperimentConfig> LoadExperiment(
    const std::string& path, const std::string& faults_flag,
    const std::string& slo_flag, const std::string& workload_flag,
    const std::string& autoscaler_flag) {
  CRAYFISH_ASSIGN_OR_RETURN(Config props, Config::FromFile(path));
  const auto set_flag = [&](const char* key, const std::string& flag) {
    if (flag.empty()) return;
    std::error_code ec;
    const std::filesystem::path abs = std::filesystem::absolute(flag, ec);
    props.Set(key, ec ? flag : abs.string());
  };
  set_flag("faults", faults_flag);
  set_flag("slo", slo_flag);
  set_flag("workload", workload_flag);
  set_flag("autoscaler", autoscaler_flag);
  return core::ExperimentConfigFromProperties(
      props, std::filesystem::path(path).parent_path().string());
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_out;
  std::string trace_csv;
  std::string metrics_out;
  std::string jobs_str;
  std::string faults_path;
  std::string timeline_out;
  std::string timeline_csv;
  std::string timeline_interval;
  std::string slo_path;
  std::string slo_out;
  std::string workload_path;
  std::string autoscaler_path;
  bool print_breakdown = false;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage(argv[0]);
      return 0;
    }
    if (arg == "--breakdown") {
      print_breakdown = true;
    } else if (ParseFlag(arg, "--jobs", &jobs_str) ||
               ParseFlag(arg, "--trace_out", &trace_out) ||
               ParseFlag(arg, "--trace_csv", &trace_csv) ||
               ParseFlag(arg, "--metrics_out", &metrics_out) ||
               ParseFlag(arg, "--faults", &faults_path) ||
               ParseFlag(arg, "--timeline_out", &timeline_out) ||
               ParseFlag(arg, "--timeline_csv", &timeline_csv) ||
               ParseFlag(arg, "--timeline_interval", &timeline_interval) ||
               ParseFlag(arg, "--slo", &slo_path) ||
               ParseFlag(arg, "--slo_out", &slo_out) ||
               ParseFlag(arg, "--workload", &workload_path) ||
               ParseFlag(arg, "--autoscaler", &autoscaler_path)) {
      // value captured by ParseFlag
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      PrintUsage(argv[0]);
      return 2;
    } else {
      positional.push_back(arg);
    }
  }
  if (!jobs_str.empty()) {
    int jobs = 0;
    if (!ParseNumber(jobs_str, &jobs).ok() || jobs < 1) {
      std::fprintf(stderr, "--jobs must be an integer >= 1\n");
      return 2;
    }
    core::SetDefaultSweepJobs(jobs);
  }
  double interval_flag = 0.0;
  if (!timeline_interval.empty()) {
    if (!ParseNumber(timeline_interval, &interval_flag).ok() ||
        !std::isfinite(interval_flag) || interval_flag <= 0.0) {
      std::fprintf(stderr, "--timeline_interval must be a finite number > 0\n");
      return 2;
    }
  }
  // The trailing positional is the measurements CSV when it ends in
  // ".csv"; everything else is a config file.
  std::string measurements_csv;
  auto ends_with_csv = [](const std::string& path) {
    return path.size() >= 4 &&
           path.compare(path.size() - 4, 4, ".csv") == 0;
  };
  if (positional.size() >= 2 && ends_with_csv(positional.back())) {
    measurements_csv = positional.back();
    positional.pop_back();
  }
  if (positional.empty()) {
    PrintUsage(argv[0]);
    return 2;
  }
  const bool want_obs_flags = print_breakdown || !trace_out.empty() ||
                              !trace_csv.empty() || !metrics_out.empty();
  const bool want_timeline_flags =
      !timeline_out.empty() || !timeline_csv.empty() ||
      !timeline_interval.empty() || !slo_path.empty() || !slo_out.empty();
  if (positional.size() > 1 && (want_obs_flags || want_timeline_flags ||
                                !measurements_csv.empty())) {
    std::fprintf(stderr,
                 "observability flags and the measurements CSV require a "
                 "single config file\n");
    return 2;
  }
  if (positional.size() > 1) {
    // Multi-config mode: run every experiment concurrently (one
    // deterministic simulation per host thread) and print summaries in
    // argument order.
    std::vector<core::ExperimentConfig> batch;
    for (const std::string& path : positional) {
      auto cfg_or = LoadExperiment(path, faults_path, slo_path, workload_path,
                                   autoscaler_path);
      if (!cfg_or.ok()) {
        std::fprintf(stderr, "config error (%s): %s\n", path.c_str(),
                     cfg_or.status().ToString().c_str());
        return 2;
      }
      batch.push_back(std::move(*cfg_or));
    }
    std::printf("running %zu experiments (jobs=%d) ...\n", batch.size(),
                std::min(core::ResolveSweepJobs(0),
                         static_cast<int>(batch.size())));
    auto results = core::RunExperiments(batch);
    if (!results.ok()) {
      std::fprintf(stderr, "experiment failed: %s\n",
                   results.status().ToString().c_str());
      return 1;
    }
    for (size_t i = 0; i < results->size(); ++i) {
      std::printf("%-40s %s\n", batch[i].Label().c_str(),
                  (*results)[i].summary.ToString().c_str());
    }
    return 0;
  }
  auto cfg_or = LoadExperiment(positional[0], faults_path, slo_path,
                               workload_path, autoscaler_path);
  if (!cfg_or.ok()) {
    std::fprintf(stderr, "config error: %s\n",
                 cfg_or.status().ToString().c_str());
    return 2;
  }
  core::ExperimentConfig cfg = std::move(*cfg_or);
  if (interval_flag > 0.0) cfg.timeline_interval_s = interval_flag;
  const bool want_obs = print_breakdown || !trace_out.empty() ||
                        !trace_csv.empty() || !metrics_out.empty();
  if (want_obs) cfg.enable_tracing = true;
  // A timeline export with no interval/SLO given still means "sample":
  // fall back to the 1 s default window.
  if ((!timeline_out.empty() || !timeline_csv.empty()) &&
      cfg.timeline_interval_s <= 0.0 && !cfg.slo.active()) {
    cfg.timeline_interval_s = 1.0;
  }
  std::printf("running %s ...\n", cfg.Label().c_str());

  auto result = core::RunExperiment(cfg);
  if (!result.ok()) {
    std::fprintf(stderr, "experiment failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("events sent:    %llu\n",
              static_cast<unsigned long long>(result->events_sent));
  std::printf("events scored:  %llu\n",
              static_cast<unsigned long long>(result->events_scored));
  std::printf("summary:        %s\n", result->summary.ToString().c_str());
  if (result->has_fault_metrics) {
    std::printf("faults:         %s\n",
                result->fault_metrics.ToString().c_str());
    for (const fault::FaultWindow& w : result->fault_metrics.windows) {
      char end[32];
      if (w.closed()) {
        std::snprintf(end, sizeof(end), "%.2f", w.end_s);
      } else {
        std::snprintf(end, sizeof(end), "end");
      }
      std::printf("  %-24s t=[%.2f, %s] %s\n", w.name.c_str(), w.start_s,
                  end, w.outage ? "outage" : "degradation");
    }
  }
  if (result->has_autoscale) {
    const scale::AutoscaleSummary& a = result->autoscale;
    std::printf(
        "autoscale:      %llu ticks, %llu up / %llu down, peak %d, final "
        "%d replicas\n",
        static_cast<unsigned long long>(a.ticks),
        static_cast<unsigned long long>(a.scale_ups),
        static_cast<unsigned long long>(a.scale_downs), a.peak_replicas,
        a.final_replicas);
    for (const scale::ScalingAction& act : a.actions) {
      std::printf("  t=%8.2f %2d -> %-2d %s\n", act.t_s, act.from, act.to,
                  act.reason.c_str());
    }
  }
  if (cfg.bursty) {
    for (size_t i = 0; i < result->recoveries.size(); ++i) {
      const auto& rec = result->recoveries[i];
      if (rec.recovery_s >= 0) {
        std::printf("burst %zu: recovered in %.2f s\n", i + 1,
                    rec.recovery_s);
      } else {
        std::printf("burst %zu: not recovered within the run\n", i + 1);
      }
    }
  }

  if (result->has_slo_report) {
    std::printf("%s", result->slo_report.Summary().c_str());
  }
  if (cfg.enable_tracing) {
    std::printf("%s", result->breakdown.ToString().c_str());
  }
  if (!timeline_out.empty() && result->timeline != nullptr) {
    crayfish::Status s = result->timeline->WriteJsonl(timeline_out);
    if (!s.ok()) {
      std::fprintf(stderr, "timeline error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote timeline of %zu windows to %s\n",
                result->timeline->windows().size(), timeline_out.c_str());
  }
  if (!timeline_csv.empty() && result->timeline != nullptr) {
    crayfish::Status s = result->timeline->WriteCsv(timeline_csv);
    if (!s.ok()) {
      std::fprintf(stderr, "timeline csv error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote timeline CSV to %s\n", timeline_csv.c_str());
  }
  if (!slo_out.empty() && result->has_slo_report) {
    crayfish::Status s = result->slo_report.WriteJson(slo_out);
    if (!s.ok()) {
      std::fprintf(stderr, "slo report error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote SLO report to %s\n", slo_out.c_str());
  }
  if (!trace_out.empty() && result->trace != nullptr) {
    crayfish::Status s = result->trace->WriteChromeTrace(trace_out);
    if (!s.ok()) {
      std::fprintf(stderr, "trace error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote trace of %zu batches to %s\n",
                result->trace->batch_count(), trace_out.c_str());
  }
  if (!trace_csv.empty() && result->trace != nullptr) {
    crayfish::Status s = result->trace->WriteStageCsv(trace_csv);
    if (!s.ok()) {
      std::fprintf(stderr, "trace csv error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote stage CSV to %s\n", trace_csv.c_str());
  }
  if (!metrics_out.empty() && result->metrics != nullptr) {
    std::ofstream out(metrics_out);
    if (!out) {
      std::fprintf(stderr, "metrics error: cannot open %s\n",
                   metrics_out.c_str());
      return 1;
    }
    out << result->metrics->SnapshotJson() << "\n";
    std::printf("wrote %zu metrics to %s\n", result->metrics->size(),
                metrics_out.c_str());
  }

  if (!measurements_csv.empty()) {
    crayfish::Status s = core::MetricsAnalyzer::WriteMeasurementsCsv(
        measurements_csv, result->measurements);
    if (!s.ok()) {
      std::fprintf(stderr, "csv error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote %zu measurements to %s\n",
                result->measurements.size(), measurements_csv.c_str());
  }
  return 0;
}
