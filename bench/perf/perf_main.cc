// crayfish_perf: the simulator's host cost, end to end and per layer.
//
// One process runs one workload (workloads.cc) through the public entry
// points core::RunExperiment / core::RunExperiments, closed loop, one
// caller (the sweep pool of sweep_matrix, and as many calibration lanes
// between its reps, are the only other threads):
//
//   1. warm-up    one rep, discarded; its fingerprint is the one every
//                 later rep must reproduce
//   2. timed      reps until --seconds is spent (or exactly --reps), each
//                 preceded by 8 zero-length runs of the workload's configs
//                 and followed by a run of the calibration kernel
//                 -> wall_per_sim_s and setup_s at reference speed
//   3. memory     ru_maxrss after the timed reps -> peak_rss_mb
//   4. traced     (--trace=1 only) traced reps, post-run calls, three layer
//                 probes and, for the sweep, a serial pass -> per-layer
//                 metrics
//
// Set-up calls are spread over the timed phase rather than run in one burst
// at start: on a shared host the speed of the machine drifts over seconds,
// and a burst would sample one moment of it. The drift itself is taken out
// by the calibration kernel (calibration.h), run on as many threads as the
// workload keeps busy: each rep and its set-up calls run between two kernel
// runs, and their host times are scaled to the reference host's speed by
// HostSpeed over the two.
//
// Every operation is checked; the last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"} carrying the end-to-end
// metrics, or with --trace=1 the per-layer metrics. README.md defines every
// metric. Simulated latencies are outputs here: they reach the checks
// through fingerprints and are never reported as performance.

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/perf/calibration.h"
#include "bench/perf/probes.h"
#include "bench/perf/spans.h"
#include "bench/perf/workloads.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/status.h"
#include "core/breakdown.h"
#include "core/experiment.h"
#include "core/metrics.h"
#include "core/sweep.h"
#include "obs/registry.h"
#include "obs/slo.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "serving/calibration.h"

namespace crayfish::perf {
namespace {

constexpr int kSetupCallsPerRep = 8;
constexpr size_t kMinTimedReps = 3;
constexpr int kTracedReps = 5;
constexpr int kProbeReps = 5;
constexpr uint64_t kKernelProbeEvents = 1'000'000;
constexpr uint64_t kBrokerProbeRecords = 100'000;
constexpr uint64_t kServingProbeRequests = 50'000;
constexpr uint64_t kReferenceSeed = 42;

// ---------------------------------------------------------------------------
// Flags
// ---------------------------------------------------------------------------

struct Flags {
  std::string workload;
  uint64_t seed = kReferenceSeed;
  double seconds = 25.0;
  /// > 0: run exactly this many timed reps and ignore --seconds.
  uint64_t reps = 0;
  bool trace = false;
  std::string reference = "bench/perf/reference.json";
  bool write_reference = false;
  std::string spans_out;
};

constexpr const char* kUsage =
    "usage: crayfish_perf --workload=NAME [--seed=N] [--seconds=S] "
    "[--reps=N] [--trace=0|1] [--reference=PATH] [--write_reference] "
    "[--spans_out=PATH]\n"
    "workloads: pipeline_overload pipeline_observed cluster_flash_crowd "
    "sweep_matrix\n";

bool ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty() || text[0] == '-') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

/// Flags are `--name=value`, except the bare `--write_reference`.
crayfish::StatusOr<Flags> ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--write_reference") {
      f.write_reference = true;
      continue;
    }
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      return crayfish::Status::InvalidArgument("unexpected argument " + arg);
    }
    const std::string name = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    uint64_t n = 0;
    bool ok = true;
    if (name == "workload") {
      f.workload = value;
    } else if (name == "seed") {
      ok = ParseUint(value, &f.seed);
    } else if (name == "seconds") {
      ok = ParseUint(value, &n) && n > 0;
      f.seconds = static_cast<double>(n);
    } else if (name == "reps") {
      ok = ParseUint(value, &f.reps);
    } else if (name == "trace") {
      ok = ParseUint(value, &n) && n <= 1;
      f.trace = n == 1;
    } else if (name == "reference") {
      f.reference = value;
    } else if (name == "spans_out") {
      f.spans_out = value;
    } else {
      return crayfish::Status::InvalidArgument("unknown flag --" + name);
    }
    if (!ok) {
      return crayfish::Status::InvalidArgument("bad value for --" + name +
                                               ": " + value);
    }
  }
  if (f.workload.empty()) {
    return crayfish::Status::InvalidArgument("--workload is required");
  }
  if (f.write_reference && f.seed != kReferenceSeed) {
    return crayfish::Status::InvalidArgument(
        "--write_reference records seed 42; drop --seed or pass --seed=42");
  }
  return f;
}

// ---------------------------------------------------------------------------
// Statistics and checks
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile q in [0, 1] (Python's statistics
/// "inclusive" method); 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Tally of checked operations behind `attempted`/`failed`.
class Checks {
 public:
  /// Counts one attempted operation, failed unless `ok`.
  void Op(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "crayfish_perf: check failed: %s\n", what.c_str());
    }
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

uint64_t Fnv1a(const std::string& s, uint64_t h = 1469598103934665603ull) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// FNV-1a over a run's observable surface: the summary JSON, events sent,
/// scored and executed, the bits of the end-of-run clock, and the fault and
/// autoscale summaries when present. Any change to simulated behaviour
/// lands in at least one of these.
uint64_t Fingerprint(const core::ExperimentResult& r) {
  std::ostringstream s;
  s << r.summary.ToJson() << '|' << r.events_sent << '|' << r.events_scored
    << '|' << r.sim_events_executed << '|';
  uint64_t clock_bits = 0;
  std::memcpy(&clock_bits, &r.sim_end_s, sizeof(clock_bits));
  s << clock_bits;
  if (r.has_fault_metrics) s << '|' << r.fault_metrics.ToString();
  if (r.has_autoscale) {
    const scale::AutoscaleSummary& a = r.autoscale;
    s << "|ticks=" << a.ticks << " ups=" << a.scale_ups
      << " downs=" << a.scale_downs << " peak=" << a.peak_replicas
      << " final=" << a.final_replicas << " actions=" << a.actions.size();
  }
  return Fnv1a(s.str());
}

/// Fingerprint of a whole rep: its cells' fingerprints in submission order.
uint64_t Fingerprint(const std::vector<core::ExperimentResult>& results) {
  std::string cells;
  for (const core::ExperimentResult& r : results) {
    cells += std::to_string(Fingerprint(r)) + ",";
  }
  return Fnv1a(cells);
}

std::string Hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Run invariants that hold whatever the seed: scored <= sent, a non-empty
/// measurement log, and no lost record when the run keeps a loss scorecard.
bool Invariants(const std::vector<core::ExperimentResult>& results,
                size_t cells) {
  if (results.size() != cells) return false;
  for (const core::ExperimentResult& r : results) {
    if (r.events_scored > r.events_sent || r.measurements.empty()) {
      return false;
    }
    if (r.has_fault_metrics && r.fault_metrics.losses != 0) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Reps
// ---------------------------------------------------------------------------

/// In-memory exports of an observed run; returns the bytes produced.
uint64_t ExportAll(const core::ExperimentResult& r) {
  uint64_t bytes = 0;
  if (r.trace != nullptr) bytes += r.trace->ToChromeTraceJson().size();
  if (r.metrics != nullptr) bytes += r.metrics->SnapshotJson().size();
  if (r.timeline != nullptr) bytes += r.timeline->ToJsonl().size();
  return bytes;
}

struct Rep {
  std::vector<core::ExperimentResult> results;
  double wall_s = 0.0;
  bool ok = false;

  double sim_s() const {
    double s = 0.0;
    for (const core::ExperimentResult& r : results) s += r.sim_end_s;
    return s;
  }
};

/// One rep of `cells`: every simulation, plus the exports when `exports`.
Rep RunRep(const std::vector<core::ExperimentConfig>& cells, int jobs,
           bool exports, const char* span, SpanRecorder* spans) {
  Rep rep;
  std::string error;
  rep.wall_s = spans->Time(span, [&]() {
    auto results = core::RunExperiments(cells, jobs);
    if (!results.ok()) {
      error = results.status().ToString();
      return;
    }
    rep.results = std::move(results).value();
    if (exports) {
      spans->Time("export", [&]() {
        for (const core::ExperimentResult& r : rep.results) ExportAll(r);
      });
    }
  });
  if (!error.empty()) {
    std::fprintf(stderr, "crayfish_perf: %s rep failed: %s\n", span,
                 error.c_str());
  }
  rep.ok = error.empty();
  return rep;
}

/// `cells` with duration_s = drain_s = 0: running one constructs, starts and
/// tears down the deployment without simulating any time.
std::vector<core::ExperimentConfig> ZeroLength(
    std::vector<core::ExperimentConfig> cells) {
  for (core::ExperimentConfig& c : cells) {
    c.duration_s = 0.0;
    c.drain_s = 0.0;
  }
  return cells;
}

/// Host seconds to set up and tear down every one of `cells` once.
double SetupCall(const std::vector<core::ExperimentConfig>& cells,
                 SpanRecorder* spans, Checks* checks) {
  bool ok = true;
  const double secs = spans->Time("setup_call", [&]() {
    for (const core::ExperimentConfig& c : cells) {
      ok = core::RunExperiment(c).ok() && ok;
    }
  });
  checks->Op(ok, "zero-length set-up run");
  return secs;
}

/// What the timed phase hands the traced phase.
struct Timed {
  uint64_t fingerprint = 0;
  std::vector<uint64_t> cell_fingerprints;
  /// Rep walls as measured.
  std::vector<double> walls;
  std::vector<double> raw_wall_per_sim;
  /// HostSpeed over each rep, and the kernel's times.
  std::vector<double> host_speed;
  std::vector<double> kernel_compute_s;
  std::vector<double> kernel_memory_s;
  /// At reference speed.
  std::vector<double> wall_per_sim;
  std::vector<double> setup;
  /// Results of the last timed rep.
  std::vector<core::ExperimentResult> last;
};

Timed RunTimed(const Workload& w, const Flags& flags, HostCalibration* calib,
               SpanRecorder* spans, Checks* checks) {
  Timed t;
  Rep warm = RunRep(w.cells, w.jobs, w.observed, "warmup", spans);
  checks->Op(warm.ok && Invariants(warm.results, w.cells.size()),
             "warm-up rep");
  t.fingerprint = Fingerprint(warm.results);
  for (const core::ExperimentResult& r : warm.results) {
    t.cell_fingerprints.push_back(Fingerprint(r));
  }
  warm.results.clear();

  const std::vector<core::ExperimentConfig> zero = ZeroLength(w.cells);
  const int phase = spans->Begin("timed");
  KernelTimes before = calib->Run(spans);
  const uint64_t checksum = calib->checksum();
  double spent = before.compute_s + before.memory_s;
  // Host seconds of each round: set-up calls, rep and calibration.
  std::vector<double> rounds;
  for (;;) {
    const size_t n = t.walls.size();
    if (flags.reps > 0 ? n >= flags.reps
                       : n >= kMinTimedReps &&
                             spent + Median(rounds) > flags.seconds) {
      break;
    }
    // Drop the previous rep's results first so no two reps are ever alive
    // together (peak_rss_mb then measures one rep) and set-up always runs
    // on the same heap.
    t.last.clear();
    std::vector<double> setup;
    for (int i = 0; i < kSetupCallsPerRep; ++i) {
      setup.push_back(SetupCall(zero, spans, checks));
    }
    Rep rep = RunRep(w.cells, w.jobs, w.observed, "rep", spans);
    checks->Op(rep.ok && Invariants(rep.results, w.cells.size()) &&
                   Fingerprint(rep.results) == t.fingerprint,
               "timed rep " + std::to_string(n) +
                   " reproduces the warm-up fingerprint");
    const KernelTimes after = calib->Run(spans);
    checks->Op(calib->ChecksumIs(checksum),
               "calibration kernel reproduces its checksum");
    const double speed = HostSpeed(before, after);
    before = after;
    t.kernel_compute_s.push_back(after.compute_s);
    t.kernel_memory_s.push_back(after.memory_s);
    double round = rep.wall_s + after.compute_s + after.memory_s;
    for (const double s : setup) {
      round += s;
      t.setup.push_back(s * speed);
    }
    spent += round;
    rounds.push_back(round);
    t.walls.push_back(rep.wall_s);
    t.host_speed.push_back(speed);
    if (rep.sim_s() > 0.0) {
      t.raw_wall_per_sim.push_back(rep.wall_s / rep.sim_s());
      t.wall_per_sim.push_back(rep.wall_s * speed / rep.sim_s());
    }
    t.last = std::move(rep.results);
  }
  spans->End(phase);
  return t;
}

/// ru_maxrss less the calibration kernel's buffers, which are resident
/// from start to exit and so add exactly their size to the peak.
double PeakRssMb(const HostCalibration& calib) {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  const double kib = static_cast<double>(usage.ru_maxrss);  // KiB on Linux
  return (kib - static_cast<double>(calib.resident_bytes()) / 1024.0) /
         1024.0;
}

// ---------------------------------------------------------------------------
// Traced phase
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Per-layer counts read from results, their registries and timelines;
/// summed over a sweep's cells (peaks take the maximum).
struct Counts {
  double events = 0, measurements = 0, scored = 0, trace_batches = 0;
  double pending_peak = 0, lag_peak = 0, sps_queue_peak = 0, stall_s = 0;
  double records_in = 0, records_out = 0, bytes_in = 0, polls = 0;
  double serving_requests = 0, serving_util = 0, serving_wait = 0;
  int serving_pools = 0;
  double ticks = 0, resizes = 0, retries = 0, duplicates = 0, losses = 0;
};

/// Metric name without its `{labels}`.
std::string BaseName(const std::string& key) {
  return key.substr(0, key.find('{'));
}

Counts Count(const std::vector<core::ExperimentResult>& results) {
  Counts c;
  for (const core::ExperimentResult& r : results) {
    c.events += static_cast<double>(r.sim_events_executed);
    c.measurements += static_cast<double>(r.measurements.size());
    c.scored += static_cast<double>(r.events_scored);
    if (r.trace != nullptr) {
      c.trace_batches += static_cast<double>(r.trace->batch_count());
    }
    if (r.timeline != nullptr) {
      for (const obs::TimelineWindow& win : r.timeline->windows()) {
        auto peak = [&win](const char* gauge, double* into) {
          auto it = win.gauges.find(gauge);
          if (it != win.gauges.end()) *into = std::max(*into, it->second);
        };
        peak("sim_event_queue", &c.pending_peak);
        peak("consumer_lag", &c.lag_peak);
        peak("sps_queue_depth", &c.sps_queue_peak);
        auto stall = win.counters.find("engine_stall_s");
        if (stall != win.counters.end()) c.stall_s += stall->second;
      }
    }
    if (r.metrics != nullptr) {
      const crayfish::JsonValue snap = r.metrics->Snapshot();
      for (const auto& [key, v] : snap.as_object()) {
        const std::string base = BaseName(key);
        const bool workers = key.find("resource=workers") != std::string::npos;
        if (base == "broker_records_in") c.records_in += v.as_number();
        if (base == "broker_records_out") c.records_out += v.as_number();
        if (base == "broker_bytes_in") c.bytes_in += v.as_number();
        if (base == "consumer_poll_wait_s") {
          c.polls += v.GetNumberOr("count", 0);
        }
        if (base == "serving_requests_served") {
          c.serving_requests += v.as_number();
        }
        if (base == "serving_utilization" && workers) {
          c.serving_util += v.as_number();
          ++c.serving_pools;
        }
        if (base == "serving_wait_mean_s" && workers) {
          c.serving_wait += v.as_number();
        }
      }
    }
    if (r.has_autoscale) {
      c.ticks += static_cast<double>(r.autoscale.ticks);
      c.resizes +=
          static_cast<double>(r.autoscale.scale_ups + r.autoscale.scale_downs);
    }
    if (r.has_fault_metrics) {
      c.retries += static_cast<double>(r.fault_metrics.retries);
      c.duplicates += static_cast<double>(r.fault_metrics.duplicates);
      c.losses += static_cast<double>(r.fault_metrics.losses);
    }
  }
  if (c.serving_pools > 0) {
    c.serving_util /= c.serving_pools;
    c.serving_wait /= c.serving_pools;
  }
  return c;
}

struct PostRun {
  double breakdown_s = 0, slo_eval_s = 0, summarize_s = 0, export_s = 0;
  double export_bytes = 0;
};

/// Median host seconds of the post-run calls over kProbeReps passes on
/// `results` (summed over cells); the first pass also checks that each
/// recomputation equals what the run itself produced.
PostRun TimePostRun(const std::vector<core::ExperimentResult>& results,
                    const obs::SloConfig& slo, SpanRecorder* spans,
                    Checks* checks) {
  std::vector<double> breakdown, slo_eval, summarize, exports;
  PostRun out;
  for (int pass = 0; pass < kProbeReps; ++pass) {
    double b = 0, s = 0, m = 0, e = 0;
    uint64_t bytes = 0;
    for (const core::ExperimentResult& r : results) {
      if (r.trace != nullptr) {
        core::LatencyBreakdown bd;
        b += spans->Time("breakdown", [&]() {
          bd = core::BreakdownAnalyzer::Compute(*r.trace, r.measurements);
        });
        if (pass == 0) {
          checks->Op(bd.ToJson() == r.breakdown.ToJson(),
                     "recomputed breakdown equals the run's");
        }
      }
      if (r.timeline != nullptr) {
        obs::SloReport report;
        s += spans->Time("slo_eval", [&]() {
          report = obs::SloMonitor::Evaluate(slo, *r.timeline);
        });
        if (pass == 0 && r.has_slo_report) {
          checks->Op(report.ToJson().Dump() == r.slo_report.ToJson().Dump(),
                     "re-evaluated SLO report equals the run's");
        }
      }
      core::MetricsSummary summary;
      m += spans->Time("summarize", [&]() {
        summary = core::MetricsAnalyzer::Summarize(r.measurements);
      });
      if (pass == 0) {
        checks->Op(summary.ToJson() == r.summary.ToJson(),
                   "re-summarized measurements equal the run's summary");
      }
      e += spans->Time("export", [&]() { bytes += ExportAll(r); });
    }
    breakdown.push_back(b);
    slo_eval.push_back(s);
    summarize.push_back(m);
    exports.push_back(e);
    out.export_bytes = static_cast<double>(bytes);
  }
  out.breakdown_s = Median(breakdown);
  out.slo_eval_s = Median(slo_eval);
  out.summarize_s = Median(summarize);
  out.export_s = Median(exports);
  return out;
}

/// Median ns/op over kProbeReps runs of `probe`. The cost is gross: it
/// includes the kernel work of the probe's own events, which
/// sim.kernel_share charges as well.
template <typename Probe>
double ProbeNs(const char* what, Probe&& probe, Checks* checks) {
  std::vector<double> ns;
  for (int i = 0; i < kProbeReps; ++i) {
    const ProbeRun run = probe();
    checks->Op(run.ok && run.ops > 0,
               std::string(what) + " probe completes every operation");
    if (run.ops > 0) ns.push_back(run.ns_per_op());
  }
  return Median(ns);
}

std::vector<Metric> TracedPhase(const Workload& w, const Timed& timed,
                                SpanRecorder* spans, Checks* checks) {
  const int phase = spans->Begin("traced");

  // 1. Layer instruments on (obs off for pipeline_observed, whose timed reps
  //    already carry them): same simulated run, so the same fingerprint.
  std::vector<core::ExperimentConfig> cfgs;
  for (const core::ExperimentConfig& c : w.cells) {
    cfgs.push_back(w.observed ? Unobserved(c) : Traced(c));
  }
  std::vector<double> traced_walls;
  std::vector<core::ExperimentResult> traced;
  for (int i = 0; i < kTracedReps; ++i) {
    Rep rep = RunRep(cfgs, w.jobs, /*exports=*/false, "traced_rep", spans);
    checks->Op(rep.ok && Invariants(rep.results, cfgs.size()) &&
                   Fingerprint(rep.results) == timed.fingerprint,
               "traced rep " + std::to_string(i) +
                   " equals the untraced fingerprint");
    traced_walls.push_back(rep.wall_s);
    if (i == 0) traced = std::move(rep.results);
  }
  const std::vector<core::ExperimentResult>& counted =
      w.observed ? timed.last : traced;
  const Counts c = Count(counted);
  const double timed_wall = Median(timed.walls);
  const double overhead = w.observed ? timed_wall / Median(traced_walls)
                                     : Median(traced_walls) / timed_wall;

  // 2. Post-run calls on the instrumented results.
  auto slo = DefaultSlo();
  checks->Op(slo.ok(), "SLO spec parses");
  const PostRun post =
      TimePostRun(counted, slo.ok() ? *slo : obs::SloConfig{}, spans, checks);

  // 3. Layer probes, sized from the counts.
  const double kernel_ns = ProbeNs(
      "sim kernel",
      [&]() {
        return ProbeSimKernel(static_cast<uint64_t>(c.pending_peak),
                              kKernelProbeEvents, spans);
      },
      checks);
  const uint64_t record_bytes =
      c.records_in > 0 ? static_cast<uint64_t>(c.bytes_in / c.records_in)
                       : 1024;
  const double broker_ns = ProbeNs(
      "broker",
      [&]() { return ProbeBroker(record_bytes, kBrokerProbeRecords, spans); },
      checks);
  std::string tool = "tf-serving";
  for (const core::ExperimentConfig& cell : w.cells) {
    if (serving::IsExternalTool(cell.serving)) {
      tool = cell.serving;
      break;
    }
  }
  const double serving_ns = ProbeNs(
      "serving",
      [&]() {
        return ProbeServing(tool, w.cells.front().batch_size,
                            w.cells.front().parallelism,
                            kServingProbeRequests, spans);
      },
      checks);

  // 4. The sweep's cells one by one: per-cell equality with the pool's
  //    results, and the serial wall the pool is measured against.
  double rep_wall = timed_wall;
  double sweep_efficiency = 0.0;
  if (w.jobs > 1) {
    double serial = 0.0;
    for (size_t i = 0; i < w.cells.size(); ++i) {
      uint64_t fp = 0;
      serial += spans->Time("serial_cell", [&]() {
        auto r = core::RunExperiment(w.cells[i]);
        if (r.ok()) fp = Fingerprint(*r);
      });
      checks->Op(i < timed.cell_fingerprints.size() &&
                     fp == timed.cell_fingerprints[i],
                 "serial sweep cell " + std::to_string(i) +
                     " equals the pool's result");
    }
    rep_wall = serial;
    sweep_efficiency = serial / (w.jobs * timed_wall);
  }
  spans->End(phase);

  auto share = [rep_wall](double ops, double ns) {
    return rep_wall > 0.0 ? ops * ns * 1e-9 / rep_wall : 0.0;
  };
  const double kernel_share = share(c.events, kernel_ns);
  const double broker_share = share(c.records_in, broker_ns);
  const double serving_share = share(c.serving_requests, serving_ns);

  // Rep wall at the highest percentile with ten reps beyond it.
  const double n = static_cast<double>(timed.walls.size());
  const double tail_q = std::max(0.5, 1.0 - 10.0 / std::max(n, 1.0));

  return {
      {"sim.events", c.events, "count"},
      {"sim.ns_per_event", c.events > 0 ? rep_wall * 1e9 / c.events : 0.0,
       "ns"},
      {"sim.pending_peak", c.pending_peak, "count"},
      {"sim.kernel_ns_per_event", kernel_ns, "ns"},
      {"sim.kernel_share", kernel_share, "fraction"},
      {"broker.records_in", c.records_in, "count"},
      {"broker.records_out", c.records_out, "count"},
      {"broker.bytes_in", c.bytes_in, "B"},
      {"broker.polls", c.polls, "count"},
      {"broker.lag_peak", c.lag_peak, "count"},
      {"broker.ns_per_record", broker_ns, "ns"},
      {"broker.share", broker_share, "fraction"},
      {"sps.events_scored", c.scored, "count"},
      {"sps.queue_depth_peak", c.sps_queue_peak, "count"},
      {"sps.stall_s", c.stall_s, "s"},
      {"serving.requests", c.serving_requests, "count"},
      {"serving.worker_utilization", c.serving_util, "fraction"},
      {"serving.queue_wait_mean_s", c.serving_wait, "s"},
      {"serving.ns_per_request", serving_ns, "ns"},
      {"serving.share", serving_share, "fraction"},
      {"obs.trace_batches", c.trace_batches, "count"},
      {"obs.export_bytes", post.export_bytes, "B"},
      {"obs.export_s", post.export_s, "s"},
      {"obs.breakdown_s", post.breakdown_s, "s"},
      {"obs.slo_eval_s", post.slo_eval_s, "s"},
      {"obs.overhead_ratio", overhead, "ratio"},
      {"core.summarize_s", post.summarize_s, "s"},
      {"core.measurements", c.measurements, "count"},
      {"core.sweep_efficiency", sweep_efficiency, "fraction"},
      {"core.unattributed_share",
       1.0 - kernel_share - broker_share - serving_share, "fraction"},
      {"core.wall_tail", Quantile(timed.walls, tail_q), "s"},
      {"core.timed_reps", n, "count"},
      {"core.raw_wall_per_sim_s", Median(timed.raw_wall_per_sim), "s/s"},
      {"core.host_speed", Median(timed.host_speed), "ratio"},
      {"scale.ticks", c.ticks, "count"},
      {"scale.resizes", c.resizes, "count"},
      {"fault.retries", c.retries, "count"},
      {"fault.duplicates", c.duplicates, "count"},
      {"fault.losses", c.losses, "count"},
  };
}

// ---------------------------------------------------------------------------
// Reference fingerprints
// ---------------------------------------------------------------------------

crayfish::StatusOr<crayfish::JsonValue> ReadJsonFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return crayfish::Status::NotFound("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  return crayfish::JsonValue::Parse(text.str());
}

crayfish::StatusOr<uint64_t> ReadReference(const std::string& path,
                                           const std::string& workload) {
  CRAYFISH_ASSIGN_OR_RETURN(crayfish::JsonValue root, ReadJsonFile(path));
  const crayfish::JsonValue* fps = root.Find("fingerprints");
  const crayfish::JsonValue* fp =
      fps != nullptr ? fps->Find(workload) : nullptr;
  if (fp == nullptr || !fp->is_string()) {
    return crayfish::Status::NotFound(path + " has no fingerprint for " +
                                      workload);
  }
  return static_cast<uint64_t>(
      std::strtoull(fp->as_string().c_str(), nullptr, 16));
}

/// Sets `workload`'s entry in the reference file, keeping the others.
crayfish::Status WriteReference(const std::string& path,
                                const std::string& workload, uint64_t fp) {
  auto existing = ReadJsonFile(path);
  crayfish::JsonValue root = existing.ok() && existing->is_object()
                                 ? *existing
                                 : crayfish::JsonValue::MakeObject();
  root["seed"] = crayfish::JsonValue(static_cast<double>(kReferenceSeed));
  if (root.Find("fingerprints") == nullptr) {
    root["fingerprints"] = crayfish::JsonValue::MakeObject();
  }
  root["fingerprints"][workload] = crayfish::JsonValue(Hex(fp));
  std::ofstream out(path, std::ios::trunc);
  if (!out) return crayfish::Status::IoError("cannot write " + path);
  out << root.DumpPretty() << "\n";
  out.close();
  if (!out) return crayfish::Status::IoError("short write to " + path);
  return crayfish::Status::Ok();
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string ResultJson(const Checks& checks,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += checks.failed() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(checks.attempted());
  out += ", \"failed\": " + std::to_string(checks.failed());
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + Number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

int Main(int argc, char** argv) {
  crayfish::SetLogLevel(crayfish::LogLevel::kWarning);
  auto flags = ParseFlags(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "crayfish_perf: %s\n%s",
                 flags.status().ToString().c_str(), kUsage);
    return 2;
  }
  auto workload = MakeWorkload(flags->workload, flags->seed);
  if (!workload.ok()) {
    std::fprintf(stderr, "crayfish_perf: %s\n%s",
                 workload.status().ToString().c_str(), kUsage);
    return 2;
  }
  const Workload& w = *workload;

  // Before anything else, so its buffers are resident for the whole run.
  HostCalibration calib(w.jobs);
  SpanRecorder spans;
  Checks checks;
  const int root = spans.Begin("crayfish_perf " + w.name);
  Timed timed = RunTimed(w, *flags, &calib, &spans, &checks);
  const double rss_mb = PeakRssMb(calib);
  std::vector<Metric> layers;
  if (flags->trace) layers = TracedPhase(w, timed, &spans, &checks);

  if (flags->write_reference) {
    const crayfish::Status s =
        checks.failed() == 0
            ? WriteReference(flags->reference, w.name, timed.fingerprint)
            : crayfish::Status::FailedPrecondition(
                  "checks failed; reference not written");
    checks.Op(s.ok(), "write reference: " + s.ToString());
  } else if (flags->seed == kReferenceSeed) {
    auto ref = ReadReference(flags->reference, w.name);
    checks.Op(ref.ok() && *ref == timed.fingerprint,
              "seed-42 fingerprint " + Hex(timed.fingerprint) +
                  " matches " + flags->reference + " (" +
                  (ref.ok() ? Hex(*ref) : ref.status().ToString()) + ")");
  }
  spans.End(root);
  if (!flags->spans_out.empty()) {
    const crayfish::Status s = spans.Write(flags->spans_out);
    checks.Op(s.ok(), "write spans: " + s.ToString());
  }

  const std::vector<Metric> e2e = {
      {"wall_per_sim_s", Median(timed.wall_per_sim), "s/s"},
      {"setup_s", Median(timed.setup), "s"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
  std::printf("crayfish_perf workload=%s seed=%llu jobs=%d nproc=%u "
              "timed_reps=%zu fingerprint=%s\n",
              w.name.c_str(), static_cast<unsigned long long>(flags->seed),
              w.jobs, std::thread::hardware_concurrency(), timed.walls.size(),
              Hex(timed.fingerprint).c_str());
  PrintTable("end to end", e2e);
  std::printf("  (times at reference speed; wall_per_sim_s is the median "
              "of %zu timed reps, q1 %.6g, q3 %.6g; as measured %.6g s/s "
              "at host speed %.4g; kernel compute %.4g s, memory %.4g s)\n",
              timed.wall_per_sim.size(), Quantile(timed.wall_per_sim, 0.25),
              Quantile(timed.wall_per_sim, 0.75),
              Median(timed.raw_wall_per_sim), Median(timed.host_speed),
              Median(timed.kernel_compute_s), Median(timed.kernel_memory_s));
  const double error_rate =
      checks.attempted() == 0
          ? 0.0
          : static_cast<double>(checks.failed()) /
                static_cast<double>(checks.attempted());
  std::printf("  %-28s %16.6g fraction (%llu of %llu checked ops failed)\n",
              "error_rate", error_rate,
              static_cast<unsigned long long>(checks.failed()),
              static_cast<unsigned long long>(checks.attempted()));
  if (flags->trace) PrintTable("per layer", layers);
  std::printf("%s\n", ResultJson(checks, flags->trace ? layers : e2e).c_str());
  std::fflush(stdout);
  return checks.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace crayfish::perf

int main(int argc, char** argv) { return crayfish::perf::Main(argc, argv); }
