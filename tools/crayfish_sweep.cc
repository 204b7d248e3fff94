// crayfish_sweep — parameter-sweep runner: takes a base experiment config
// plus one swept key with comma-separated values, runs every point (two
// repeats each, the paper's protocol) and emits a combined CSV.
//
// Usage:
//   crayfish_sweep [--jobs=N] <config.properties> <sweep_key> <v1,v2,...>
//                  [out.csv]
//
// All sweep points (and their repeats) run concurrently on a host thread
// pool — one deterministic single-threaded simulation each — and the
// table is assembled in sweep order, so the CSV is byte-identical to a
// serial run. --jobs=1 recovers fully serial execution.
//
// The config maps onto experiments exactly as in crayfish_run
// (core/properties.h), so any key — including "fault.<target>.<field>",
// "workload.<key>" and "autoscaler.<key>" overrides — is a sweep axis.
//
// Examples:
//   crayfish_sweep exp.properties mp 1,2,4,8,16 fig6_onnx.csv
//   crayfish_sweep --jobs=4 exp.properties bsz 32,128,512
//   crayfish_sweep exp.properties serving onnx,tf-serving,torchserve

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/logging.h"
#include "core/experiment.h"
#include "core/properties.h"
#include "core/report.h"
#include "core/sweep.h"

namespace {

using namespace crayfish;

std::vector<std::string> SplitCsv(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto print_usage = [&argv] {
    std::fprintf(stderr,
                 "usage: %s [--jobs=N] <config.properties> <sweep_key> "
                 "<v1,v2,...> [out.csv]\n",
                 argv[0]);
  };
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--jobs=", 0) == 0) {
      const int jobs = std::atoi(arg.c_str() + 7);
      if (jobs < 1) {
        std::fprintf(stderr, "--jobs must be >= 1\n");
        return 2;
      }
      core::SetDefaultSweepJobs(jobs);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      print_usage();
      return 2;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() < 3 || positional.size() > 4) {
    print_usage();
    return 2;
  }
  auto base_or = Config::FromFile(positional[0]);
  if (!base_or.ok()) {
    std::fprintf(stderr, "config error: %s\n",
                 base_or.status().ToString().c_str());
    return 2;
  }
  const std::string sweep_key = positional[1];
  const std::vector<std::string> values = SplitCsv(positional[2]);
  if (values.empty()) {
    std::fprintf(stderr, "no sweep values given\n");
    return 2;
  }

  // Materialize every point's repeats up front and run them as one
  // parallel batch; results come back in submission order, so regrouping
  // by repeat count reproduces the serial per-point loop exactly.
  constexpr int kRepeats = 2;
  std::vector<core::ExperimentConfig> batch;
  batch.reserve(values.size() * kRepeats);
  for (const std::string& value : values) {
    Config point = *base_or;
    point.Set(sweep_key, value);
    auto exp = core::ExperimentConfigFromProperties(point);
    if (!exp.ok()) {
      std::fprintf(stderr, "config error (%s=%s): %s\n", sweep_key.c_str(),
                   value.c_str(), exp.status().ToString().c_str());
      return 2;
    }
    std::vector<core::ExperimentConfig> repeats =
        core::MakeRepeatedConfigs(std::move(*exp), kRepeats);
    for (core::ExperimentConfig& cfg : repeats) {
      batch.push_back(std::move(cfg));
    }
  }
  auto all = core::RunExperiments(batch);
  if (!all.ok()) {
    std::fprintf(stderr, "sweep failed: %s\n",
                 all.status().ToString().c_str());
    return 1;
  }

  const bool slo_active =
      !batch.empty() && batch.front().slo.active();
  std::vector<std::string> headers = {
      sweep_key, "throughput ev/s", "thr stddev", "latency mean ms",
      "lat stddev ms", "p99 ms"};
  if (slo_active) headers.push_back("slo");
  crayfish::core::ReportTable table("sweep over " + sweep_key, headers);
  for (size_t i = 0; i < values.size(); ++i) {
    const std::vector<core::ExperimentResult> results(
        all->begin() + static_cast<long>(i) * kRepeats,
        all->begin() + static_cast<long>(i + 1) * kRepeats);
    const core::Aggregate thr = core::AggregateThroughput(results);
    const core::Aggregate lat = core::AggregateLatencyMean(results);
    std::vector<std::string> row = {
        values[i], core::ReportTable::Num(thr.mean),
        core::ReportTable::Num(thr.stddev),
        core::ReportTable::Num(lat.mean),
        core::ReportTable::Num(lat.stddev),
        core::ReportTable::Num(results[0].summary.latency_p99_ms)};
    if (slo_active) {
      // A point passes only when every repeat meets every objective.
      bool pass = true;
      for (const core::ExperimentResult& r : results) {
        pass = pass && r.has_slo_report && r.slo_report.passed;
      }
      row.push_back(pass ? "pass" : "FAIL");
    }
    table.AddRow(std::move(row));
    std::printf("%s=%s done (thr %.1f ev/s, lat %.2f ms)\n",
                sweep_key.c_str(), values[i].c_str(), thr.mean, lat.mean);
  }
  table.Print();
  if (positional.size() == 4) {
    crayfish::Status s = table.WriteCsv(positional[3]);
    if (!s.ok()) {
      std::fprintf(stderr, "csv error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("[csv: %s]\n", positional[3].c_str());
  }
  return 0;
}
