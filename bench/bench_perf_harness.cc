// Host-side wall-clock harness for two costs the per-workload benchmark
// (bench/perf, crayfish_perf) does not cover:
//
//  1. Sweep — wall-clock for a small figure-style sweep, --jobs=1 vs all
//     hardware threads through core::SweepRunner.
//  2. Cluster construct — a 1000-host fleet with a 256-partition topic.
//
// Emits BENCH_perf.json in the working directory so the numbers are
// tracked per commit. Wall-clock reads are fine here: this binary measures
// the host, it never runs inside a simulation.

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "broker/cluster.h"
#include "common/logging.h"
#include "core/experiment.h"
#include "core/sweep.h"
#include "sim/network.h"
#include "sim/simulation.h"

namespace crayfish::bench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// 1. Sweep wall-clock.

std::vector<core::ExperimentConfig> SweepConfigs() {
  // A Fig. 6-style slice: Flink + ONNX + FFNN overloaded at 30k ev/s,
  // parallelism swept, two repeats per point — eight independent
  // simulations.
  std::vector<core::ExperimentConfig> configs;
  for (int mp : {1, 2, 4, 8}) {
    core::ExperimentConfig cfg;
    cfg.parallelism = mp;
    cfg.input_rate = 30000.0;
    cfg.duration_s = 6.0;
    cfg.drain_s = 1.0;
    for (core::ExperimentConfig& rep : core::MakeRepeatedConfigs(cfg, 2)) {
      configs.push_back(std::move(rep));
    }
  }
  return configs;
}

double SweepWallClock(const std::vector<core::ExperimentConfig>& configs,
                      int jobs) {
  const auto start = Clock::now();
  auto results = core::RunExperiments(configs, jobs);
  CRAYFISH_CHECK(results.ok()) << results.status().ToString();
  CRAYFISH_CHECK(results->size() == configs.size());
  return SecondsSince(start);
}

// 2. Lean cluster construction.
// Cost of standing up the autoscaler's cluster-scale topology: a 1000-host
// fleet with a 256-partition topic. With lazy per-partition bookkeeping and
// lazily created links this is linear in hosts + partitions; no live link
// is evidence that nothing quadratic materialized.

constexpr int kClusterHosts = 1000;
constexpr int kClusterPartitions = 256;

/// Returns the construction's wall-clock seconds.
double ClusterConstruct() {
  const auto start = Clock::now();
  sim::Simulation sim(7);
  sim::Network network(&sim);
  for (int i = 0; i < kClusterHosts; ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "fleet-%04d", i);
    const auto s = network.AddHost(sim::Host{name, /*vcpus=*/4,
                                             /*memory_bytes=*/15ULL << 30,
                                             /*has_gpu=*/false});
    CRAYFISH_CHECK(s.ok()) << s.ToString();
  }
  broker::KafkaCluster cluster(&sim, &network, broker::ClusterConfig{});
  const auto created = cluster.CreateTopic("wide", kClusterPartitions);
  CRAYFISH_CHECK(created.ok()) << created.ToString();
  const double wall_s = SecondsSince(start);
  CRAYFISH_CHECK(network.live_link_count() == 0)
      << "lean construction materialized " << network.live_link_count()
      << " links";
  return wall_s;
}

void RunHarness() {
  const unsigned hw = std::thread::hardware_concurrency();
  const int parallel_jobs = core::ResolveSweepJobs(0);
  const std::vector<core::ExperimentConfig> configs = SweepConfigs();
  std::printf("bench_perf_harness: sweep wall-clock (%zu sims, jobs=1 vs "
              "jobs=%d, %u hardware threads)...\n",
              configs.size(), parallel_jobs, hw);
  const double serial_s = SweepWallClock(configs, 1);
  const double parallel_s = SweepWallClock(configs, parallel_jobs);
  const double sweep_speedup = serial_s / parallel_s;
  std::printf("  jobs=1    %8.2f s\n", serial_s);
  std::printf("  jobs=%-4d %8.2f s   (%.2fx)\n", parallel_jobs, parallel_s,
              sweep_speedup);

  std::printf("bench_perf_harness: cluster construct (%d hosts, "
              "%d partitions, lazy broker state)...\n",
              kClusterHosts, kClusterPartitions);
  (void)ClusterConstruct();
  const double construct_s = ClusterConstruct();
  std::printf("  construct  %8.3f s  0 live links\n", construct_s);

  // The JSON lands in the working directory, not out_dir: unlike the
  // generated CSVs it is committed, so the perf trajectory is diffable
  // per PR.
  const std::string path = "BENCH_perf.json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  CRAYFISH_CHECK(out != nullptr) << "cannot open " << path;
  std::fprintf(
      out,
      "{\n"
      "  \"hardware_concurrency\": %u,\n"
      "  \"sweep\": {\n"
      "    \"simulations\": %zu,\n"
      "    \"parallel_jobs\": %d,\n"
      "    \"serial_wall_s\": %.3f,\n"
      "    \"parallel_wall_s\": %.3f,\n"
      "    \"speedup\": %.3f\n"
      "  },\n"
      "  \"cluster_construct\": {\n"
      "    \"hosts\": %d,\n"
      "    \"partitions\": %d,\n"
      "    \"wall_s\": %.3f,\n"
      "    \"live_links\": 0,\n"
      "    \"note\": \"lazy links and null partition slots: construction is "
      "linear in hosts + partitions, no host-pair links or eager partition "
      "state\"\n"
      "  }\n"
      "}\n",
      hw, configs.size(), parallel_jobs, serial_s, parallel_s, sweep_speedup,
      kClusterHosts, kClusterPartitions, construct_s);
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace crayfish::bench

int main() {
  crayfish::SetLogLevel(crayfish::LogLevel::kWarning);
  crayfish::bench::RunHarness();
  return 0;
}
