#include "core/sweep.h"

#include <atomic>
#include <cstddef>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace crayfish::core {

namespace {
/// Written only by SetDefaultSweepJobs (tool startup, before any sweep);
/// sweeps read it concurrently, hence the relaxed atomic.
std::atomic<int> g_default_jobs{0};
}  // namespace

void SetDefaultSweepJobs(int jobs) {
  g_default_jobs.store(jobs, std::memory_order_relaxed);
}

int DefaultSweepJobs() {
  return g_default_jobs.load(std::memory_order_relaxed);
}

int ResolveSweepJobs(int jobs) {
  if (jobs <= 0) jobs = DefaultSweepJobs();
  if (jobs <= 0) jobs = static_cast<int>(std::thread::hardware_concurrency());
  if (jobs <= 0) jobs = 1;
  return jobs;
}

SweepRunner::SweepRunner(int jobs) : jobs_(ResolveSweepJobs(jobs)) {}

crayfish::StatusOr<std::vector<ExperimentResult>> SweepRunner::RunAll(
    const std::vector<ExperimentConfig>& configs) const {
  const size_t n = configs.size();
  std::vector<std::optional<ExperimentResult>> slots(n);
  std::vector<crayfish::Status> statuses(n, crayfish::Status::Ok());

  const auto run_one = [&](size_t i) {
    auto result = RunExperiment(configs[i]);
    if (result.ok()) {
      slots[i] = std::move(*result);
    } else {
      statuses[i] = result.status();
    }
  };

  const int workers = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(jobs_), n));
  if (workers <= 1) {
    // Serial path: no threads, identical to the pre-sweep behavior.
    for (size_t i = 0; i < n; ++i) run_one(i);
  } else {
    // Each worker claims the next unstarted config; slots are disjoint, so
    // the only shared write is the claim index.
    std::atomic<size_t> next{0};
    {
      std::vector<std::jthread> pool;
      pool.reserve(static_cast<size_t>(workers));
      for (int w = 0; w < workers; ++w) {
        pool.emplace_back([&]() {
          for (;;) {
            const size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n) return;
            run_one(i);
          }
        });
      }
    }  // jthreads join here.
  }

  // Submission-order error propagation: the earliest failing config wins,
  // independent of which thread hit it first.
  for (size_t i = 0; i < n; ++i) {
    if (!statuses[i].ok()) return statuses[i];
  }
  std::vector<ExperimentResult> results;
  results.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    CRAYFISH_CHECK(slots[i].has_value());
    results.push_back(std::move(*slots[i]));
  }
  return results;
}

crayfish::StatusOr<std::vector<ExperimentResult>> RunExperiments(
    const std::vector<ExperimentConfig>& configs, int jobs) {
  return SweepRunner(jobs).RunAll(configs);
}

std::vector<ExperimentConfig> MakeRepeatedConfigs(ExperimentConfig config,
                                                  int repeats) {
  std::vector<ExperimentConfig> configs;
  configs.reserve(static_cast<size_t>(repeats < 0 ? 0 : repeats));
  for (int i = 0; i < repeats; ++i) {
    // Cumulative chain: iteration i derives from iteration i-1's seed.
    config.seed = config.seed * 1000003 + static_cast<uint64_t>(i) + 1;
    configs.push_back(config);
  }
  return configs;
}

}  // namespace crayfish::core
