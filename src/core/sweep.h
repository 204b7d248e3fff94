#ifndef CRAYFISH_CORE_SWEEP_H_
#define CRAYFISH_CORE_SWEEP_H_

#include <vector>

#include "common/status.h"
#include "core/experiment.h"

namespace crayfish::core {

/// Host parallelism for experiment sweeps.
///
/// Each ExperimentConfig run is hermetic — RunExperiment builds its own
/// Simulation, network, cluster, and RNG from the config's seed, and no
/// component touches shared mutable state — so independent configs can run
/// on separate host threads without affecting each other's event order.
/// SweepRunner exploits exactly that: a fixed pool of `jobs` threads claims
/// configs off a shared index, and results are assembled in submission
/// order, so every CSV/report built from a parallel sweep is byte-identical
/// to the serial run. The simulations themselves stay single-threaded;
/// this file (and bench/) is the only place host threading is allowed
/// (lint R6).
class SweepRunner {
 public:
  /// `jobs` <= 0 picks the process default (SetDefaultSweepJobs, else
  /// hardware concurrency). `jobs` == 1 runs inline on the calling thread —
  /// bit-for-bit today's serial behavior, no threads created.
  explicit SweepRunner(int jobs = 0);

  /// Threads actually used for a sweep of `n` configs (never more than n).
  int jobs() const { return jobs_; }

  /// Runs every config and returns the results in submission order. If any
  /// run fails, the error of the earliest-submitted failing config is
  /// returned; the remaining runs still execute (they may already be in
  /// flight on other threads).
  crayfish::StatusOr<std::vector<ExperimentResult>> RunAll(
      const std::vector<ExperimentConfig>& configs) const;

 private:
  int jobs_;
};

/// Process-wide default for sweep parallelism, used when a SweepRunner is
/// constructed with jobs <= 0. 0 = hardware concurrency (the initial
/// default); tools map their --jobs flag onto this.
void SetDefaultSweepJobs(int jobs);
int DefaultSweepJobs();

/// Resolves a jobs request: explicit positive value wins, else the process
/// default, else std::thread::hardware_concurrency(), floored at 1.
int ResolveSweepJobs(int jobs);

/// One-shot convenience over SweepRunner(jobs).RunAll(configs).
crayfish::StatusOr<std::vector<ExperimentResult>> RunExperiments(
    const std::vector<ExperimentConfig>& configs, int jobs = 0);

/// The configs of `repeats` runs of one experiment with derived seeds (the
/// paper reports mean and stddev over two runs). The seed derivation is
/// cumulative (each repeat rewrites config.seed from the previous repeat's
/// value), so the chain is materialized up front rather than re-derived
/// per index.
std::vector<ExperimentConfig> MakeRepeatedConfigs(ExperimentConfig config,
                                                  int repeats);

}  // namespace crayfish::core

#endif  // CRAYFISH_CORE_SWEEP_H_
