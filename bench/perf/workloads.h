#ifndef CRAYFISH_BENCH_PERF_WORKLOADS_H_
#define CRAYFISH_BENCH_PERF_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/experiment.h"
#include "obs/slo.h"

namespace crayfish::perf {

/// One benchmark workload: the simulations a timed rep runs, and how.
///
/// Specs are literals in workloads.cc rather than reads of examples/, so
/// editing an example can never change what the benchmark measures.
struct Workload {
  std::string name;
  /// The simulations of one rep, in submission order.
  std::vector<core::ExperimentConfig> cells;
  /// Sweep pool width: nproc / 2 clamped to [1, 4] for sweep_matrix, 1
  /// otherwise (one caller, no threads).
  int jobs = 1;
  /// Obs-on workload: each rep also exports the Chrome trace, the registry
  /// snapshot and the timeline JSONL in memory.
  bool observed = false;
};

/// Builds workload `name` with `seed` in every cell's
/// ExperimentConfig.seed and in the workload-shape jitter seed.
crayfish::StatusOr<Workload> MakeWorkload(const std::string& name,
                                          uint64_t seed);

/// The three-objective SLO spec pipeline_observed attaches; the traced
/// phase times its evaluation on every workload.
crayfish::StatusOr<obs::SloConfig> DefaultSlo();

/// `cfg` with the per-layer instruments on: tracing plus a 1 s timeline.
core::ExperimentConfig Traced(core::ExperimentConfig cfg);

/// `cfg` with every observability feature off.
core::ExperimentConfig Unobserved(core::ExperimentConfig cfg);

}  // namespace crayfish::perf

#endif  // CRAYFISH_BENCH_PERF_WORKLOADS_H_
