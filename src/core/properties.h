#ifndef CRAYFISH_CORE_PROPERTIES_H_
#define CRAYFISH_CORE_PROPERTIES_H_

#include "common/config.h"
#include "common/status.h"
#include "core/experiment.h"

namespace crayfish::core {

/// Maps a properties file onto an ExperimentConfig: the one mapping behind
/// crayfish_run and crayfish_sweep.
///
/// Dot-less keys are the Table 1 workload parameters and run controls
/// (engine, serving, model, bsz, ir, mp, gpu, bursty, burst_rate, bd, tbb,
/// first_burst_at_s, source_parallelism, sink_parallelism, partitions,
/// duration_s, drain_s, max_events, max_measurements, seed, dataset, trace,
/// timeline_interval_s) plus the spec files `faults`, `slo`, `workload` and
/// `autoscaler`, which are loaded here. Dotted keys are overrides:
/// `fault.<target>.<field>`, `workload.<key>` and `autoscaler.<key>` edit
/// the respective specs; every other dotted key passes to the engine
/// verbatim (e.g. `spark.max_offsets_per_trigger`).
///
/// Every input is honoured or rejected: an unknown dot-less key, a
/// malformed value, or an unreadable spec file is an InvalidArgument (or
/// I/O) error naming the key.
StatusOr<ExperimentConfig> ExperimentConfigFromProperties(
    const Config& props);

}  // namespace crayfish::core

#endif  // CRAYFISH_CORE_PROPERTIES_H_
