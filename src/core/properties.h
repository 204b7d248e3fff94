#ifndef CRAYFISH_CORE_PROPERTIES_H_
#define CRAYFISH_CORE_PROPERTIES_H_

#include <string>

#include "common/config.h"
#include "common/status.h"
#include "core/experiment.h"

namespace crayfish::core {

/// Maps a properties file onto an ExperimentConfig: the one mapping behind
/// crayfish_run and crayfish_sweep.
///
/// Dot-less keys are one field table (properties.cc): the Table 1 workload
/// parameters and run controls (engine, serving, model, bsz, ir, mp, gpu,
/// bursty, burst_rate, bd, tbb, first_burst_at_s, source_parallelism,
/// sink_parallelism, partitions, duration_s, drain_s, max_events,
/// max_measurements, seed, dataset, trace, timeline_interval_s) and the spec
/// files `faults`, `slo`, `workload` and `autoscaler`, loaded here. Dotted
/// keys are overrides, applied after every spec file is loaded:
/// `fault.<target>.<field>`, `workload.<field>` and `autoscaler.<field>`
/// set fields through the specs' own tables; every other dotted key is an
/// engine override, checked here by sps::CheckEngineOverrides.
///
/// A relative file path (`dataset` and the spec files) is resolved against
/// `base_dir`, the directory of the properties file, so a config names its
/// files the same way from any working directory. An empty `base_dir`
/// leaves it relative to the working directory; an absolute path is used
/// as given.
///
/// Every input is honoured or rejected: an unknown key, a malformed or
/// out-of-range value ("2.5" for an integer, "-1" for a count or seed, a
/// bool other than true/1/yes or false/0/no), or an unreadable or invalid
/// spec file is an InvalidArgument (or I/O) error naming the key.
StatusOr<ExperimentConfig> ExperimentConfigFromProperties(
    const Config& props, const std::string& base_dir = "");

}  // namespace crayfish::core

#endif  // CRAYFISH_CORE_PROPERTIES_H_
