#include "core/properties.h"

#include <filesystem>
#include <span>
#include <string>
#include <type_traits>

#include "common/fields.h"
#include "sps/engine.h"

namespace crayfish::core {
namespace {

/// A spec-file key: loads the file at the given path into `Member`; an
/// empty path leaves the spec inert.
template <auto Member>
Status LoadSpecFile(ExperimentConfig* out, const FieldValue& v) {
  std::string path;
  CRAYFISH_RETURN_IF_ERROR(v.To(&path));
  if (path.empty()) return Status::Ok();
  using Spec = std::remove_reference_t<decltype(out->*Member)>;
  CRAYFISH_ASSIGN_OR_RETURN(out->*Member, Spec::FromFile(path));
  return Status::Ok();
}

/// The keys whose value is a file path: the dataset and the spec files. A
/// relative path is resolved against the properties file's directory.
constexpr Field<ExperimentConfig> kPathFields[] = {
    {"dataset", &ExperimentConfig::dataset_path},
    {"faults", LoadSpecFile<&ExperimentConfig::fault_plan>},
    {"slo", LoadSpecFile<&ExperimentConfig::slo>},
    {"workload", LoadSpecFile<&ExperimentConfig::workload>},
    {"autoscaler", LoadSpecFile<&ExperimentConfig::autoscaler>},
};

constexpr Field<ExperimentConfig> kPropertyFields[] = {
    {"engine", &ExperimentConfig::engine},
    {"serving", &ExperimentConfig::serving},
    {"model", &ExperimentConfig::model},
    {"bsz", &ExperimentConfig::batch_size},
    {"ir", &ExperimentConfig::input_rate},
    {"mp", &ExperimentConfig::parallelism},
    {"gpu", &ExperimentConfig::use_gpu},
    {"bursty", &ExperimentConfig::bursty},
    {"burst_rate", &ExperimentConfig::burst_rate},
    {"bd", &ExperimentConfig::burst_duration_s},
    {"tbb", &ExperimentConfig::time_between_bursts_s},
    {"first_burst_at_s", &ExperimentConfig::first_burst_at_s},
    {"source_parallelism", &ExperimentConfig::source_parallelism},
    {"sink_parallelism", &ExperimentConfig::sink_parallelism},
    {"partitions", &ExperimentConfig::topic_partitions},
    {"duration_s", &ExperimentConfig::duration_s},
    {"drain_s", &ExperimentConfig::drain_s},
    {"max_events", &ExperimentConfig::max_events},
    {"max_measurements", &ExperimentConfig::max_measurements},
    {"seed", &ExperimentConfig::seed},
    {"trace", &ExperimentConfig::enable_tracing},
    {"timeline_interval_s", &ExperimentConfig::timeline_interval_s},
};

}  // namespace

StatusOr<ExperimentConfig> ExperimentConfigFromProperties(
    const Config& props, const std::string& base_dir) {
  ExperimentConfig out;
  // Dot-less keys first, so the spec files are loaded before the dotted
  // overrides edit them.
  for (const auto& [key, value] : props.values()) {
    if (key.find('.') != std::string::npos) continue;
    std::string text = value;
    const bool path = HasField<ExperimentConfig>(kPathFields, key);
    if (path && !base_dir.empty() && !text.empty() &&
        std::filesystem::path(text).is_relative()) {
      text = (std::filesystem::path(base_dir) / text).string();
    }
    CRAYFISH_RETURN_IF_ERROR(SetField<ExperimentConfig>(
        path ? std::span<const Field<ExperimentConfig>>(kPathFields)
             : kPropertyFields,
        "config", key, FieldValue(text), &out));
  }
  for (const auto& [key, value] : props.values()) {
    const size_t dot = key.find('.');
    if (dot == std::string::npos) continue;
    const std::string spec = key.substr(0, dot);
    const std::string field = key.substr(dot + 1);
    if (spec == "fault") {
      CRAYFISH_RETURN_IF_ERROR(out.fault_plan.ApplyOverride(field, value));
    } else if (spec == "workload") {
      CRAYFISH_RETURN_IF_ERROR(out.workload.ApplyOverride(field, value));
    } else if (spec == "autoscaler") {
      CRAYFISH_RETURN_IF_ERROR(out.autoscaler.ApplyOverride(field, value));
    } else {
      out.engine_overrides.Set(key, value);
    }
  }
  // Engine cost overrides are checked now, before any cluster is built.
  CRAYFISH_RETURN_IF_ERROR(sps::CheckEngineOverrides(out.engine_overrides));
  return out;
}

}  // namespace crayfish::core
