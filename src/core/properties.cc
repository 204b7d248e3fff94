#include "core/properties.h"

#include <set>
#include <string>

namespace crayfish::core {
namespace {

/// Typed reads that remember which keys were consumed, so every dot-less
/// key nobody read can be rejected afterwards. Absent keys leave the
/// output untouched; present but malformed ones are errors.
class PropertyReader {
 public:
  explicit PropertyReader(const Config& props) : props_(props) {}

  bool Has(const std::string& key) {
    read_.insert(key);
    return props_.Has(key);
  }

  Status String(const std::string& key, std::string* out) {
    if (Has(key)) *out = props_.GetStringOr(key, "");
    return Status::Ok();
  }

  template <typename Int>
  Status Integer(const std::string& key, Int* out) {
    if (!Has(key)) return Status::Ok();
    CRAYFISH_ASSIGN_OR_RETURN(int64_t v, props_.GetInt(key));
    *out = static_cast<Int>(v);
    return Status::Ok();
  }

  Status Double(const std::string& key, double* out) {
    if (!Has(key)) return Status::Ok();
    CRAYFISH_ASSIGN_OR_RETURN(*out, props_.GetDouble(key));
    return Status::Ok();
  }

  Status Bool(const std::string& key, bool* out) {
    if (!Has(key)) return Status::Ok();
    CRAYFISH_ASSIGN_OR_RETURN(*out, props_.GetBool(key));
    return Status::Ok();
  }

  Status RejectUnread() const {
    for (const std::string& key : props_.Keys()) {
      if (key.find('.') == std::string::npos && read_.count(key) == 0) {
        return Status::InvalidArgument("unknown config key: " + key);
      }
    }
    return Status::Ok();
  }

 private:
  const Config& props_;
  std::set<std::string> read_;
};

bool HasPrefix(const std::string& key, const char* prefix) {
  return key.rfind(prefix, 0) == 0;
}

}  // namespace

StatusOr<ExperimentConfig> ExperimentConfigFromProperties(
    const Config& props) {
  ExperimentConfig out;
  PropertyReader r(props);
  CRAYFISH_RETURN_IF_ERROR(r.String("engine", &out.engine));
  CRAYFISH_RETURN_IF_ERROR(r.String("serving", &out.serving));
  CRAYFISH_RETURN_IF_ERROR(r.String("model", &out.model));
  CRAYFISH_RETURN_IF_ERROR(r.Integer("bsz", &out.batch_size));
  CRAYFISH_RETURN_IF_ERROR(r.Double("ir", &out.input_rate));
  CRAYFISH_RETURN_IF_ERROR(r.Integer("mp", &out.parallelism));
  CRAYFISH_RETURN_IF_ERROR(r.Bool("gpu", &out.use_gpu));
  CRAYFISH_RETURN_IF_ERROR(r.Bool("bursty", &out.bursty));
  CRAYFISH_RETURN_IF_ERROR(r.Double("burst_rate", &out.burst_rate));
  CRAYFISH_RETURN_IF_ERROR(r.Double("bd", &out.burst_duration_s));
  CRAYFISH_RETURN_IF_ERROR(r.Double("tbb", &out.time_between_bursts_s));
  CRAYFISH_RETURN_IF_ERROR(
      r.Double("first_burst_at_s", &out.first_burst_at_s));
  CRAYFISH_RETURN_IF_ERROR(
      r.Integer("source_parallelism", &out.source_parallelism));
  CRAYFISH_RETURN_IF_ERROR(
      r.Integer("sink_parallelism", &out.sink_parallelism));
  CRAYFISH_RETURN_IF_ERROR(r.Integer("partitions", &out.topic_partitions));
  CRAYFISH_RETURN_IF_ERROR(r.Double("duration_s", &out.duration_s));
  CRAYFISH_RETURN_IF_ERROR(r.Double("drain_s", &out.drain_s));
  CRAYFISH_RETURN_IF_ERROR(r.Integer("max_events", &out.max_events));
  CRAYFISH_RETURN_IF_ERROR(
      r.Integer("max_measurements", &out.max_measurements));
  CRAYFISH_RETURN_IF_ERROR(r.Integer("seed", &out.seed));
  CRAYFISH_RETURN_IF_ERROR(r.String("dataset", &out.dataset_path));
  CRAYFISH_RETURN_IF_ERROR(r.Bool("trace", &out.enable_tracing));
  CRAYFISH_RETURN_IF_ERROR(
      r.Double("timeline_interval_s", &out.timeline_interval_s));

  std::string path;
  CRAYFISH_RETURN_IF_ERROR(r.String("faults", &path));
  if (!path.empty()) {
    CRAYFISH_ASSIGN_OR_RETURN(out.fault_plan,
                              fault::FaultPlan::FromFile(path));
  }
  path.clear();
  CRAYFISH_RETURN_IF_ERROR(r.String("slo", &path));
  if (!path.empty()) {
    CRAYFISH_ASSIGN_OR_RETURN(out.slo, obs::SloConfig::FromFile(path));
  }
  path.clear();
  CRAYFISH_RETURN_IF_ERROR(r.String("workload", &path));
  if (!path.empty()) {
    CRAYFISH_ASSIGN_OR_RETURN(out.workload,
                              scale::WorkloadSpec::FromFile(path));
  }
  path.clear();
  CRAYFISH_RETURN_IF_ERROR(r.String("autoscaler", &path));
  if (!path.empty()) {
    CRAYFISH_ASSIGN_OR_RETURN(out.autoscaler,
                              scale::PolicyConfig::FromFile(path));
  }
  CRAYFISH_RETURN_IF_ERROR(r.RejectUnread());

  for (const std::string& key : props.Keys()) {
    if (key.find('.') == std::string::npos) continue;
    const std::string value = props.GetStringOr(key, "");
    if (HasPrefix(key, "fault.")) {
      CRAYFISH_RETURN_IF_ERROR(
          out.fault_plan.ApplyOverride(key.substr(6), value));
    } else if (HasPrefix(key, "workload.")) {
      CRAYFISH_RETURN_IF_ERROR(
          out.workload.ApplyOverride(key.substr(9), value));
    } else if (HasPrefix(key, "autoscaler.")) {
      CRAYFISH_RETURN_IF_ERROR(
          out.autoscaler.ApplyOverride(key.substr(11), value));
    } else {
      out.engine_overrides.Set(key, value);
    }
  }
  return out;
}

}  // namespace crayfish::core
