#include "fault/plan.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/config.h"
#include "common/json.h"

namespace crayfish::fault {
namespace {

Status ParseBool(const std::string& value, bool* out) {
  if (value == "true" || value == "1") {
    *out = true;
    return Status::Ok();
  }
  if (value == "false" || value == "0") {
    *out = false;
    return Status::Ok();
  }
  return Status::InvalidArgument("not a bool: " + value);
}

/// Sets one RetryPolicy field by name.
Status ApplyRetryField(crayfish::RetryPolicy* retry, const std::string& field,
                       const std::string& value) {
  if (field == "max_retries") return ParseNumber(value, &retry->max_retries);
  if (field == "timeout_s") return ParseNumber(value, &retry->timeout_s);
  if (field == "initial_backoff_s") {
    return ParseNumber(value, &retry->initial_backoff_s);
  }
  if (field == "backoff_multiplier") {
    return ParseNumber(value, &retry->backoff_multiplier);
  }
  if (field == "max_backoff_s") {
    return ParseNumber(value, &retry->max_backoff_s);
  }
  if (field == "jitter") return ParseNumber(value, &retry->jitter);
  return Status::InvalidArgument("unknown retry field: " + field);
}

/// Sets one FaultSpec field by name.
Status ApplySpecField(FaultSpec* spec, const std::string& field,
                      const std::string& value) {
  if (field == "at_s") return ParseNumber(value, &spec->at_s);
  if (field == "until_s") return ParseNumber(value, &spec->until_s);
  if (field == "broker") return ParseNumber(value, &spec->broker);
  if (field == "from") {
    spec->from = value;
    return Status::Ok();
  }
  if (field == "to") {
    spec->to = value;
    return Status::Ok();
  }
  if (field == "latency_mult") return ParseNumber(value, &spec->latency_mult);
  if (field == "bandwidth_mult") {
    return ParseNumber(value, &spec->bandwidth_mult);
  }
  if (field == "drop") return ParseBool(value, &spec->drop);
  if (field == "factor") return ParseNumber(value, &spec->factor);
  if (field == "workers_delta") return ParseNumber(value, &spec->workers_delta);
  if (field == "task_index") return ParseNumber(value, &spec->task_index);
  if (field == "restart_delay_s") {
    return ParseNumber(value, &spec->restart_delay_s);
  }
  return Status::InvalidArgument("unknown fault field: " + field);
}

StatusOr<FaultSpec> SpecFromJson(const JsonValue& v, size_t index) {
  if (!v.is_object()) {
    return Status::InvalidArgument("fault spec must be a JSON object");
  }
  CRAYFISH_RETURN_IF_ERROR(RejectUnknownFields(
      v,
      {"kind", "name", "at_s", "until_s", "broker", "from", "to",
       "latency_mult", "bandwidth_mult", "drop", "factor", "workers_delta",
       "task_index", "restart_delay_s"},
      "fault"));
  FaultSpec spec;
  const std::string kind_name = v.GetStringOr("kind", "");
  CRAYFISH_ASSIGN_OR_RETURN(spec.kind, ParseFaultKind(kind_name));
  spec.name = v.GetStringOr("name", "");
  if (spec.name.empty()) {
    spec.name = kind_name + "-" + std::to_string(index);
  }
  spec.at_s = v.GetNumberOr("at_s", spec.at_s);
  spec.until_s = v.GetNumberOr("until_s", spec.until_s);
  spec.broker = static_cast<int>(v.GetIntOr("broker", spec.broker));
  spec.from = v.GetStringOr("from", spec.from);
  spec.to = v.GetStringOr("to", spec.to);
  spec.latency_mult = v.GetNumberOr("latency_mult", spec.latency_mult);
  spec.bandwidth_mult = v.GetNumberOr("bandwidth_mult", spec.bandwidth_mult);
  spec.drop = v.GetBoolOr("drop", spec.drop);
  spec.factor = v.GetNumberOr("factor", spec.factor);
  spec.workers_delta =
      static_cast<int>(v.GetIntOr("workers_delta", spec.workers_delta));
  spec.task_index =
      static_cast<int>(v.GetIntOr("task_index", spec.task_index));
  spec.restart_delay_s =
      v.GetNumberOr("restart_delay_s", spec.restart_delay_s);
  CRAYFISH_RETURN_IF_ERROR(spec.Validate());
  return spec;
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kBrokerCrash:
      return "broker_crash";
    case FaultKind::kLinkDegrade:
      return "link_degrade";
    case FaultKind::kServingSlowdown:
      return "serving_slowdown";
    case FaultKind::kServingDown:
      return "serving_down";
    case FaultKind::kWorkerResize:
      return "worker_resize";
    case FaultKind::kTaskRestart:
      return "task_restart";
  }
  return "unknown";
}

StatusOr<FaultKind> ParseFaultKind(const std::string& name) {
  if (name == "broker_crash") return FaultKind::kBrokerCrash;
  if (name == "link_degrade") return FaultKind::kLinkDegrade;
  if (name == "serving_slowdown") return FaultKind::kServingSlowdown;
  if (name == "serving_down") return FaultKind::kServingDown;
  if (name == "worker_resize") return FaultKind::kWorkerResize;
  if (name == "task_restart") return FaultKind::kTaskRestart;
  return Status::InvalidArgument("unknown fault kind: \"" + name + "\"");
}

Status FaultSpec::Validate() const {
  if (name.empty()) {
    return Status::InvalidArgument("fault spec needs a name");
  }
  if (at_s < 0.0) {
    return Status::InvalidArgument(name + ": at_s must be >= 0");
  }
  if (until_s >= 0.0 && until_s <= at_s) {
    return Status::InvalidArgument(name + ": until_s must be > at_s");
  }
  switch (kind) {
    case FaultKind::kBrokerCrash:
      if (broker < 0) {
        return Status::InvalidArgument(name + ": broker must be >= 0");
      }
      break;
    case FaultKind::kLinkDegrade:
      if (bandwidth_mult <= 0.0) {
        return Status::InvalidArgument(
            name + ": bandwidth_mult must stay strictly positive");
      }
      if (latency_mult < 0.0) {
        return Status::InvalidArgument(name +
                                       ": latency_mult must be >= 0");
      }
      break;
    case FaultKind::kServingSlowdown:
      if (factor <= 0.0) {
        return Status::InvalidArgument(name + ": factor must be > 0");
      }
      break;
    case FaultKind::kServingDown:
      break;
    case FaultKind::kWorkerResize:
      if (workers_delta == 0) {
        return Status::InvalidArgument(name +
                                       ": workers_delta must be nonzero");
      }
      break;
    case FaultKind::kTaskRestart:
      if (restart_delay_s < 0.0) {
        return Status::InvalidArgument(
            name + ": restart_delay_s must be >= 0");
      }
      if (task_index < 0) {
        return Status::InvalidArgument(name + ": task_index must be >= 0");
      }
      break;
  }
  return Status::Ok();
}

bool FaultSpec::outage() const {
  switch (kind) {
    case FaultKind::kBrokerCrash:
    case FaultKind::kServingDown:
    case FaultKind::kTaskRestart:
      return true;
    case FaultKind::kLinkDegrade:
      return drop;
    case FaultKind::kServingSlowdown:
    case FaultKind::kWorkerResize:
      return false;
  }
  return false;
}

Status FaultPlan::Validate() const {
  CRAYFISH_RETURN_IF_ERROR(retry.Validate());
  if (auto_commit_interval_s < 0.0) {
    return Status::InvalidArgument("auto_commit_interval_s must be >= 0");
  }
  for (size_t i = 0; i < faults.size(); ++i) {
    CRAYFISH_RETURN_IF_ERROR(faults[i].Validate());
    for (size_t j = 0; j < i; ++j) {
      if (faults[j].name == faults[i].name) {
        return Status::InvalidArgument("duplicate fault name: " +
                                       faults[i].name);
      }
    }
  }
  return Status::Ok();
}

StatusOr<FaultPlan> FaultPlan::FromJsonText(const std::string& text) {
  CRAYFISH_ASSIGN_OR_RETURN(JsonValue root, JsonValue::Parse(text));
  if (!root.is_object()) {
    return Status::InvalidArgument("fault plan must be a JSON object");
  }
  CRAYFISH_RETURN_IF_ERROR(RejectUnknownFields(
      root, {"retry", "auto_commit_interval_s", "faults"}, "fault plan"));
  FaultPlan plan;
  if (const JsonValue* retry = root.Find("retry")) {
    if (!retry->is_object()) {
      return Status::InvalidArgument("\"retry\" must be a JSON object");
    }
    CRAYFISH_RETURN_IF_ERROR(RejectUnknownFields(
        *retry,
        {"max_retries", "timeout_s", "initial_backoff_s",
         "backoff_multiplier", "max_backoff_s", "jitter"},
        "retry"));
    plan.retry.max_retries = static_cast<int>(
        retry->GetIntOr("max_retries", plan.retry.max_retries));
    plan.retry.timeout_s =
        retry->GetNumberOr("timeout_s", plan.retry.timeout_s);
    plan.retry.initial_backoff_s =
        retry->GetNumberOr("initial_backoff_s", plan.retry.initial_backoff_s);
    plan.retry.backoff_multiplier = retry->GetNumberOr(
        "backoff_multiplier", plan.retry.backoff_multiplier);
    plan.retry.max_backoff_s =
        retry->GetNumberOr("max_backoff_s", plan.retry.max_backoff_s);
    plan.retry.jitter = retry->GetNumberOr("jitter", plan.retry.jitter);
  }
  plan.auto_commit_interval_s =
      root.GetNumberOr("auto_commit_interval_s", plan.auto_commit_interval_s);
  if (const JsonValue* faults = root.Find("faults")) {
    if (!faults->is_array()) {
      return Status::InvalidArgument("\"faults\" must be a JSON array");
    }
    for (size_t i = 0; i < faults->as_array().size(); ++i) {
      CRAYFISH_ASSIGN_OR_RETURN(FaultSpec spec,
                                SpecFromJson(faults->as_array()[i], i));
      plan.faults.push_back(std::move(spec));
    }
  }
  CRAYFISH_RETURN_IF_ERROR(plan.Validate());
  return plan;
}

StatusOr<FaultPlan> FaultPlan::FromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot read fault plan: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return FromJsonText(text.str());
}

Status FaultPlan::ApplyOverride(const std::string& key,
                                const std::string& value) {
  if (key == "auto_commit_interval_s") {
    return ParseNumber(value, &auto_commit_interval_s);
  }
  const size_t dot = key.find('.');
  if (dot == std::string::npos || dot == 0 || dot + 1 >= key.size()) {
    return Status::InvalidArgument("bad fault override key: " + key);
  }
  const std::string target = key.substr(0, dot);
  const std::string field = key.substr(dot + 1);
  if (target == "retry") return ApplyRetryField(&retry, field, value);
  for (FaultSpec& spec : faults) {
    if (spec.name == target) return ApplySpecField(&spec, field, value);
  }
  // Numeric index addressing ("0.at_s").
  char* end = nullptr;
  const long idx = std::strtol(target.c_str(), &end, 10);
  if (end != target.c_str() && *end == '\0' && idx >= 0 &&
      static_cast<size_t>(idx) < faults.size()) {
    return ApplySpecField(&faults[static_cast<size_t>(idx)], field, value);
  }
  return Status::NotFound("no fault named \"" + target + "\" in plan");
}

}  // namespace crayfish::fault
