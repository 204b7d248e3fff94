#include "fault/plan.h"

#include "common/config.h"
#include "common/fields.h"

namespace crayfish::fault {
namespace {

/// Indexed by FaultKind.
constexpr const char* kKindNames[] = {"broker_crash", "link_degrade",
                                      "serving_slowdown", "serving_down"};

constexpr Field<RetryPolicy> kRetryFields[] = {
    {"max_retries", &RetryPolicy::max_retries},
    {"timeout_s", &RetryPolicy::timeout_s},
    {"initial_backoff_s", &RetryPolicy::initial_backoff_s},
    {"backoff_multiplier", &RetryPolicy::backoff_multiplier},
    {"max_backoff_s", &RetryPolicy::max_backoff_s},
    {"jitter", &RetryPolicy::jitter},
};

/// A fault's kind and name come from the plan file only: overrides address
/// a fault by its name, and the default name is built from the kind.
Status RejectText(const FieldValue& v) {
  return v.json() != nullptr
             ? Status::Ok()
             : Status::InvalidArgument("set in the fault plan file only");
}

constexpr Field<FaultSpec> kSpecFields[] = {
    {"kind",
     [](FaultSpec* spec, const FieldValue& v) -> Status {
       CRAYFISH_RETURN_IF_ERROR(RejectText(v));
       std::string name;
       CRAYFISH_RETURN_IF_ERROR(v.To(&name));
       CRAYFISH_ASSIGN_OR_RETURN(spec->kind, ParseFaultKind(name));
       return Status::Ok();
     }},
    {"name",
     [](FaultSpec* spec, const FieldValue& v) -> Status {
       CRAYFISH_RETURN_IF_ERROR(RejectText(v));
       return v.To(&spec->name);
     }},
    {"at_s", &FaultSpec::at_s},
    {"until_s", &FaultSpec::until_s},
    {"broker", &FaultSpec::broker},
    {"from", &FaultSpec::from},
    {"to", &FaultSpec::to},
    {"latency_mult", &FaultSpec::latency_mult},
    {"bandwidth_mult", &FaultSpec::bandwidth_mult},
    {"drop", &FaultSpec::drop},
    {"factor", &FaultSpec::factor},
};

/// JSON-only: a plan's "retry" object and "faults" array.
constexpr Field<FaultPlan> kPlanFields[] = {
    {"retry",
     [](FaultPlan* plan, const FieldValue& v) -> Status {
       if (v.json() == nullptr) {
         return Status::InvalidArgument("set retry.<field> instead");
       }
       return SetFields<RetryPolicy>(kRetryFields, "retry", *v.json(),
                                     &plan->retry);
     }},
    {"auto_commit_interval_s", &FaultPlan::auto_commit_interval_s},
    {"faults",
     [](FaultPlan* plan, const FieldValue& v) -> Status {
       if (v.json() == nullptr || !v.json()->is_array()) {
         return Status::InvalidArgument("must be a JSON array");
       }
       for (const JsonValue& entry : v.json()->as_array()) {
         FaultSpec spec;
         CRAYFISH_RETURN_IF_ERROR(
             SetFields<FaultSpec>(kSpecFields, "fault", entry, &spec));
         if (entry.Find("kind") == nullptr) {
           return Status::InvalidArgument("fault spec needs a \"kind\"");
         }
         if (spec.name.empty()) {
           spec.name = std::string(FaultKindName(spec.kind)) + "-" +
                       std::to_string(plan->faults.size());
         }
         plan->faults.push_back(std::move(spec));
       }
       return Status::Ok();
     }},
};

StatusOr<FaultPlan> PlanFromJson(const JsonValue& root) {
  FaultPlan plan;
  CRAYFISH_RETURN_IF_ERROR(
      SetFields<FaultPlan>(kPlanFields, "fault plan", root, &plan));
  CRAYFISH_RETURN_IF_ERROR(plan.Validate());
  return plan;
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  return kKindNames[static_cast<size_t>(kind)];
}

StatusOr<FaultKind> ParseFaultKind(const std::string& name) {
  for (size_t i = 0; i < std::size(kKindNames); ++i) {
    if (name == kKindNames[i]) return static_cast<FaultKind>(i);
  }
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
  }
  return Status::Ok();
}

bool FaultSpec::outage() const {
  switch (kind) {
    case FaultKind::kBrokerCrash:
    case FaultKind::kServingDown:
      return true;
    case FaultKind::kLinkDegrade:
      return drop;
    case FaultKind::kServingSlowdown:
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
  return PlanFromJson(root);
}

StatusOr<FaultPlan> FaultPlan::FromFile(const std::string& path) {
  CRAYFISH_ASSIGN_OR_RETURN(JsonValue root, LoadJsonFile(path, "fault plan"));
  return PlanFromJson(root);
}

Status FaultPlan::ApplyOverride(const std::string& key,
                                const std::string& value) {
  const size_t dot = key.find('.');
  if (dot == std::string::npos) {
    return SetField(kPlanFields, "fault plan", key, FieldValue(value), this);
  }
  const std::string target = key.substr(0, dot);
  const std::string field = key.substr(dot + 1);
  if (target == "retry") {
    return SetField(kRetryFields, "retry", field, FieldValue(value), &retry);
  }
  for (FaultSpec& spec : faults) {
    if (spec.name == target) {
      return SetField(kSpecFields, "fault", field, FieldValue(value), &spec);
    }
  }
  // Numeric index addressing ("0.at_s").
  size_t index = 0;
  if (ParseNumber(target, &index).ok() && index < faults.size()) {
    return SetField(kSpecFields, "fault", field, FieldValue(value),
                    &faults[index]);
  }
  return Status::NotFound("no fault named \"" + target + "\" in plan");
}

}  // namespace crayfish::fault
