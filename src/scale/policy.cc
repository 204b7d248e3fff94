#include "scale/policy.h"

#include "common/fields.h"

namespace crayfish::scale {

namespace {

Status CheckKind(const std::string& kind) {
  if (kind == "reactive") return Status::Ok();
  return Status::InvalidArgument("unknown autoscaler policy: \"" + kind +
                                 "\" (want reactive)");
}

constexpr Field<PolicyConfig> kPolicyFields[] = {
    {"kind",
     [](PolicyConfig* c, const FieldValue& v) -> Status {
       CRAYFISH_RETURN_IF_ERROR(v.To(&c->kind));
       return CheckKind(c->kind);
     }},
    {"interval_s", &PolicyConfig::interval_s},
    {"min_replicas", &PolicyConfig::min_replicas},
    {"max_replicas", &PolicyConfig::max_replicas},
    {"step", &PolicyConfig::step},
    {"cooldown_s", &PolicyConfig::cooldown_s},
    {"scale_in_hysteresis", &PolicyConfig::scale_in_hysteresis},
    {"scale_up_lag", &PolicyConfig::scale_up_lag},
    {"scale_up_utilization", &PolicyConfig::scale_up_utilization},
    {"scale_down_lag", &PolicyConfig::scale_down_lag},
    {"scale_down_utilization", &PolicyConfig::scale_down_utilization},
};

}  // namespace

Status PolicyConfig::Validate() const {
  CRAYFISH_RETURN_IF_ERROR(CheckKind(kind));
  if (interval_s <= 0.0) {
    return Status::InvalidArgument("autoscaler interval_s must be > 0");
  }
  if (min_replicas < 1) {
    return Status::InvalidArgument("autoscaler min_replicas must be >= 1");
  }
  if (max_replicas < min_replicas) {
    return Status::InvalidArgument(
        "autoscaler max_replicas must be >= min_replicas");
  }
  if (step < 1) {
    return Status::InvalidArgument("autoscaler step must be >= 1");
  }
  if (cooldown_s < 0.0) {
    return Status::InvalidArgument("autoscaler cooldown_s must be >= 0");
  }
  if (scale_in_hysteresis < 1) {
    return Status::InvalidArgument(
        "autoscaler scale_in_hysteresis must be >= 1");
  }
  if (scale_up_lag <= scale_down_lag) {
    return Status::InvalidArgument(
        "autoscaler scale_up_lag must exceed scale_down_lag");
  }
  if (scale_up_utilization <= scale_down_utilization) {
    return Status::InvalidArgument(
        "autoscaler scale_up_utilization must exceed scale_down_utilization");
  }
  return Status::Ok();
}

StatusOr<PolicyConfig> PolicyConfig::FromJson(const JsonValue& v) {
  PolicyConfig c;
  c.enabled = true;
  CRAYFISH_RETURN_IF_ERROR(
      SetFields<PolicyConfig>(kPolicyFields, "autoscaler", v, &c));
  CRAYFISH_RETURN_IF_ERROR(c.Validate());
  return c;
}

StatusOr<PolicyConfig> PolicyConfig::FromJsonText(const std::string& text) {
  CRAYFISH_ASSIGN_OR_RETURN(JsonValue root, JsonValue::Parse(text));
  return FromJson(root);
}

StatusOr<PolicyConfig> PolicyConfig::FromFile(const std::string& path) {
  CRAYFISH_ASSIGN_OR_RETURN(JsonValue root,
                            LoadJsonFile(path, "autoscaler config"));
  return FromJson(root);
}

Status PolicyConfig::ApplyOverride(const std::string& key,
                                   const std::string& value) {
  enabled = true;
  return SetField(kPolicyFields, "autoscaler", key, FieldValue(value), this);
}

}  // namespace crayfish::scale
