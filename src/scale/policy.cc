#include "scale/policy.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/fields.h"

namespace crayfish::scale {

Status PolicyConfig::Validate() const {
  if (kind != "reactive" && kind != "predictive") {
    return Status::InvalidArgument("unknown autoscaler policy: \"" + kind +
                                   "\" (want reactive | predictive)");
  }
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
  if (kind == "predictive") {
    if (hw_alpha <= 0.0 || hw_alpha > 1.0 || hw_beta <= 0.0 || hw_beta > 1.0) {
      return Status::InvalidArgument(
          "autoscaler hw_alpha/hw_beta must be in (0, 1]");
    }
    if (horizon_s < 0.0) {
      return Status::InvalidArgument("autoscaler horizon_s must be >= 0");
    }
    if (rate_per_replica <= 0.0) {
      return Status::InvalidArgument(
          "predictive autoscaler needs rate_per_replica > 0");
    }
    if (target_utilization <= 0.0 || target_utilization > 1.0) {
      return Status::InvalidArgument(
          "autoscaler target_utilization must be in (0, 1]");
    }
  }
  return Status::Ok();
}

namespace {

constexpr Field<PolicyConfig> kPolicyFields[] = {
    {"kind", &PolicyConfig::kind},
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
    {"hw_alpha", &PolicyConfig::hw_alpha},
    {"hw_beta", &PolicyConfig::hw_beta},
    {"horizon_s", &PolicyConfig::horizon_s},
    {"rate_per_replica", &PolicyConfig::rate_per_replica},
    {"target_utilization", &PolicyConfig::target_utilization},
    {"seed", &PolicyConfig::seed},
};

}  // namespace

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

PolicyDecision ReactivePolicy::Evaluate(const PolicyInput& in) {
  PolicyDecision d;
  d.target = in.current_replicas;
  const bool lag_high = in.total_lag >= config_.scale_up_lag;
  const bool util_high = in.utilization >= config_.scale_up_utilization;
  const bool lag_low = in.total_lag <= config_.scale_down_lag;
  const bool util_low = in.utilization <= config_.scale_down_utilization;
  if (lag_high || util_high) {
    d.target = in.current_replicas + config_.step;
    std::ostringstream reason;
    reason << (lag_high ? "lag" : "util") << "-high lag="
           << static_cast<long long>(in.total_lag) << " util="
           << static_cast<int>(in.utilization * 100.0) << "%";
    d.reason = reason.str();
  } else if (lag_low && util_low) {
    d.target = in.current_replicas - config_.step;
    std::ostringstream reason;
    reason << "idle lag=" << static_cast<long long>(in.total_lag) << " util="
           << static_cast<int>(in.utilization * 100.0) << "%";
    d.reason = reason.str();
  } else {
    d.reason = "steady";
  }
  return d;
}

PolicyDecision PredictivePolicy::Evaluate(const PolicyInput& in) {
  // Holt's linear trend on the observed arrival rate. The recurrence is a
  // pure function of the sample sequence, so it is deterministic as long
  // as the samples are.
  if (!primed_) {
    level_ = in.arrival_rate_eps;
    trend_ = 0.0;
    primed_ = true;
  } else {
    const double prev_level = level_;
    level_ = config_.hw_alpha * in.arrival_rate_eps +
             (1.0 - config_.hw_alpha) * (level_ + trend_);
    trend_ = config_.hw_beta * (level_ - prev_level) +
             (1.0 - config_.hw_beta) * trend_;
  }
  const double steps = config_.interval_s > 0.0
                           ? config_.horizon_s / config_.interval_s
                           : 0.0;
  double forecast = level_ + trend_ * steps;
  // Scale-in guard: the trend lead is for provisioning ahead of growth, not
  // for extrapolating a decline below what is arriving right now. Without
  // the floor a downswing forecast runs to zero and digs the pool into the
  // next ramp.
  forecast = std::max(forecast, in.arrival_rate_eps);
  // Fold the current backlog in: it must drain within the horizon on top
  // of keeping up with the forecast arrivals.
  if (config_.horizon_s > 0.0) {
    forecast += in.total_lag / config_.horizon_s;
  }
  forecast = std::max(forecast, 0.0);

  const double capacity_per_replica =
      config_.rate_per_replica * config_.target_utilization;
  PolicyDecision d;
  d.target = static_cast<int>(std::ceil(forecast / capacity_per_replica));
  d.target = std::max(d.target, 1);
  std::ostringstream reason;
  reason << "forecast=" << static_cast<long long>(forecast)
         << "eps level=" << static_cast<long long>(level_)
         << " trend=" << static_cast<long long>(trend_);
  d.reason = reason.str();
  return d;
}

StatusOr<std::unique_ptr<ScalingPolicy>> CreatePolicy(
    const PolicyConfig& config) {
  CRAYFISH_RETURN_IF_ERROR(config.Validate());
  if (config.kind == "reactive") {
    return std::unique_ptr<ScalingPolicy>(new ReactivePolicy(config));
  }
  return std::unique_ptr<ScalingPolicy>(new PredictivePolicy(config));
}

}  // namespace crayfish::scale
