#include "scale/policy.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/config.h"
#include "common/json.h"

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

StatusOr<PolicyConfig> PolicyConfig::FromJson(const JsonValue& v) {
  if (!v.is_object()) {
    return Status::InvalidArgument("autoscaler config must be a JSON object");
  }
  CRAYFISH_RETURN_IF_ERROR(RejectUnknownFields(
      v,
      {"kind", "interval_s", "min_replicas", "max_replicas", "step",
       "cooldown_s", "scale_in_hysteresis", "scale_up_lag",
       "scale_up_utilization", "scale_down_lag", "scale_down_utilization",
       "hw_alpha", "hw_beta", "horizon_s", "rate_per_replica",
       "target_utilization", "seed"},
      "autoscaler"));
  PolicyConfig c;
  c.enabled = true;
  c.kind = v.GetStringOr("kind", c.kind);
  c.interval_s = v.GetNumberOr("interval_s", c.interval_s);
  c.min_replicas = static_cast<int>(v.GetIntOr("min_replicas", c.min_replicas));
  c.max_replicas = static_cast<int>(v.GetIntOr("max_replicas", c.max_replicas));
  c.step = static_cast<int>(v.GetIntOr("step", c.step));
  c.cooldown_s = v.GetNumberOr("cooldown_s", c.cooldown_s);
  c.scale_in_hysteresis = static_cast<int>(
      v.GetIntOr("scale_in_hysteresis", c.scale_in_hysteresis));
  c.scale_up_lag = v.GetNumberOr("scale_up_lag", c.scale_up_lag);
  c.scale_up_utilization =
      v.GetNumberOr("scale_up_utilization", c.scale_up_utilization);
  c.scale_down_lag = v.GetNumberOr("scale_down_lag", c.scale_down_lag);
  c.scale_down_utilization =
      v.GetNumberOr("scale_down_utilization", c.scale_down_utilization);
  c.hw_alpha = v.GetNumberOr("hw_alpha", c.hw_alpha);
  c.hw_beta = v.GetNumberOr("hw_beta", c.hw_beta);
  c.horizon_s = v.GetNumberOr("horizon_s", c.horizon_s);
  c.rate_per_replica = v.GetNumberOr("rate_per_replica", c.rate_per_replica);
  c.target_utilization =
      v.GetNumberOr("target_utilization", c.target_utilization);
  c.seed = static_cast<uint64_t>(
      v.GetIntOr("seed", static_cast<int64_t>(c.seed)));
  CRAYFISH_RETURN_IF_ERROR(c.Validate());
  return c;
}

StatusOr<PolicyConfig> PolicyConfig::FromJsonText(const std::string& text) {
  CRAYFISH_ASSIGN_OR_RETURN(JsonValue root, JsonValue::Parse(text));
  return FromJson(root);
}

StatusOr<PolicyConfig> PolicyConfig::FromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot read autoscaler config: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return FromJsonText(text.str());
}

Status PolicyConfig::ApplyOverride(const std::string& key,
                                   const std::string& value) {
  enabled = true;
  if (key == "kind") {
    kind = value;
    return Status::Ok();
  }
  if (key == "interval_s") return ParseNumber(value, &interval_s);
  if (key == "min_replicas") return ParseNumber(value, &min_replicas);
  if (key == "max_replicas") return ParseNumber(value, &max_replicas);
  if (key == "step") return ParseNumber(value, &step);
  if (key == "cooldown_s") return ParseNumber(value, &cooldown_s);
  if (key == "scale_in_hysteresis") {
    return ParseNumber(value, &scale_in_hysteresis);
  }
  if (key == "scale_up_lag") return ParseNumber(value, &scale_up_lag);
  if (key == "scale_up_utilization") {
    return ParseNumber(value, &scale_up_utilization);
  }
  if (key == "scale_down_lag") return ParseNumber(value, &scale_down_lag);
  if (key == "scale_down_utilization") {
    return ParseNumber(value, &scale_down_utilization);
  }
  if (key == "hw_alpha") return ParseNumber(value, &hw_alpha);
  if (key == "hw_beta") return ParseNumber(value, &hw_beta);
  if (key == "horizon_s") return ParseNumber(value, &horizon_s);
  if (key == "rate_per_replica") return ParseNumber(value, &rate_per_replica);
  if (key == "target_utilization") {
    return ParseNumber(value, &target_utilization);
  }
  if (key == "seed") return ParseNumber(value, &seed);
  return Status::InvalidArgument("unknown autoscaler key: " + key);
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
