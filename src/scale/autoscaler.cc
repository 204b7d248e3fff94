#include "scale/autoscaler.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "obs/registry.h"
#include "obs/timeline.h"

namespace crayfish::scale {

Actuator::Actuator(sim::Simulation* sim, std::string name,
                   ActuatorHooks hooks)
    : sim_(sim), name_(std::move(name)), hooks_(std::move(hooks)) {
  CRAYFISH_CHECK(hooks_.current_replicas != nullptr)
      << "Actuator needs a current_replicas hook";
  CRAYFISH_CHECK(hooks_.set_replicas != nullptr)
      << "Actuator needs a set_replicas hook";
  peak_ = hooks_.current_replicas();
}

int Actuator::Apply(double now_s, int target, const std::string& reason) {
  const int current = hooks_.current_replicas();
  const int delta = target - current;
  if (delta == 0) return 0;
  hooks_.set_replicas(target);
  peak_ = std::max(peak_, target);
  if (delta > 0) {
    ++scale_ups_;
  } else {
    ++scale_downs_;
  }
  actions_.push_back(ScalingAction{now_s, current, target, reason});
  if (obs::TimelineSampler* tl = sim_->timeline()) {
    const char* dir = delta > 0 ? "autoscale-up:" : "autoscale-down:";
    tl->Annotate(now_s, dir + name_ + ":" + std::to_string(target) + " (" +
                            reason + ")");
    tl->Count("autoscale_events", now_s);
  }
  if (obs::MetricsRegistry* m = sim_->metrics()) {
    const obs::MetricLabels labels = {{"pool", name_}};
    m->Counter(delta > 0 ? "autoscale_up_total" : "autoscale_down_total",
               labels)
        ->Increment();
    m->Gauge("autoscale_replicas", labels)->Set(target);
    m->Histogram("autoscale_step", labels)
        ->Observe(static_cast<double>(delta > 0 ? delta : -delta));
  }
  return delta;
}

Autoscaler::Autoscaler(sim::Simulation* sim, const PolicyConfig& config,
                       Actuator* actuator,
                       std::function<PolicyInput(double)> sampler)
    : sim_(sim),
      config_(config),
      actuator_(actuator),
      sampler_(std::move(sampler)),
      // A resize at t=0 (initial sizing) should not trip the cooldown gate
      // on the first tick.
      last_resize_s_(-config.cooldown_s - 1.0) {}

Status Autoscaler::Arm(double until_s) {
  CRAYFISH_RETURN_IF_ERROR(config_.Validate());
  CRAYFISH_ASSIGN_OR_RETURN(policy_, CreatePolicy(config_));
  CRAYFISH_CHECK(sampler_ != nullptr) << "Autoscaler needs a sampler";
  // Pre-schedule every tick up front (the FaultInjector::Arm pattern).
  for (double t = config_.interval_s; t <= until_s; t += config_.interval_s) {
    sim_->ScheduleAt(t, [this, t]() { Tick(t); });
  }
  return Status::Ok();
}

void Autoscaler::Tick(double now_s) {
  ++ticks_;
  PolicyInput in = sampler_(now_s);
  in.now_s = now_s;
  in.current_replicas = actuator_->current();
  PolicyDecision d = policy_->Evaluate(in);

  // Guard rails, in order: per-tick step clamp, bounds, cooldown, then
  // scale-in hysteresis (consecutive shrink votes survive the clamps but
  // reset on any non-shrink decision).
  int target = std::clamp(d.target, in.current_replicas - config_.step,
                          in.current_replicas + config_.step);
  target = std::clamp(target, config_.min_replicas, config_.max_replicas);

  if (target == in.current_replicas) {
    shrink_votes_ = 0;
    return;
  }
  if (now_s - last_resize_s_ < config_.cooldown_s) {
    // Cooling down: suppress the resize but keep counting shrink intent.
    if (target < in.current_replicas) ++shrink_votes_;
    return;
  }
  if (target < in.current_replicas) {
    ++shrink_votes_;
    if (shrink_votes_ < config_.scale_in_hysteresis) return;
  }
  shrink_votes_ = 0;
  if (actuator_->Apply(now_s, target, d.reason) != 0) {
    last_resize_s_ = now_s;
  }
}

AutoscaleSummary Autoscaler::Summary() const {
  AutoscaleSummary s;
  s.ticks = ticks_;
  s.scale_ups = actuator_->scale_ups();
  s.scale_downs = actuator_->scale_downs();
  s.peak_replicas = actuator_->peak_replicas();
  s.final_replicas = actuator_->current();
  s.actions = actuator_->actions();
  return s;
}

}  // namespace crayfish::scale
