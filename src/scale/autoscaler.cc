#include "scale/autoscaler.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "obs/registry.h"
#include "obs/timeline.h"

namespace crayfish::scale {

Autoscaler::Autoscaler(sim::Simulation* sim, std::string name,
                       const PolicyConfig& config, ResizeHooks hooks,
                       std::function<PolicyInput(double)> sampler)
    : sim_(sim),
      name_(std::move(name)),
      config_(config),
      hooks_(std::move(hooks)),
      sampler_(std::move(sampler)),
      // A resize at t=0 (initial sizing) should not trip the cooldown gate
      // on the first tick.
      last_resize_s_(-config.cooldown_s - 1.0) {
  CRAYFISH_CHECK(hooks_.current_replicas != nullptr)
      << "Autoscaler needs a current_replicas hook";
  CRAYFISH_CHECK(hooks_.set_replicas != nullptr)
      << "Autoscaler needs a set_replicas hook";
  summary_.peak_replicas = hooks_.current_replicas();
}

Status Autoscaler::Arm(double until_s) {
  CRAYFISH_RETURN_IF_ERROR(config_.Validate());
  CRAYFISH_CHECK(sampler_ != nullptr) << "Autoscaler needs a sampler";
  // Pre-schedule every tick up front (the FaultInjector::Arm pattern).
  for (double t = config_.interval_s; t <= until_s; t += config_.interval_s) {
    sim_->ScheduleAt(t, [this, t]() { Tick(t); });
  }
  return Status::Ok();
}

void Autoscaler::Tick(double now_s) {
  ++summary_.ticks;
  const PolicyInput in = sampler_(now_s);
  const int current = hooks_.current_replicas();
  const bool lag_high = in.total_lag >= config_.scale_up_lag;
  const bool up =
      lag_high || in.utilization >= config_.scale_up_utilization;
  const bool down = !up && in.total_lag <= config_.scale_down_lag &&
                    in.utilization <= config_.scale_down_utilization;
  const int vote =
      up ? current + config_.step : down ? current - config_.step : current;

  // Guard rails, in order: bounds, cooldown, then scale-in hysteresis
  // (consecutive shrink votes survive the bounds but reset on any
  // non-shrink decision).
  const int target =
      std::clamp(vote, config_.min_replicas, config_.max_replicas);
  if (target == current) {
    shrink_votes_ = 0;
    return;
  }
  if (now_s - last_resize_s_ < config_.cooldown_s) {
    // Cooling down: suppress the resize but keep counting shrink intent.
    if (target < current) ++shrink_votes_;
    return;
  }
  if (target < current) {
    ++shrink_votes_;
    if (shrink_votes_ < config_.scale_in_hysteresis) return;
  }
  shrink_votes_ = 0;

  // The reason names the vote, which the bounds may have overridden.
  std::string reason = "steady";
  if (up || down) {
    std::ostringstream os;
    os << (up ? (lag_high ? "lag-high" : "util-high") : "idle")
       << " lag=" << static_cast<long long>(in.total_lag)
       << " util=" << static_cast<int>(in.utilization * 100.0) << "%";
    reason = os.str();
  }
  Resize(now_s, current, target, reason);
  last_resize_s_ = now_s;
}

void Autoscaler::Resize(double now_s, int from, int to,
                        const std::string& reason) {
  hooks_.set_replicas(to);
  summary_.peak_replicas = std::max(summary_.peak_replicas, to);
  if (to > from) {
    ++summary_.scale_ups;
  } else {
    ++summary_.scale_downs;
  }
  summary_.actions.push_back(ScalingAction{now_s, from, to, reason});
  if (obs::TimelineSampler* tl = sim_->timeline()) {
    const char* dir = to > from ? "autoscale-up:" : "autoscale-down:";
    tl->Annotate(now_s, dir + name_ + ":" + std::to_string(to) + " (" +
                            reason + ")");
    tl->Count("autoscale_events", now_s);
  }
  if (obs::MetricsRegistry* m = sim_->metrics()) {
    const obs::MetricLabels labels = {{"pool", name_}};
    m->Counter(to > from ? "autoscale_up_total" : "autoscale_down_total",
               labels)
        ->Increment();
    m->Gauge("autoscale_replicas", labels)->Set(to);
    m->Histogram("autoscale_step", labels)
        ->Observe(static_cast<double>(to > from ? to - from : from - to));
  }
}

AutoscaleSummary Autoscaler::Summary() const {
  AutoscaleSummary s = summary_;
  s.final_replicas = hooks_.current_replicas();
  return s;
}

}  // namespace crayfish::scale
