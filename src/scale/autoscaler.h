#ifndef CRAYFISH_SCALE_AUTOSCALER_H_
#define CRAYFISH_SCALE_AUTOSCALER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "scale/policy.h"
#include "sim/simulation.h"

namespace crayfish::scale {

/// Resize plumbing the actuator drives: the same serving-pool resize the
/// `worker_resize` fault kind uses, handed in as closures so scale stays
/// below core in the layering DAG.
struct ActuatorHooks {
  /// Current serving replica count.
  std::function<int()> current_replicas;
  /// Resize the serving pool to an absolute replica count. Shrinks must
  /// drain queued work (ServerPool::Resize) — the autoscaler asserts zero
  /// losses across scale-in.
  std::function<void(int)> set_replicas;
};

/// One applied resize, for the run report.
struct ScalingAction {
  double t_s = 0.0;
  int from = 0;
  int to = 0;
  std::string reason;
};

/// Run-level roll-up surfaced in `core::ExperimentResult`.
struct AutoscaleSummary {
  uint64_t ticks = 0;
  uint64_t scale_ups = 0;
  uint64_t scale_downs = 0;
  int peak_replicas = 0;
  int final_replicas = 0;
  std::vector<ScalingAction> actions;
};

/// Applies resize decisions through the hooks and reports them: timeline
/// annotations ("autoscale-up:<name>:<target> (<reason>)" /
/// "autoscale-down:<name>:<target> (<reason>)"), the `autoscale_events`
/// window counter, and `autoscale_*` registry metrics.
class Actuator {
 public:
  Actuator(sim::Simulation* sim, std::string name, ActuatorHooks hooks);

  /// Resizes to `target` (no-op when target equals the current count).
  /// Returns the applied delta (target - previous).
  int Apply(double now_s, int target, const std::string& reason);

  int current() const { return hooks_.current_replicas(); }
  const std::vector<ScalingAction>& actions() const { return actions_; }
  uint64_t scale_ups() const { return scale_ups_; }
  uint64_t scale_downs() const { return scale_downs_; }
  int peak_replicas() const { return peak_; }

 private:
  sim::Simulation* sim_;
  std::string name_;
  ActuatorHooks hooks_;
  std::vector<ScalingAction> actions_;
  uint64_t scale_ups_ = 0;
  uint64_t scale_downs_ = 0;
  int peak_ = 0;
};

/// DES-scheduled elastic control loop.
///
/// Arm() pre-schedules every evaluation tick on the event queue (the
/// fault-injector pattern); decisions are pure functions of the sampled
/// state, so the whole run is byte-for-byte reproducible (DESIGN.md §4.6).
///
/// Each tick: pull a PolicyInput from the sampler closure (broker lag /
/// serving utilization gauges), evaluate the policy, clamp to
/// [min_replicas, max_replicas] and the per-tick step, enforce the
/// post-resize cooldown, require `scale_in_hysteresis` consecutive
/// shrink votes, then actuate.
class Autoscaler {
 public:
  /// `sampler` is called at each tick and must fill every PolicyInput field
  /// except current_replicas.
  Autoscaler(sim::Simulation* sim, const PolicyConfig& config,
             Actuator* actuator, std::function<PolicyInput(double)> sampler);

  /// Validates the config/policy and pre-schedules ticks at
  /// k * interval_s for k = 1.. while k * interval_s <= until_s.
  Status Arm(double until_s);

  AutoscaleSummary Summary() const;
  const PolicyConfig& config() const { return config_; }

 private:
  void Tick(double now_s);

  sim::Simulation* sim_;
  PolicyConfig config_;
  Actuator* actuator_;
  std::function<PolicyInput(double)> sampler_;
  std::unique_ptr<ScalingPolicy> policy_;
  uint64_t ticks_ = 0;
  double last_resize_s_;
  int shrink_votes_ = 0;
};

}  // namespace crayfish::scale

#endif  // CRAYFISH_SCALE_AUTOSCALER_H_
