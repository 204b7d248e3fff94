#ifndef CRAYFISH_SCALE_AUTOSCALER_H_
#define CRAYFISH_SCALE_AUTOSCALER_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "scale/policy.h"
#include "sim/simulation.h"

namespace crayfish::scale {

/// Resize plumbing the autoscaler drives: the serving pool's resize
/// (ExternalServingServer::SetWorkers), handed in as closures so scale
/// stays below core in the layering DAG.
struct ResizeHooks {
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

/// DES-scheduled reactive control loop.
///
/// Arm() pre-schedules every evaluation tick on the event queue (the
/// fault-injector pattern); decisions are pure functions of the sampled
/// state, so the whole run is byte-for-byte reproducible (DESIGN.md §4.6).
///
/// Each tick pulls a PolicyInput from the sampler closure (broker lag /
/// serving utilization gauges) and votes one `step` up when lag or
/// utilization crosses its high-water mark, one step down when both sit at
/// or below their low-water marks. The vote is clamped to [min_replicas,
/// max_replicas], suppressed during the post-resize cooldown, and a shrink
/// needs `scale_in_hysteresis` consecutive votes. Each applied resize is
/// reported as a timeline annotation ("autoscale-up:<name>:<target>
/// (<reason>)" / "autoscale-down:<name>:<target> (<reason>)"), the
/// `autoscale_events` window counter, and `autoscale_*` registry metrics.
class Autoscaler {
 public:
  /// `name` labels the annotations and metrics; `sampler` is called at
  /// each tick.
  Autoscaler(sim::Simulation* sim, std::string name,
             const PolicyConfig& config, ResizeHooks hooks,
             std::function<PolicyInput(double)> sampler);

  /// Validates the config and pre-schedules ticks at k * interval_s for
  /// k = 1.. while k * interval_s <= until_s.
  Status Arm(double until_s);

  AutoscaleSummary Summary() const;

 private:
  void Tick(double now_s);
  void Resize(double now_s, int from, int to, const std::string& reason);

  sim::Simulation* sim_;
  std::string name_;
  PolicyConfig config_;
  ResizeHooks hooks_;
  std::function<PolicyInput(double)> sampler_;
  /// Everything but final_replicas, which Summary() reads from the hooks.
  AutoscaleSummary summary_;
  double last_resize_s_;
  int shrink_votes_ = 0;
};

}  // namespace crayfish::scale

#endif  // CRAYFISH_SCALE_AUTOSCALER_H_
