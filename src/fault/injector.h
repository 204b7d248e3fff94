#ifndef CRAYFISH_FAULT_INJECTOR_H_
#define CRAYFISH_FAULT_INJECTOR_H_

#include <functional>

#include "broker/cluster.h"
#include "fault/plan.h"
#include "fault/recovery.h"
#include "sim/network.h"
#include "sim/simulation.h"

namespace crayfish::fault {

/// Callbacks into the layers the injector cannot include directly
/// (serving and sps sit above fault in the module DAG); the experiment
/// runner wires them to the concrete server/engine instances.
struct FaultHooks {
  /// Multiplies the external server's compute time (1.0 = nominal).
  std::function<void(double)> serving_slowdown;
  /// Adds `delta` workers to the external server (clamped to >= 1).
  std::function<void(int)> serving_worker_delta;
  /// Drops every request while down.
  std::function<void(bool)> serving_down;
  /// Crash-restarts one operator task; returns the number of tasks hit.
  std::function<int(int task_index, double restart_delay_s)> task_failure;
  /// Number of operator tasks task_failure can restart (indices 0..n-1).
  int task_count = 0;
};

/// Turns a validated FaultPlan into DES events against the live topology.
///
/// Arm() schedules one inject event per fault (and one repair event when
/// the spec has an end), all on the simulation clock before the run
/// starts — injection consumes no randomness, so a faulted run stays
/// byte-for-byte reproducible for a fixed seed and plan.
class FaultInjector {
 public:
  FaultInjector(sim::Simulation* sim, sim::Network* network,
                broker::KafkaCluster* cluster, RecoveryTracker* tracker,
                const FaultPlan* plan);

  void set_hooks(FaultHooks hooks) { hooks_ = std::move(hooks); }

  /// Validates the plan against the wired hooks and schedules every
  /// inject/repair event. Call once, before Simulation::Run.
  Status Arm();

 private:
  void Inject(const FaultSpec& spec);
  void Repair(const FaultSpec& spec);

  sim::Simulation* sim_;
  sim::Network* network_;
  broker::KafkaCluster* cluster_;
  RecoveryTracker* tracker_;
  const FaultPlan* plan_;
  FaultHooks hooks_;
  bool armed_ = false;
};

}  // namespace crayfish::fault

#endif  // CRAYFISH_FAULT_INJECTOR_H_
