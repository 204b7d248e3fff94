#include "fault/injector.h"

#include <string>
#include <utility>

#include "common/logging.h"
#include "obs/timeline.h"

namespace crayfish::fault {

FaultInjector::FaultInjector(sim::Simulation* sim, sim::Network* network,
                             broker::KafkaCluster* cluster,
                             RecoveryTracker* tracker, const FaultPlan* plan)
    : sim_(sim), network_(network), cluster_(cluster), tracker_(tracker),
      plan_(plan) {
  CRAYFISH_CHECK(sim_ != nullptr);
  CRAYFISH_CHECK(network_ != nullptr);
  CRAYFISH_CHECK(cluster_ != nullptr);
  CRAYFISH_CHECK(tracker_ != nullptr);
  CRAYFISH_CHECK(plan_ != nullptr);
}

Status FaultInjector::Arm(double until_s) {
  if (armed_) return Status::FailedPrecondition("injector already armed");
  CRAYFISH_RETURN_IF_ERROR(plan_->Validate());
  for (const FaultSpec& spec : plan_->faults) {
    if (spec.at_s >= until_s) {
      return Status::InvalidArgument(
          spec.name + ": at_s " + std::to_string(spec.at_s) +
          " is not before the end of the run (" + std::to_string(until_s) +
          " s), so the fault would never fire");
    }
    switch (spec.kind) {
      case FaultKind::kServingSlowdown:
        if (!hooks_.serving_slowdown) {
          return Status::FailedPrecondition(
              spec.name + ": no serving_slowdown hook (external serving "
                          "not in this topology?)");
        }
        break;
      case FaultKind::kServingDown:
        if (!hooks_.serving_down) {
          return Status::FailedPrecondition(spec.name +
                                            ": no serving_down hook");
        }
        break;
      case FaultKind::kWorkerResize:
        if (!hooks_.serving_worker_delta) {
          return Status::FailedPrecondition(
              spec.name + ": no serving_worker_delta hook");
        }
        break;
      case FaultKind::kTaskRestart: {
        if (!hooks_.task_failure) {
          return Status::FailedPrecondition(spec.name +
                                            ": no task_failure hook");
        }
        if (spec.task_index >= hooks_.task_count) {
          return Status::InvalidArgument(
              spec.name + ": task " + std::to_string(spec.task_index) +
              " does not exist (engine has " +
              std::to_string(hooks_.task_count) + " restartable tasks)");
        }
        break;
      }
      case FaultKind::kBrokerCrash:
        if (static_cast<size_t>(spec.broker) >=
            cluster_->broker_hosts().size()) {
          return Status::InvalidArgument(
              spec.name + ": broker " + std::to_string(spec.broker) +
              " does not exist (cluster has " +
              std::to_string(cluster_->broker_hosts().size()) + ")");
        }
        break;
      case FaultKind::kLinkDegrade:
        // "" is the wildcard; any other name must be a host on the network.
        for (const std::string* host : {&spec.from, &spec.to}) {
          if (!host->empty() && !network_->HasHost(*host)) {
            return Status::InvalidArgument(
                spec.name + ": host '" + *host +
                "' is not on the network (\"\" matches every host)");
          }
        }
        break;
    }
  }
  armed_ = true;
  for (const FaultSpec& spec : plan_->faults) {
    sim_->ScheduleAt(spec.at_s, [this, &spec]() { Inject(spec); });
    // kTaskRestart windows end when the task is back, not at until_s.
    if (spec.kind == FaultKind::kTaskRestart) {
      sim_->ScheduleAt(spec.at_s + spec.restart_delay_s,
                       [this, &spec]() { Repair(spec); });
    } else if (spec.until_s >= 0.0) {
      sim_->ScheduleAt(spec.until_s, [this, &spec]() { Repair(spec); });
    }
  }
  return Status::Ok();
}

void FaultInjector::Inject(const FaultSpec& spec) {
  CRAYFISH_LOG(Info) << "fault inject " << FaultKindName(spec.kind) << " \""
                     << spec.name << "\" at t=" << sim_->Now();
  tracker_->BeginFault(spec, sim_->Now());
  if (obs::TimelineSampler* tl = sim_->timeline()) {
    tl->BeginFault(spec.name, sim_->Now());
    tl->Annotate(sim_->Now(), "fault-inject:" + spec.name);
  }
  switch (spec.kind) {
    case FaultKind::kBrokerCrash:
      cluster_->CrashBroker(spec.broker);
      break;
    case FaultKind::kLinkDegrade: {
      sim::LinkDegradation deg;
      deg.latency_mult = spec.latency_mult;
      deg.bandwidth_mult = spec.bandwidth_mult;
      deg.drop = spec.drop;
      network_->SetDegradation(spec.from, spec.to, deg);
      break;
    }
    case FaultKind::kServingSlowdown:
      hooks_.serving_slowdown(spec.factor);
      break;
    case FaultKind::kServingDown:
      hooks_.serving_down(true);
      break;
    case FaultKind::kWorkerResize:
      hooks_.serving_worker_delta(spec.workers_delta);
      break;
    case FaultKind::kTaskRestart:
      hooks_.task_failure(spec.task_index, spec.restart_delay_s);
      break;
  }
}

void FaultInjector::Repair(const FaultSpec& spec) {
  CRAYFISH_LOG(Info) << "fault repair " << FaultKindName(spec.kind) << " \""
                     << spec.name << "\" at t=" << sim_->Now();
  switch (spec.kind) {
    case FaultKind::kBrokerCrash:
      cluster_->RestartBroker(spec.broker);
      break;
    case FaultKind::kLinkDegrade:
      network_->SetDegradation(spec.from, spec.to, sim::LinkDegradation{});
      break;
    case FaultKind::kServingSlowdown:
      hooks_.serving_slowdown(1.0);
      break;
    case FaultKind::kServingDown:
      hooks_.serving_down(false);
      break;
    case FaultKind::kWorkerResize:
      hooks_.serving_worker_delta(-spec.workers_delta);
      break;
    case FaultKind::kTaskRestart:
      // The restart itself is the repair; nothing to undo.
      break;
  }
  tracker_->EndFault(spec.name, sim_->Now());
  if (obs::TimelineSampler* tl = sim_->timeline()) {
    tl->EndFault(spec.name, sim_->Now());
    tl->Annotate(sim_->Now(), "fault-repair:" + spec.name);
  }
}

}  // namespace crayfish::fault
