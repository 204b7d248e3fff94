#ifndef CRAYFISH_SIM_RESOURCE_H_
#define CRAYFISH_SIM_RESOURCE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>

#include "common/stats.h"
#include "sim/simulation.h"

namespace crayfish::obs {
class HistogramMetric;
}  // namespace crayfish::obs

namespace crayfish::sim {

/// Busy-time ratio plus cumulative queue-wait statistics for a resource.
/// `busy_ratio` is 0 when no simulated time has elapsed since construction
/// (span <= 0), matching Utilization().
struct UtilizationStats {
  double busy_ratio = 0.0;
  double span_s = 0.0;
  size_t wait_count = 0;
  double wait_mean_s = 0.0;
  double wait_max_s = 0.0;
};

/// An M-server FIFO queueing station over simulated time.
///
/// Models a pool of `servers` identical workers (e.g. the worker processes
/// of an external serving service, or the task slots of an executor). Jobs
/// are submitted with a service duration; when all servers are busy they
/// wait in FIFO order. Completion callbacks fire at the simulated instant
/// the job finishes.
class ServerPool {
 public:
  ServerPool(Simulation* sim, std::string name, int servers);

  /// Enqueues a job taking `service_time` seconds of one server's time.
  /// `on_done(wait_time)` fires at completion with the time the job spent
  /// queued (not serving).
  void Submit(SimTime service_time, std::function<void(SimTime)> on_done);

  /// Changes the number of servers. Growing dispatches queued jobs
  /// immediately; shrinking takes effect as running jobs finish.
  void Resize(int servers);

  /// Like Resize, but a shrink drains first: queued jobs keep dispatching
  /// at the current width and the lower target applies once the backlog
  /// empties (running jobs always finish either way). A grow cancels any
  /// pending shrink and applies immediately. Autoscaler scale-in uses this
  /// so removing workers can never strand queued work.
  void ResizeGraceful(int servers);

  int servers() const { return servers_; }
  /// Drain-pending shrink target, or servers() when none is pending. This
  /// is the width the pool is converging to — what the autoscaler reads as
  /// the current replica count so in-flight drains are not re-requested.
  int target_servers() const {
    return pending_target_.has_value() ? *pending_target_ : servers_;
  }
  int busy() const { return busy_; }
  size_t queue_depth() const { return queue_.size(); }
  uint64_t completed() const { return completed_; }
  /// Cumulative server-busy seconds (monotone; jobs charge their service
  /// time at completion). The telemetry timeline differences this across
  /// window boundaries for per-window utilization.
  double busy_seconds() const { return busy_time_; }

  /// Fraction of server-time spent busy since construction.
  double Utilization() const;
  /// Utilization plus cumulative queue-wait statistics (count, mean, max).
  UtilizationStats UtilizationReport() const;
  const std::string& name() const { return name_; }

 private:
  struct Job {
    SimTime enqueue_time;
    SimTime service_time;
    std::function<void(SimTime)> on_done;
  };

  void StartJob(Job job);
  void OnJobDone();

  Simulation* sim_;
  std::string name_;
  int servers_;
  int busy_ = 0;
  /// Deferred shrink width from ResizeGraceful, applied when queue_ drains.
  std::optional<int> pending_target_;
  std::deque<Job> queue_;
  uint64_t completed_ = 0;
  double busy_time_ = 0.0;
  SimTime created_at_;
  crayfish::RunningStats wait_stats_;
  // Lazily resolved from sim_->metrics(); null when metrics are disabled.
  obs::HistogramMetric* wait_hist_ = nullptr;
  obs::HistogramMetric* depth_hist_ = nullptr;
};

/// A single logical execution thread: processes work items strictly one at
/// a time in submission order. Used for operator tasks (a Flink task, a
/// Kafka Streams stream thread, a Ray actor) whose defining property is
/// serial execution.
class SerialExecutor {
 public:
  SerialExecutor(Simulation* sim, std::string name);

  /// Appends a work item taking `duration` seconds; `on_done` fires at its
  /// simulated completion. Items run back to back.
  void Post(SimTime duration, std::function<void()> on_done);

  /// Like Post but the duration is computed when the item *starts*
  /// executing — needed when the cost depends on queue state at start time.
  void PostDeferred(std::function<SimTime()> duration_fn,
                    std::function<void()> on_done);

  size_t queue_depth() const { return queue_.size(); }
  bool busy() const { return busy_; }
  /// Total busy seconds accumulated.
  double busy_time() const { return busy_time_; }
  uint64_t completed() const { return completed_; }
  const std::string& name() const { return name_; }

  /// Busy-time ratio over the executor's lifetime plus item queue-wait
  /// statistics, mirroring ServerPool::UtilizationReport.
  UtilizationStats UtilizationReport() const;

 private:
  struct Item {
    std::function<SimTime()> duration_fn;
    std::function<void()> on_done;
    SimTime enqueue_time;
  };

  void StartNext();

  Simulation* sim_;
  std::string name_;
  bool busy_ = false;
  std::deque<Item> queue_;
  double busy_time_ = 0.0;
  uint64_t completed_ = 0;
  SimTime created_at_;
  crayfish::RunningStats wait_stats_;
  obs::HistogramMetric* depth_hist_ = nullptr;
};

}  // namespace crayfish::sim

#endif  // CRAYFISH_SIM_RESOURCE_H_
