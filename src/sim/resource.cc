#include "sim/resource.h"

#include <utility>

#include "common/logging.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace crayfish::sim {

ServerPool::ServerPool(Simulation* sim, std::string name, int servers)
    : sim_(sim), name_(std::move(name)), servers_(servers),
      created_at_(sim->Now()) {
  CRAYFISH_CHECK_GT(servers, 0);
}

void ServerPool::Submit(SimTime service_time,
                        std::function<void(SimTime)> on_done) {
  Job job{sim_->Now(), service_time, std::move(on_done)};
  if (busy_ < servers_) {
    StartJob(std::move(job));
  } else {
    queue_.push_back(std::move(job));
  }
}

void ServerPool::Resize(int servers) {
  CRAYFISH_CHECK_GT(servers, 0);
  if (servers < servers_ && servers <= target_servers() && !queue_.empty()) {
    pending_target_ = servers;
    return;
  }
  pending_target_.reset();
  servers_ = servers;
  while (busy_ < servers_ && !queue_.empty()) {
    Job job = std::move(queue_.front());
    queue_.pop_front();
    StartJob(std::move(job));
  }
}

void ServerPool::StartJob(Job job) {
  ++busy_;
  const SimTime wait = sim_->Now() - job.enqueue_time;
  wait_stats_.Add(wait);
  busy_time_ += job.service_time;
  if (obs::MetricsRegistry* reg = sim_->metrics()) {
    if (!wait_hist_) {
      wait_hist_ = reg->Histogram("pool_queue_wait_s", {{"pool", name_}});
      depth_hist_ = reg->Histogram("pool_queue_depth", {{"pool", name_}});
    }
    wait_hist_->Observe(wait);
    depth_hist_->Observe(static_cast<double>(queue_.size()));
  }
  if (obs::TraceRecorder* tracer = sim_->tracer()) {
    if (tracer != traced_by_) {
      traced_by_ = tracer;
      track_id_ = tracer->Intern(name_);
      wait_id_ = tracer->Intern("wait");
      serve_id_ = tracer->Intern("serve");
    }
    if (wait > 0.0) {
      tracer->AddTrackSpan(track_id_, wait_id_, job.enqueue_time,
                           sim_->Now());
    }
    tracer->AddTrackSpan(track_id_, serve_id_, sim_->Now(),
                         sim_->Now() + job.service_time);
  }
  auto done = std::move(job.on_done);
  sim_->Schedule(job.service_time, [this, done = std::move(done), wait]() {
    OnJobDone();
    if (done) done(wait);
  });
}

void ServerPool::OnJobDone() {
  --busy_;
  ++completed_;
  if (busy_ < servers_ && !queue_.empty()) {
    Job job = std::move(queue_.front());
    queue_.pop_front();
    StartJob(std::move(job));
  }
  if (pending_target_.has_value() && queue_.empty()) {
    // Backlog drained: the deferred shrink lands now; jobs still running
    // on the retired servers finish normally.
    servers_ = *pending_target_;
    pending_target_.reset();
  }
}

double ServerPool::Utilization() const {
  const double span = sim_->Now() - created_at_;
  if (span <= 0.0) return 0.0;
  return busy_time_ / (span * static_cast<double>(servers_));
}

UtilizationStats ServerPool::UtilizationReport() const {
  UtilizationStats out;
  out.span_s = sim_->Now() - created_at_;
  out.busy_ratio = Utilization();
  out.wait_count = wait_stats_.count();
  out.wait_mean_s = wait_stats_.mean();
  out.wait_max_s = wait_stats_.max();
  return out;
}

SerialExecutor::SerialExecutor(Simulation* sim, std::string name)
    : sim_(sim), name_(std::move(name)), created_at_(sim->Now()) {}

void SerialExecutor::Post(SimTime duration, std::function<void()> on_done) {
  CRAYFISH_CHECK_GE(duration, 0.0);
  if (obs::MetricsRegistry* reg = sim_->metrics()) {
    if (!depth_hist_) {
      depth_hist_ =
          reg->Histogram("executor_queue_depth", {{"executor", name_}});
    }
    depth_hist_->Observe(static_cast<double>(queue_.size()));
  }
  queue_.push_back(Item{duration, std::move(on_done), sim_->Now()});
  if (!busy_) StartNext();
}

void SerialExecutor::StartNext() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  Item item = std::move(queue_.front());
  queue_.pop_front();
  wait_stats_.Add(sim_->Now() - item.enqueue_time);
  busy_time_ += item.duration;
  if (obs::TraceRecorder* tracer = sim_->tracer()) {
    if (tracer != traced_by_) {
      traced_by_ = tracer;
      track_id_ = tracer->Intern(name_);
      run_id_ = tracer->Intern("run");
    }
    tracer->AddTrackSpan(track_id_, run_id_, sim_->Now(),
                         sim_->Now() + item.duration);
  }
  sim_->Schedule(item.duration, [this, on_done = std::move(item.on_done)]() {
    ++completed_;
    if (on_done) on_done();
    StartNext();
  });
}

UtilizationStats SerialExecutor::UtilizationReport() const {
  UtilizationStats out;
  out.span_s = sim_->Now() - created_at_;
  if (out.span_s > 0.0) out.busy_ratio = busy_time_ / out.span_s;
  out.wait_count = wait_stats_.count();
  out.wait_mean_s = wait_stats_.mean();
  out.wait_max_s = wait_stats_.max();
  return out;
}

}  // namespace crayfish::sim
