#include "sps/operator_task.h"

#include "common/logging.h"
#include "obs/registry.h"
#include "obs/timeline.h"

namespace crayfish::sps {

OperatorTask::OperatorTask(sim::Simulation* sim, std::string name,
                           ProcessFn process, size_t max_queue)
    : sim_(sim), name_(std::move(name)), process_(std::move(process)),
      max_queue_(max_queue) {
  CRAYFISH_CHECK_GT(max_queue, 0u);
}

bool OperatorTask::Offer(broker::Record record) {
  if (stopped_) return true;  // swallow records after stop
  if (queue_.size() >= max_queue_) {
    if (!was_full_) {
      stall_started_at_ = sim_->Now();
      if (obs::TimelineSampler* tl = sim_->timeline()) {
        tl->Count("backpressure_events", stall_started_at_);
      }
    }
    was_full_ = true;
    return false;
  }
  if (obs::MetricsRegistry* reg = sim_->metrics()) {
    if (!depth_hist_) {
      depth_hist_ =
          reg->Histogram("operator_queue_depth", {{"operator", name_}});
    }
    depth_hist_->Observe(static_cast<double>(queue_.size()));
  }
  queue_.push_back(std::move(record));
  if (!busy_) StartNext();
  return true;
}

bool OperatorTask::HasCapacity() const {
  return stopped_ || queue_.size() < max_queue_;
}

void OperatorTask::StartNext() {
  if (stopped_ || queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  broker::Record record = std::move(queue_.front());
  queue_.pop_front();
  if (was_full_ && queue_.size() < max_queue_) {
    was_full_ = false;
    const double stalled = sim_->Now() - stall_started_at_;
    stall_time_s_ += stalled;
    if (obs::TimelineSampler* tl = sim_->timeline()) {
      tl->Count("backpressure_stall_s", sim_->Now(), stalled);
    }
    if (space_available_) {
      // Defer to the next instant so the upstream resumes outside our
      // call stack.
      sim_->Schedule(0.0, space_available_);
    }
  }
  process_(std::move(record), [this]() {
    ++processed_;
    StartNext();
  });
}

void OperatorTask::Stop() {
  stopped_ = true;
  queue_.clear();
}

}  // namespace crayfish::sps
