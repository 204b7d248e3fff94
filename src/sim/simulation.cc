#include "sim/simulation.h"

#include "common/logging.h"
#include "obs/timeline.h"

namespace crayfish::sim {

Simulation::Simulation(uint64_t seed) : rng_(seed) {}

void Simulation::Schedule(SimTime delay, InlineAction action) {
  if (delay < 0.0) delay = 0.0;
  if (action.on_heap()) ++heap_actions_;
  queue_.Push(now_ + delay, std::move(action));
}

void Simulation::ScheduleAt(SimTime time, InlineAction action) {
  if (time < now_) time = now_;
  if (action.on_heap()) ++heap_actions_;
  queue_.Push(time, std::move(action));
}

uint64_t Simulation::Run(SimTime until) {
  // Log lines emitted by events carry the simulated timestamp; restore the
  // previous clock on every exit path.
  LogSimClock prev_clock =
      SetLogSimClock([this]() { return static_cast<double>(now_); });
  struct ClockRestorer {
    LogSimClock prev;
    ~ClockRestorer() { SetLogSimClock(std::move(prev)); }
  } restorer{std::move(prev_clock)};

  uint64_t executed = 0;
  stop_requested_ = false;
  while (!stop_requested_ && !queue_.empty() && queue_.next_time() <= until) {
    Event e = queue_.Pop();
    CRAYFISH_CHECK_GE(e.time, now_);
    now_ = e.time;
    // Close timeline windows whose boundary this event crosses *before*
    // executing it: probes observe the state as of the boundary, no
    // sampler events are scheduled, and the event interleaving is
    // untouched — enabling the timeline cannot perturb the run.
    if (timeline_ != nullptr) timeline_->AdvanceTo(e.time);
    if (e.action) e.action();
    ++executed;
    ++events_executed_;
  }
  if (!stop_requested_ && now_ < until &&
      until != std::numeric_limits<SimTime>::infinity()) {
    // Advance the clock to the horizon so repeated Run(until) calls observe
    // monotonically increasing time even when events remain beyond it.
    now_ = until;
  }
  return executed;
}

}  // namespace crayfish::sim
