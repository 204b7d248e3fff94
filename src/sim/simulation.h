#ifndef CRAYFISH_SIM_SIMULATION_H_
#define CRAYFISH_SIM_SIMULATION_H_

#include <cstdint>
#include <limits>

#include "common/rng.h"
#include "sim/event_queue.h"

namespace crayfish::obs {
class TraceRecorder;
class MetricsRegistry;
class TimelineSampler;
}  // namespace crayfish::obs

namespace crayfish::sim {

/// Discrete-event simulation kernel.
///
/// All Crayfish components (brokers, stream engines, serving servers,
/// producers, consumers) are driven by one Simulation instance. Only *time*
/// is simulated; the data structures the components maintain (logs, queues,
/// offsets, payloads) are real. Determinism: every event goes through one
/// EventQueue ordered by (time, seq), so with a fixed seed two runs produce
/// identical event interleavings. The kernel is serial by design
/// (DESIGN.md §4.5).
class Simulation {
 public:
  explicit Simulation(uint64_t seed = 42);

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time, seconds.
  SimTime Now() const { return now_; }

  /// Schedules `action` to run `delay` seconds from now. Negative delays
  /// clamp to zero (fire at the current instant, after pending same-time
  /// events). Accepts any void() callable; captures up to
  /// InlineAction::kInlineBytes are stored without allocating.
  void Schedule(SimTime delay, InlineAction action);

  /// Schedules `action` at an absolute time; times before Now() clamp to
  /// Now().
  void ScheduleAt(SimTime time, InlineAction action);

  /// Runs events until the queue empties or simulated time would exceed
  /// `until`. Returns the number of events executed.
  uint64_t Run(SimTime until = std::numeric_limits<SimTime>::infinity());

  /// Runs until the queue is empty (no time horizon).
  uint64_t RunUntilIdle() { return Run(); }

  /// Requests that Run() return after the current event completes.
  void Stop() { stop_requested_ = true; }
  bool stopped() const { return stop_requested_; }

  /// Per-experiment root RNG; components call ForkRng() to obtain private
  /// deterministic streams.
  Rng ForkRng() { return rng_.Fork(); }
  uint64_t seed() const { return seed_; }

  uint64_t events_executed() const { return events_executed_; }
  size_t pending_events() const { return queue_.size(); }

  /// Attaches observability collectors (either may be nullptr). The
  /// Simulation does not own them; the experiment driver keeps them alive
  /// for the run. Components check `tracer()`/`metrics()` for nullptr on
  /// every hook, so observability stays a single branch when disabled.
  void AttachObservability(obs::TraceRecorder* tracer,
                           obs::MetricsRegistry* metrics) {
    tracer_ = tracer;
    metrics_ = metrics;
  }
  obs::TraceRecorder* tracer() const { return tracer_; }
  obs::MetricsRegistry* metrics() const { return metrics_; }

  /// Attaches the telemetry timeline (may be nullptr). The Run loop drives
  /// the sampler's window clock passively — AdvanceTo before each event —
  /// so `events_executed()` and the event order are unchanged.
  void AttachTimeline(obs::TimelineSampler* timeline) {
    timeline_ = timeline;
  }
  obs::TimelineSampler* timeline() const { return timeline_; }

 private:
  uint64_t seed_;
  Rng rng_;
  SimTime now_ = 0.0;
  EventQueue queue_;
  bool stop_requested_ = false;
  uint64_t events_executed_ = 0;
  obs::TraceRecorder* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::TimelineSampler* timeline_ = nullptr;
};

/// Utility: converts milliseconds to the SimTime unit (seconds).
constexpr SimTime FromMillis(double ms) { return ms / 1000.0; }
/// Utility: converts a SimTime interval to milliseconds.
constexpr double ToMillis(SimTime t) { return t * 1000.0; }
/// Utility: converts microseconds to the SimTime unit (seconds).
constexpr SimTime FromMicros(double us) { return us / 1e6; }

}  // namespace crayfish::sim

#endif  // CRAYFISH_SIM_SIMULATION_H_
