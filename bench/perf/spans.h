#ifndef CRAYFISH_BENCH_PERF_SPANS_H_
#define CRAYFISH_BENCH_PERF_SPANS_H_

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace crayfish::perf {

/// Host-time spans around the benchmark's calls into the simulator.
///
/// Every timed call in crayfish_perf is one span (name, start, end, parent
/// span); the recorder is also the benchmark's only stopwatch, so a number
/// it prints and the span it leaves behind can never disagree. Spans stay
/// in memory and are written once, when the program exits, so recording
/// does no I/O inside a measured interval. Single-threaded: spans are
/// opened and closed by the benchmark's one caller thread.
class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  /// Opens a span as a child of the innermost open span; returns its id.
  int Begin(std::string name);
  /// Closes span `id`, which must be the innermost open span, and returns
  /// its duration in seconds.
  double End(int id);

  /// Runs `fn` inside a span named `name`; returns the span's seconds.
  template <typename Fn>
  double Time(std::string name, Fn&& fn) {
    const int id = Begin(std::move(name));
    std::forward<Fn>(fn)();
    return End(id);
  }

  /// Chrome trace-event JSON (Perfetto-loadable): one complete ("X") event
  /// per span, with the span id and parent id in `args`.
  std::string ToChromeTraceJson() const;
  crayfish::Status Write(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
  };

  double Now() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace crayfish::perf

#endif  // CRAYFISH_BENCH_PERF_SPANS_H_
