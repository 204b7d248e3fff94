#ifndef CRAYFISH_OBS_TRACE_H_
#define CRAYFISH_OBS_TRACE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "obs/stage.h"

namespace crayfish::obs {

/// Per-batch trace recorder for the simulated pipeline.
///
/// Components mark stage boundaries as each batch passes through them:
/// `StartBatch` opens the trace at the batch's creation timestamp and every
/// subsequent `Mark(stage, t)` closes an interval `[previous mark, t]`
/// attributed to `stage`. Because intervals are defined by consecutive
/// marks, the per-stage durations of a completed batch tile its end-to-end
/// latency exactly — the invariant the latency-breakdown analyzer relies
/// on.
///
/// All timestamps are *simulated* time (never wall clock) and recording is
/// purely passive — no events are scheduled, no RNG is consumed — so
/// enabling tracing cannot perturb a deterministic run. When tracing is
/// disabled components skip the recorder entirely (null pointer on the
/// Simulation), making the hooks a single branch.
class TraceRecorder {
 public:
  struct StageMark {
    Stage stage;
    /// End of the stage interval (seconds, simulated clock).
    double time_s;
  };

  /// Mark index meaning "none": the end of a batch's mark chain.
  static constexpr uint32_t kNoMark = 0xffffffffu;

  /// One batch's trace header. Its marks live in the recorder's shared
  /// mark arena, reached through ForEachMark.
  struct BatchTrace {
    uint64_t id = 0;
    /// Creation timestamp — start of the first interval.
    double start_s = 0.0;
    /// Arena index of the first and last mark (kNoMark when none).
    uint32_t first_mark = kNoMark;
    uint32_t last_mark = kNoMark;
    /// Number of broker appends seen (1 = input topic, 2 = output topic).
    uint8_t appends = 0;
    /// True once the output-topic append is recorded; further marks for
    /// this batch (e.g. from the measurement consumer fetching the output
    /// topic) are ignored.
    bool complete = false;
  };

  /// A span on an auxiliary track (server pools, serial executors). Track
  /// and name are ids from Intern.
  struct TrackSpan {
    uint32_t track;
    uint32_t name;
    double start_s;
    double end_s;
  };

  /// A point-in-time marker on an auxiliary track (SLO breach / recover
  /// transitions, autoscale decisions). Track and name are ids from Intern.
  struct InstantEvent {
    uint32_t track;
    uint32_t name;
    double time_s;
  };

  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Opens the trace of `batch_id` at its creation timestamp. Called by
  /// the input producer; marks for unknown batches are dropped. Increasing
  /// ids append in O(1); any other id is inserted in id order.
  void StartBatch(uint64_t batch_id, double create_time_s);

  /// Closes the interval [previous mark, time_s] as `stage`. Timestamps
  /// must be nondecreasing per batch; earlier times clamp to the previous
  /// mark (a zero-duration stage).
  void Mark(uint64_t batch_id, Stage stage, double time_s);

  /// Producer-side mark that resolves the stage by position in the
  /// pipeline: kProduce before the input-topic append, kSinkProduce after.
  void MarkProduce(uint64_t batch_id, double time_s);

  /// Broker-append mark: kBrokerAppend for the first append (input topic),
  /// kOutputAppend for the second, which completes the batch's trace.
  void MarkAppend(uint64_t batch_id, double time_s);

  /// Id of `text` in the recorder's string table (track and span names),
  /// added on first use. Components intern their names once and record
  /// spans by id.
  uint32_t Intern(std::string_view text);
  /// The string an Intern id stands for.
  const std::string& text(uint32_t id) const { return strings_[id]; }

  /// Records a span on an auxiliary track (e.g. a ServerPool's queue-wait
  /// and service intervals). Exported as its own Perfetto track group.
  void AddTrackSpan(uint32_t track, uint32_t name, double start_s,
                    double end_s);
  void AddTrackSpan(std::string_view track, std::string_view name,
                    double start_s, double end_s) {
    AddTrackSpan(Intern(track), Intern(name), start_s, end_s);
  }

  /// Records an instant event on an auxiliary track, rendered as a point
  /// marker in the Perfetto UI ("ph":"i").
  void AddInstant(std::string_view track, std::string_view name,
                  double time_s);

  size_t batch_count() const { return batches_.size(); }
  size_t completed_batches() const { return completed_; }
  /// The trace of `batch_id`, or null when it was never started.
  const BatchTrace* FindBatch(uint64_t batch_id) const;
  /// Calls `fn(const StageMark&)` for each of `bt`'s marks in order.
  template <typename Fn>
  void ForEachMark(const BatchTrace& bt, Fn&& fn) const {
    for (uint32_t i = bt.first_mark; i != kNoMark; i = marks_[i].next) {
      fn(StageMark{marks_[i].stage, marks_[i].time_s});
    }
  }
  const std::vector<TrackSpan>& track_spans() const { return track_spans_; }
  const std::vector<InstantEvent>& instants() const { return instants_; }

  /// Chrome trace-event JSON (catapult format, Perfetto-loadable): one
  /// lane per pipeline stage plus one lane per auxiliary track.
  std::string ToChromeTraceJson() const;
  crayfish::Status WriteChromeTrace(const std::string& path) const;

  /// Per-span CSV: batch_id,stage,start_s,end_s,duration_ms.
  std::string ToStageCsv() const;
  crayfish::Status WriteStageCsv(const std::string& path) const;

 private:
  /// A mark in the shared arena, chained to its batch's next mark.
  struct ArenaMark {
    double time_s;
    uint32_t next;
    Stage stage;
  };

  BatchTrace* Find(uint64_t batch_id);
  void MarkBatch(BatchTrace* bt, Stage stage, double time_s);

  /// Sorted by id, so exports walk batches in id order. The generator's
  /// ids are dense and increasing, so Find tries `id - front().id` first.
  std::vector<BatchTrace> batches_;
  /// Every batch's marks, in recording order.
  std::vector<ArenaMark> marks_;
  std::vector<TrackSpan> track_spans_;
  std::vector<InstantEvent> instants_;
  /// Intern table: id -> text, and the ordered text -> id index.
  std::vector<std::string> strings_;
  std::map<std::string, uint32_t, std::less<>> string_ids_;
  size_t completed_ = 0;
};

}  // namespace crayfish::obs

/// Stage-mark hook for components holding a `sim::Simulation*`. Expands to
/// a single null-check when tracing is enabled at build time and to
/// nothing when Crayfish is built with -DCRAYFISH_DISABLE_TRACING.
#ifdef CRAYFISH_DISABLE_TRACING
#define CRAYFISH_TRACE_MARK(sim, batch_id, stage) ((void)0)
#define CRAYFISH_TRACE_WITH(sim, tracer_var, body) ((void)0)
#else
#define CRAYFISH_TRACE_MARK(sim, batch_id, stage)                        \
  do {                                                                   \
    if (::crayfish::obs::TraceRecorder* _crayfish_tr = (sim)->tracer())  \
      _crayfish_tr->Mark((batch_id), (stage), (sim)->Now());             \
  } while (0)
/// Runs `body` with `tracer_var` bound to the recorder, only when tracing
/// is on — for hooks needing more than a single mark.
#define CRAYFISH_TRACE_WITH(sim, tracer_var, body)                       \
  do {                                                                   \
    if (::crayfish::obs::TraceRecorder* tracer_var = (sim)->tracer()) {  \
      body;                                                              \
    }                                                                    \
  } while (0)
#endif

#endif  // CRAYFISH_OBS_TRACE_H_
