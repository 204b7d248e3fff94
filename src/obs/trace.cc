#include "obs/trace.h"

#include <algorithm>
#include <array>
#include <fstream>
#include <map>
#include <string_view>

#include "obs/format.h"

namespace crayfish::obs {

namespace {

// Byte estimates for reserve(), sized so the one output buffer is never
// reallocated mid-export: each covers an event's fixed text plus typical
// number widths, and the exports add the lengths of the names they write.
constexpr size_t kChromeSpanTailBytes = 64;    // ts,dur,args after the name
constexpr size_t kChromeTrackEventBytes = 80;  // all but the name
constexpr size_t kCsvRowBytes = 48;            // all but the stage name

}  // namespace

void TraceRecorder::StartBatch(uint64_t batch_id, double create_time_s) {
  BatchTrace& bt = batches_[batch_id];
  bt.start_s = create_time_s;
}

void TraceRecorder::Mark(uint64_t batch_id, Stage stage, double time_s) {
  auto it = batches_.find(batch_id);
  if (it == batches_.end()) return;
  BatchTrace& bt = it->second;
  if (bt.complete) return;
  const double prev =
      bt.marks.empty() ? bt.start_s : bt.marks.back().time_s;
  // The DES delivers effects in causal order, so marks should already be
  // nondecreasing; clamp defensively so a same-instant callback ordering
  // quirk yields a zero-duration stage rather than a negative one.
  bt.marks.push_back(StageMark{stage, std::max(time_s, prev)});
  if (stage == Stage::kOutputAppend) {
    bt.complete = true;
    ++completed_;
  }
}

void TraceRecorder::MarkProduce(uint64_t batch_id, double time_s) {
  auto it = batches_.find(batch_id);
  if (it == batches_.end() || it->second.complete) return;
  Mark(batch_id,
       it->second.appends == 0 ? Stage::kProduce : Stage::kSinkProduce,
       time_s);
}

void TraceRecorder::MarkAppend(uint64_t batch_id, double time_s) {
  auto it = batches_.find(batch_id);
  if (it == batches_.end() || it->second.complete) return;
  const Stage stage = it->second.appends == 0 ? Stage::kBrokerAppend
                                              : Stage::kOutputAppend;
  ++it->second.appends;
  Mark(batch_id, stage, time_s);
}

void TraceRecorder::AddTrackSpan(const std::string& track,
                                 const std::string& name, double start_s,
                                 double end_s) {
  track_spans_.push_back(
      TrackSpan{track, name, start_s, std::max(end_s, start_s)});
}

void TraceRecorder::AddInstant(const std::string& track,
                               const std::string& name, double time_s) {
  instants_.push_back(InstantEvent{track, name, time_s});
}

std::string TraceRecorder::ToChromeTraceJson() const {
  // Chrome trace-event (catapult) JSON. pid 1 holds one lane (tid) per
  // pipeline stage so a batch renders as a staircase across lanes; pid 2
  // holds one lane per auxiliary resource track. ts/dur are microseconds.
  // One pass appends every event, one per line, straight into `out`.

  // A stage span's text up to its ts, escaped once per export.
  std::array<std::string, kNumStages> span_head;
  for (int i = 0; i < kNumStages; ++i) {
    std::string& head = span_head[static_cast<size_t>(i)];
    head = ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":";
    AppendUint(&head, static_cast<uint64_t>(i));
    head += ",\"name\":\"";
    AppendJsonEscaped(&head, StageName(static_cast<Stage>(i)));
    head += "\",\"ts\":";
  }

  // Auxiliary resource tracks: assign tids in first-seen order, which is
  // deterministic because spans are recorded in simulated-event order.
  // Instant-only tracks (e.g. "slo") get tids after all span tracks.
  std::map<std::string_view, uint64_t> track_tid;
  std::vector<std::string_view> track_order;
  const auto tid_of = [&](const std::string& track) {
    const auto [it, inserted] = track_tid.emplace(track, track_order.size());
    if (inserted) track_order.push_back(track);
    return it->second;
  };
  size_t bytes = 2048;  // header, footer, process and stage-lane names
  std::vector<uint64_t> span_tid;
  span_tid.reserve(track_spans_.size());
  for (const TrackSpan& s : track_spans_) {
    span_tid.push_back(tid_of(s.track));
    bytes += kChromeTrackEventBytes + s.name.size();
  }
  std::vector<uint64_t> instant_tid;
  instant_tid.reserve(instants_.size());
  for (const InstantEvent& ev : instants_) {
    instant_tid.push_back(tid_of(ev.track));
    bytes += kChromeTrackEventBytes + ev.name.size();
  }
  for (std::string_view track : track_order) {
    bytes += kChromeTrackEventBytes + track.size();
  }
  for (const auto& [batch_id, bt] : batches_) {
    for (const StageMark& m : bt.marks) {
      bytes += span_head[static_cast<size_t>(m.stage)].size() +
               kChromeSpanTailBytes;
    }
  }

  std::string out;
  out.reserve(bytes);
  out += "{\"traceEvents\":[";
  for (int i = 0; i < kNumStages; ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":";
    AppendUint(&out, static_cast<uint64_t>(i));
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    AppendJsonEscaped(&out, StageName(static_cast<Stage>(i)));
    out += "\"}}";
  }
  out += ",\n{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
         "\"args\":{\"name\":\"pipeline stages\"}}";

  std::string span_tail;  // ,"args":{"batch_id":<id>}}
  for (const auto& [batch_id, bt] : batches_) {
    span_tail = ",\"args\":{\"batch_id\":";
    AppendUint(&span_tail, batch_id);
    span_tail += "}}";
    double prev = bt.start_s;
    for (const StageMark& m : bt.marks) {
      out += span_head[static_cast<size_t>(m.stage)];
      AppendFixed(&out, prev * 1e6, 3);
      out += ",\"dur\":";
      AppendFixed(&out, (m.time_s - prev) * 1e6, 3);
      out += span_tail;
      prev = m.time_s;
    }
  }

  if (!track_order.empty()) {
    out += ",\n{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\","
           "\"args\":{\"name\":\"resources\"}}";
    for (size_t i = 0; i < track_order.size(); ++i) {
      out += ",\n{\"ph\":\"M\",\"pid\":2,\"tid\":";
      AppendUint(&out, i);
      out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
      AppendJsonEscaped(&out, track_order[i]);
      out += "\"}}";
    }
    for (size_t i = 0; i < track_spans_.size(); ++i) {
      const TrackSpan& s = track_spans_[i];
      out += ",\n{\"ph\":\"X\",\"pid\":2,\"tid\":";
      AppendUint(&out, span_tid[i]);
      out += ",\"name\":\"";
      AppendJsonEscaped(&out, s.name);
      out += "\",\"ts\":";
      AppendFixed(&out, s.start_s * 1e6, 3);
      out += ",\"dur\":";
      AppendFixed(&out, (s.end_s - s.start_s) * 1e6, 3);
      out.push_back('}');
    }
    for (size_t i = 0; i < instants_.size(); ++i) {
      const InstantEvent& ev = instants_[i];
      out += ",\n{\"ph\":\"i\",\"pid\":2,\"tid\":";
      AppendUint(&out, instant_tid[i]);
      out += ",\"name\":\"";
      AppendJsonEscaped(&out, ev.name);
      out += "\",\"ts\":";
      AppendFixed(&out, ev.time_s * 1e6, 3);
      out += ",\"s\":\"t\"}";
    }
  }

  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

crayfish::Status TraceRecorder::WriteChromeTrace(
    const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return crayfish::Status::IoError("cannot open: " + path);
  out << ToChromeTraceJson();
  if (!out) return crayfish::Status::IoError("short write: " + path);
  return crayfish::Status::Ok();
}

std::string TraceRecorder::ToStageCsv() const {
  std::array<std::string_view, kNumStages> stage_name;
  for (int i = 0; i < kNumStages; ++i) {
    stage_name[static_cast<size_t>(i)] = StageName(static_cast<Stage>(i));
  }
  size_t bytes = 64;  // header
  for (const auto& [batch_id, bt] : batches_) {
    for (const StageMark& m : bt.marks) {
      bytes += kCsvRowBytes + stage_name[static_cast<size_t>(m.stage)].size();
    }
  }
  std::string out;
  out.reserve(bytes);
  out += "batch_id,stage,start_s,end_s,duration_ms\n";
  for (const auto& [batch_id, bt] : batches_) {
    double prev = bt.start_s;
    for (const StageMark& m : bt.marks) {
      AppendUint(&out, batch_id);
      out.push_back(',');
      out += stage_name[static_cast<size_t>(m.stage)];
      out.push_back(',');
      AppendFixed(&out, prev, 9);
      out.push_back(',');
      AppendFixed(&out, m.time_s, 9);
      out.push_back(',');
      AppendFixed(&out, (m.time_s - prev) * 1000.0, 6);
      out.push_back('\n');
      prev = m.time_s;
    }
  }
  return out;
}

crayfish::Status TraceRecorder::WriteStageCsv(
    const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return crayfish::Status::IoError("cannot open: " + path);
  out << ToStageCsv();
  if (!out) return crayfish::Status::IoError("short write: " + path);
  return crayfish::Status::Ok();
}

}  // namespace crayfish::obs
