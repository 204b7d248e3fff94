#include "obs/trace.h"

#include <algorithm>
#include <array>
#include <fstream>
#include <string_view>

#include "common/logging.h"
#include "obs/format.h"

namespace crayfish::obs {

namespace {

// Byte estimates for reserve(), sized so the one output buffer is never
// reallocated mid-export: each covers an event's fixed text plus typical
// number widths, and the exports add the lengths of the names they write.
constexpr size_t kChromeSpanTailBytes = 64;    // ts,dur,args after the name
constexpr size_t kChromeTrackEventBytes = 80;  // all but the name
constexpr size_t kCsvRowBytes = 48;            // all but the stage name

bool IdBelow(const TraceRecorder::BatchTrace& bt, uint64_t id) {
  return bt.id < id;
}

}  // namespace

void TraceRecorder::StartBatch(uint64_t batch_id, double create_time_s) {
  if (batches_.empty() || batch_id > batches_.back().id) {
    batches_.push_back(BatchTrace{});
    batches_.back().id = batch_id;
    batches_.back().start_s = create_time_s;
    return;
  }
  auto it =
      std::lower_bound(batches_.begin(), batches_.end(), batch_id, IdBelow);
  if (it == batches_.end() || it->id != batch_id) {
    it = batches_.insert(it, BatchTrace{});
    it->id = batch_id;
  }
  it->start_s = create_time_s;
}

const TraceRecorder::BatchTrace* TraceRecorder::FindBatch(
    uint64_t batch_id) const {
  if (batches_.empty()) return nullptr;
  // Dense ids: the batch sits at its offset from the first id (an id below
  // the first wraps to a huge offset and misses).
  const uint64_t offset = batch_id - batches_.front().id;
  if (offset < batches_.size() && batches_[offset].id == batch_id) {
    return &batches_[offset];
  }
  const auto it =
      std::lower_bound(batches_.begin(), batches_.end(), batch_id, IdBelow);
  return it != batches_.end() && it->id == batch_id ? &*it : nullptr;
}

TraceRecorder::BatchTrace* TraceRecorder::Find(uint64_t batch_id) {
  return const_cast<BatchTrace*>(FindBatch(batch_id));
}

void TraceRecorder::MarkBatch(BatchTrace* bt, Stage stage, double time_s) {
  if (bt->complete) return;
  const double prev =
      bt->last_mark == kNoMark ? bt->start_s : marks_[bt->last_mark].time_s;
  CRAYFISH_CHECK_LT(marks_.size(), static_cast<size_t>(kNoMark));
  const auto index = static_cast<uint32_t>(marks_.size());
  // The DES delivers effects in causal order, so marks should already be
  // nondecreasing; clamp defensively so a same-instant callback ordering
  // quirk yields a zero-duration stage rather than a negative one.
  marks_.push_back(ArenaMark{std::max(time_s, prev), kNoMark, stage});
  if (bt->last_mark == kNoMark) {
    bt->first_mark = index;
  } else {
    marks_[bt->last_mark].next = index;
  }
  bt->last_mark = index;
  if (stage == Stage::kOutputAppend) {
    bt->complete = true;
    ++completed_;
  }
}

void TraceRecorder::Mark(uint64_t batch_id, Stage stage, double time_s) {
  if (BatchTrace* bt = Find(batch_id)) MarkBatch(bt, stage, time_s);
}

void TraceRecorder::MarkProduce(uint64_t batch_id, double time_s) {
  BatchTrace* bt = Find(batch_id);
  if (bt == nullptr || bt->complete) return;
  MarkBatch(bt, bt->appends == 0 ? Stage::kProduce : Stage::kSinkProduce,
            time_s);
}

void TraceRecorder::MarkAppend(uint64_t batch_id, double time_s) {
  BatchTrace* bt = Find(batch_id);
  if (bt == nullptr || bt->complete) return;
  const Stage stage =
      bt->appends == 0 ? Stage::kBrokerAppend : Stage::kOutputAppend;
  ++bt->appends;
  MarkBatch(bt, stage, time_s);
}

uint32_t TraceRecorder::Intern(std::string_view text) {
  const auto it = string_ids_.find(text);
  if (it != string_ids_.end()) return it->second;
  const auto id = static_cast<uint32_t>(strings_.size());
  strings_.emplace_back(text);
  string_ids_.emplace(std::string(text), id);
  return id;
}

void TraceRecorder::AddTrackSpan(uint32_t track, uint32_t name,
                                 double start_s, double end_s) {
  track_spans_.push_back(
      TrackSpan{track, name, start_s, std::max(end_s, start_s)});
}

void TraceRecorder::AddInstant(std::string_view track, std::string_view name,
                               double time_s) {
  instants_.push_back(InstantEvent{Intern(track), Intern(name), time_s});
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
  std::vector<uint32_t> tid_of(strings_.size(), kNoMark);
  std::vector<uint32_t> track_order;
  const auto assign_tid = [&](uint32_t track) {
    if (tid_of[track] == kNoMark) {
      tid_of[track] = static_cast<uint32_t>(track_order.size());
      track_order.push_back(track);
    }
  };
  size_t bytes = 2048;  // header, footer, process and stage-lane names
  for (const TrackSpan& s : track_spans_) {
    assign_tid(s.track);
    bytes += kChromeTrackEventBytes + strings_[s.name].size();
  }
  for (const InstantEvent& ev : instants_) {
    assign_tid(ev.track);
    bytes += kChromeTrackEventBytes + strings_[ev.name].size();
  }
  for (uint32_t track : track_order) {
    bytes += kChromeTrackEventBytes + strings_[track].size();
  }
  for (const ArenaMark& m : marks_) {
    bytes += span_head[static_cast<size_t>(m.stage)].size() +
             kChromeSpanTailBytes;
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
  for (const BatchTrace& bt : batches_) {
    span_tail = ",\"args\":{\"batch_id\":";
    AppendUint(&span_tail, bt.id);
    span_tail += "}}";
    double prev = bt.start_s;
    for (uint32_t i = bt.first_mark; i != kNoMark; i = marks_[i].next) {
      const ArenaMark& m = marks_[i];
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
      AppendJsonEscaped(&out, strings_[track_order[i]]);
      out += "\"}}";
    }
    for (const TrackSpan& s : track_spans_) {
      out += ",\n{\"ph\":\"X\",\"pid\":2,\"tid\":";
      AppendUint(&out, tid_of[s.track]);
      out += ",\"name\":\"";
      AppendJsonEscaped(&out, strings_[s.name]);
      out += "\",\"ts\":";
      AppendFixed(&out, s.start_s * 1e6, 3);
      out += ",\"dur\":";
      AppendFixed(&out, (s.end_s - s.start_s) * 1e6, 3);
      out.push_back('}');
    }
    for (const InstantEvent& ev : instants_) {
      out += ",\n{\"ph\":\"i\",\"pid\":2,\"tid\":";
      AppendUint(&out, tid_of[ev.track]);
      out += ",\"name\":\"";
      AppendJsonEscaped(&out, strings_[ev.name]);
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
  for (const ArenaMark& m : marks_) {
    bytes += kCsvRowBytes + stage_name[static_cast<size_t>(m.stage)].size();
  }
  std::string out;
  out.reserve(bytes);
  out += "batch_id,stage,start_s,end_s,duration_ms\n";
  for (const BatchTrace& bt : batches_) {
    double prev = bt.start_s;
    for (uint32_t i = bt.first_mark; i != kNoMark; i = marks_[i].next) {
      const ArenaMark& m = marks_[i];
      AppendUint(&out, bt.id);
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
