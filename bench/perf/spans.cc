#include "bench/perf/spans.h"

#include <cstdio>
#include <fstream>

#include "common/json.h"
#include "common/logging.h"

namespace crayfish::perf {

int SpanRecorder::Begin(std::string name) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_s = Now();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

double SpanRecorder::End(int id) {
  const double now = Now();
  CRAYFISH_CHECK(!open_.empty() && open_.back() == id)
      << "span " << id << " closed out of order";
  open_.pop_back();
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_s = now;
  return span.end_s - span.start_s;
}

double SpanRecorder::Now() const {
  return std::chrono::duration<double>(Clock::now() - origin_).count();
}

std::string SpanRecorder::ToChromeTraceJson() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[96];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ',';
    out += "{\"name\":" + crayfish::JsonEscape(s.name) +
           ",\"ph\":\"X\",\"pid\":1,\"tid\":1";
    std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f",
                  s.start_s * 1e6, (s.end_s - s.start_s) * 1e6);
    out += buf;
    std::snprintf(buf, sizeof(buf), ",\"args\":{\"id\":%zu,\"parent\":%d}}",
                  i, s.parent);
    out += buf;
  }
  out += "]}\n";
  return out;
}

crayfish::Status SpanRecorder::Write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return crayfish::Status::IoError("cannot open " + path);
  out << ToChromeTraceJson();
  out.close();
  if (!out) return crayfish::Status::IoError("short write to " + path);
  return crayfish::Status::Ok();
}

}  // namespace crayfish::perf
