#ifndef CRAYFISH_SIM_EVENT_QUEUE_H_
#define CRAYFISH_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <cstddef>
#include <utility>
#include <vector>

#include "sim/inline_action.h"

namespace crayfish::sim {

/// Simulated time in seconds since experiment start.
using SimTime = double;

/// A scheduled callback. Events with equal times fire in scheduling order
/// (the sequence number breaks ties), which keeps simulations deterministic.
struct Event {
  SimTime time = 0.0;
  uint64_t seq = 0;
  InlineAction action;
};

/// Min-heap of events ordered by (time, seq).
///
/// Implemented as an implicit 4-ary heap over a flat vector rather than
/// std::priority_queue: the wider node fans out the comparison work across
/// one cache line of children (sift-down does ~half the levels of a binary
/// heap), Pop() can move the root out instead of copying it, and the
/// backing store's capacity is reused across the whole run.
class EventQueue {
 public:
  EventQueue() = default;

  /// Enqueues an action at an absolute time. Returns the event's sequence
  /// number (usable for debugging; cancellation is handled by guards at the
  /// call sites, not by the queue).
  uint64_t Push(SimTime time, InlineAction action);

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }
  SimTime next_time() const;

  /// Removes and returns the earliest event.
  Event Pop();

  /// Pre-sizes the backing store (events are reused in place; this only
  /// avoids the first few vector growths of a large run).
  void Reserve(size_t n) { heap_.reserve(n); }

 private:
  static constexpr size_t kArity = 4;

  static bool Before(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  std::vector<Event> heap_;
  uint64_t next_seq_ = 0;
};

}  // namespace crayfish::sim

#endif  // CRAYFISH_SIM_EVENT_QUEUE_H_
