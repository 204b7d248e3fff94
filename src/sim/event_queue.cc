#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace crayfish::sim {

uint64_t EventQueue::Push(SimTime time, InlineAction action) {
  const uint64_t seq = next_seq_++;
  CRAYFISH_CHECK_LT(seq, kMaxSeq) << "event sequence numbers exhausted";
  const uint32_t slot = actions_.Acquire();
  CRAYFISH_CHECK_LT(slot, kMaxSlots)
      << "more than " << kMaxSlots << " pending events";
  actions_[slot] = std::move(action);
  const Key key{time, (seq << kSlotBits) | slot};
  // Sift up with a hole: most events are scheduled later than their parent
  // (DES schedules into the future), so the common case is zero moves.
  size_t i = heap_.size();
  heap_.push_back(key);
  while (i > 0) {
    const size_t parent = (i - 1) / kArity;
    if (!Before(key, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
  return seq;
}

SimTime EventQueue::next_time() const {
  CRAYFISH_CHECK(!heap_.empty());
  return heap_.front().time;
}

Event EventQueue::Pop() {
  CRAYFISH_CHECK(!heap_.empty());
  const Key top = heap_.front();
  const Key last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    // Sift `last` down from the root with a hole.
    const size_t n = heap_.size();
    size_t i = 0;
    for (;;) {
      const size_t first_child = kArity * i + 1;
      if (first_child >= n) break;
      size_t best = first_child;
      const size_t end = std::min(first_child + kArity, n);
      for (size_t c = first_child + 1; c < end; ++c) {
        if (Before(heap_[c], heap_[best])) best = c;
      }
      if (!Before(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }
  const auto slot = static_cast<uint32_t>(top.seq_slot & (kMaxSlots - 1));
  Event event{top.time, top.seq_slot >> kSlotBits, std::move(actions_[slot])};
  actions_.Release(slot);
  return event;
}

}  // namespace crayfish::sim
