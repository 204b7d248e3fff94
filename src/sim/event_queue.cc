#include "sim/event_queue.h"

#include <bit>
#include <utility>

#include "common/logging.h"

namespace crayfish::sim {

uint64_t EventQueue::Push(SimTime time, InlineAction action) {
  // Under bit-pattern keys a NaN would sort after +inf and never fire.
  CRAYFISH_CHECK(time >= 0.0) << "event time " << time
                              << " is negative or NaN";
  const uint64_t seq = next_seq_++;
  CRAYFISH_CHECK_LT(seq, kMaxSeq) << "event sequence numbers exhausted";
  const uint32_t slot = actions_.Acquire();
  CRAYFISH_CHECK_LT(slot, kMaxSlots)
      << "more than " << kMaxSlots << " pending events";
  actions_[slot] = std::move(action);
  const Key key{std::bit_cast<uint64_t>(time + 0.0),
                (seq << kSlotBits) | slot};
  SiftUp(time - last_popped_ >= kTimeoutHorizonS ? timeouts_ : near_, key);
  return seq;
}

void EventQueue::SiftUp(std::vector<Key>& heap, Key key) {
  // Sift up with a hole: most events are scheduled later than their parent
  // (DES schedules into the future), so the common case is zero moves.
  size_t i = heap.size();
  heap.push_back(key);
  while (i > 0) {
    const size_t parent = (i - 1) / kArity;
    if (!Before(key, heap[parent])) break;
    heap[i] = heap[parent];
    i = parent;
  }
  heap[i] = key;
}

SimTime EventQueue::next_time() const {
  CRAYFISH_CHECK(!empty());
  return std::bit_cast<SimTime>(
      (NearFirst() ? near_ : timeouts_).front().time_bits);
}

EventQueue::Key EventQueue::PopTop(std::vector<Key>& heap) {
  const Key top = heap.front();
  const Key last = heap.back();
  heap.pop_back();
  const size_t n = heap.size();
  if (n == 0) return top;
  // Sift `last` down from the root with a hole.
  size_t i = 0;
  for (;;) {
    const size_t c = kArity * i + 1;
    size_t best = c;
    if (c + kArity <= n) {
      // A full node: a two-round tournament with no data-dependent branch.
      const size_t a = c + Before(heap[c + 1], heap[c]);
      const size_t b = c + 2 + Before(heap[c + 3], heap[c + 2]);
      best = Before(heap[b], heap[a]) ? b : a;
    } else if (c < n) {
      for (size_t k = c + 1; k < n; ++k) {
        if (Before(heap[k], heap[best])) best = k;
      }
    } else {
      break;
    }
    if (!Before(heap[best], last)) break;
    heap[i] = heap[best];
    i = best;
  }
  heap[i] = last;
  return top;
}

Event EventQueue::Pop() {
  CRAYFISH_CHECK(!empty());
  const Key top = PopTop(NearFirst() ? near_ : timeouts_);
  last_popped_ = std::bit_cast<SimTime>(top.time_bits);
  const auto slot = static_cast<uint32_t>(top.seq_slot & (kMaxSlots - 1));
  Event event{last_popped_, top.seq_slot >> kSlotBits,
              std::move(actions_[slot])};
  actions_.Release(slot);
  return event;
}

}  // namespace crayfish::sim
