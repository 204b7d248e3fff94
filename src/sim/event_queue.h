#ifndef CRAYFISH_SIM_EVENT_QUEUE_H_
#define CRAYFISH_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <cstddef>
#include <utility>
#include <vector>

#include "sim/inline_function.h"
#include "sim/slot_pool.h"

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

/// Min-queue of events ordered by (time, seq).
///
/// The heaps hold only 16-byte trivially copyable keys: the bit pattern of
/// the event time, plus the sequence number and an action slot packed into
/// one word. Push CHECKs that a time is neither negative nor NaN, and adds
/// 0.0 to turn -0.0 into +0.0; for the doubles left, the unsigned order of
/// the bit patterns is the numeric order, so a key compares as one unsigned
/// 128-bit integer with no data-dependent branch. The actions live in a
/// separate slot vector that the heaps never touch, so a sift step copies
/// 16 bytes and never calls into an action. Push moves the action into a
/// slot once; Pop moves it out once and returns the slot to a free list, so
/// a steady run reuses the same slots and the same heap capacity.
///
/// A pipeline keeps a few events a hop ahead next to over a thousand
/// consumer and retry timeouts 0.1-0.5 s ahead. A key due at least
/// kTimeoutHorizonS after the last popped time goes into `timeouts_`, any
/// other into `near_`, so most pushes sift through a heap of about ten
/// keys. Pop takes the smaller of the two tops. Both heaps order by the
/// same (time, seq) keys, so the pop order is (time, seq) whatever the
/// routing: the horizon changes only speed, never results.
///
/// Each heap is an implicit 4-ary min-heap over a flat vector: the wider
/// node keeps four children (64 bytes of keys) in one cache line and
/// sift-down visits about half the levels of a binary heap.
class EventQueue {
 public:
  EventQueue() = default;

  /// Enqueues an action at an absolute time, which must be >= 0 and not
  /// NaN. Returns the event's sequence number (usable for debugging;
  /// cancellation is handled by guards at the call sites, not by the queue).
  uint64_t Push(SimTime time, InlineAction action);

  bool empty() const { return near_.empty() && timeouts_.empty(); }
  size_t size() const { return near_.size() + timeouts_.size(); }
  SimTime next_time() const;

  /// Removes and returns the earliest event.
  Event Pop();

  /// Number of action slots ever allocated (live plus free). A steady run
  /// reuses freed slots, so this tracks the peak number of pending events.
  size_t slot_capacity() const { return actions_.capacity(); }

 private:
  static constexpr size_t kArity = 4;
  /// Bits of a key's packed word that index the action slot; the sequence
  /// number takes the rest. Both limits are CHECKed on Push.
  static constexpr int kSlotBits = 24;
  static constexpr uint64_t kMaxSlots = uint64_t{1} << kSlotBits;
  static constexpr uint64_t kMaxSeq = uint64_t{1} << (64 - kSlotBits);
  /// Routing threshold between the heaps. Pipeline hops are sub-millisecond
  /// and timeouts 0.1 s or more; 0.08% of the reference run's pushes fall
  /// between 1 ms and 100 ms, and either end measured within noise of 10 ms.
  static constexpr SimTime kTimeoutHorizonS = 0.010;

  struct Key {
    /// Bit pattern of the non-negative event time.
    uint64_t time_bits;
    /// `seq << kSlotBits | slot`. Sequence numbers are unique, so comparing
    /// the packed word orders equal-time keys by seq alone.
    uint64_t seq_slot;
  };

  static bool Before(const Key& a, const Key& b) {
    using U128 = unsigned __int128;
    return (U128{a.time_bits} << 64 | a.seq_slot) <
           (U128{b.time_bits} << 64 | b.seq_slot);
  }
  static void SiftUp(std::vector<Key>& heap, Key key);
  static Key PopTop(std::vector<Key>& heap);
  /// Whether the earliest key is in `near_`. Requires !empty().
  bool NearFirst() const {
    return timeouts_.empty() ||
           (!near_.empty() && Before(near_.front(), timeouts_.front()));
  }

  std::vector<Key> near_;
  std::vector<Key> timeouts_;
  SimTime last_popped_ = 0.0;
  /// Pending actions by slot; a slot keeps its address while the heap sifts.
  SlotPool<InlineAction> actions_;
  uint64_t next_seq_ = 0;
};

}  // namespace crayfish::sim

#endif  // CRAYFISH_SIM_EVENT_QUEUE_H_
