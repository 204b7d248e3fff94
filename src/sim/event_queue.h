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

/// Min-queue of events ordered by (time, seq).
///
/// The heap itself holds only 16-byte trivially copyable keys: the event
/// time plus the sequence number and an action slot packed into one word.
/// The actions live in a separate slot vector that the heap never touches,
/// so a sift step copies 16 bytes and never calls into an action. Push
/// moves the action into a slot once; Pop moves it out once and returns the
/// slot to a free list, so a steady run reuses the same slots and the same
/// heap capacity throughout.
///
/// The heap is an implicit 4-ary min-heap over a flat vector: the wider
/// node keeps four children (64 bytes of keys) in one cache line and
/// sift-down visits about half the levels of a binary heap.
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

  /// Pre-sizes the heap and the slot store (both are reused in place; this
  /// only avoids the first few vector growths of a large run).
  void Reserve(size_t n) {
    heap_.reserve(n);
    slots_.reserve(n);
    free_slots_.reserve(n);
  }

  /// Number of action slots ever allocated (live plus free). A steady run
  /// reuses freed slots, so this tracks the peak number of pending events.
  size_t slot_capacity() const { return slots_.size(); }

 private:
  static constexpr size_t kArity = 4;
  /// Bits of a key's packed word that index the action slot; the sequence
  /// number takes the rest. Both limits are CHECKed on Push.
  static constexpr int kSlotBits = 24;
  static constexpr uint64_t kMaxSlots = uint64_t{1} << kSlotBits;
  static constexpr uint64_t kMaxSeq = uint64_t{1} << (64 - kSlotBits);

  struct Key {
    SimTime time;
    /// `seq << kSlotBits | slot`. Sequence numbers are unique, so comparing
    /// the packed word orders equal-time keys by seq alone.
    uint64_t seq_slot;
  };

  static bool Before(const Key& a, const Key& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq_slot < b.seq_slot;
  }

  std::vector<Key> heap_;
  /// Pending actions by slot; a slot keeps its address while the heap sifts.
  std::vector<InlineAction> slots_;
  /// Freed slots, reused last-in first-out (the most recently freed slot is
  /// the one most likely still in cache).
  std::vector<uint32_t> free_slots_;
  uint64_t next_seq_ = 0;
};

}  // namespace crayfish::sim

#endif  // CRAYFISH_SIM_EVENT_QUEUE_H_
