#ifndef CRAYFISH_SIM_SLOT_POOL_H_
#define CRAYFISH_SIM_SLOT_POOL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace crayfish::sim {

/// Index-addressed storage for in-flight state that events refer to by
/// slot: pending event actions, broker requests, serving requests, retrying
/// producer batches. An event captures `{owner, slot}` instead of the state
/// itself. Released slots are reused last-in first-out (the most recently
/// freed slot is the one most likely still in cache), so a steady run
/// keeps the same slots and never reallocates. Release does not touch the
/// slot: owners reset what they must (and bump any generation they keep)
/// before releasing.
template <typename T>
class SlotPool {
 public:
  /// A free slot: the most recently released one, else a new T{}.
  uint32_t Acquire() {
    if (free_.empty()) {
      slots_.emplace_back();
      return static_cast<uint32_t>(slots_.size() - 1);
    }
    const uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  void Release(uint32_t slot) { free_.push_back(slot); }

  T& operator[](uint32_t slot) { return slots_[slot]; }
  const T& operator[](uint32_t slot) const { return slots_[slot]; }

  /// Slots ever allocated, live plus free: the peak number live at once.
  size_t capacity() const { return slots_.size(); }

 private:
  std::vector<T> slots_;
  std::vector<uint32_t> free_;
};

}  // namespace crayfish::sim

#endif  // CRAYFISH_SIM_SLOT_POOL_H_
