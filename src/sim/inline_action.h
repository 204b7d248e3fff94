#ifndef CRAYFISH_SIM_INLINE_ACTION_H_
#define CRAYFISH_SIM_INLINE_ACTION_H_

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace crayfish::sim {

/// A move-only `void()` callable with small-buffer optimization.
///
/// The DES kernel schedules millions of events per experiment; wrapping each
/// action in `std::function` costs a heap allocation for any capture larger
/// than the (implementation-defined, typically 16-byte) SBO and a second
/// copy when the event is popped. InlineAction stores captures up to
/// kInlineBytes directly inside the event, falls back to the heap only for
/// oversized captures, and is move-only so actions relocate instead of
/// copying as they travel through the event heap.
class InlineAction {
 public:
  /// Captures up to this many bytes live inline (no allocation). Sized for
  /// the common scheduling lambdas: a `this` pointer, a couple of doubles,
  /// and a lifetime-token shared_ptr fit comfortably.
  static constexpr size_t kInlineBytes = 48;

  InlineAction() = default;
  InlineAction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineAction> &&
                                        !std::is_same_v<D, std::nullptr_t> &&
                                        std::is_invocable_r_v<void, D&>>>
  InlineAction(F&& f) {  // NOLINT(google-explicit-constructor)
    // A null std::function must stay "empty" (callers test `if (action)`
    // before invoking), not become a non-null wrapper that throws.
    if constexpr (std::is_same_v<D, std::function<void()>>) {
      if (!f) return;
    }
    if constexpr (FitsInline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      vtable_ = &InlineOps<D>::kVTable;
    } else {
      *reinterpret_cast<D**>(buf_) = new D(std::forward<F>(f));
      vtable_ = &HeapOps<D>::kVTable;
    }
  }

  InlineAction(InlineAction&& other) noexcept { MoveFrom(other); }

  InlineAction& operator=(InlineAction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  InlineAction(const InlineAction&) = delete;
  InlineAction& operator=(const InlineAction&) = delete;

  ~InlineAction() { Reset(); }

  explicit operator bool() const { return vtable_ != nullptr; }

  void operator()() { vtable_->invoke(buf_); }

 private:
  struct VTable {
    void (*invoke)(void* buf);
    /// Move-constructs the callable into `dst` from `src` and destroys the
    /// source (a destructive move, so the heap slot moves as one pointer).
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* buf);
  };

  template <typename D>
  static constexpr bool FitsInline() {
    return sizeof(D) <= kInlineBytes &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D>
  struct InlineOps {
    static void Invoke(void* buf) { (*std::launder(reinterpret_cast<D*>(buf)))(); }
    static void Relocate(void* dst, void* src) {
      D* s = std::launder(reinterpret_cast<D*>(src));
      ::new (dst) D(std::move(*s));
      s->~D();
    }
    static void Destroy(void* buf) {
      std::launder(reinterpret_cast<D*>(buf))->~D();
    }
    static constexpr VTable kVTable = {&Invoke, &Relocate, &Destroy};
  };

  template <typename D>
  struct HeapOps {
    static D* Ptr(void* buf) { return *reinterpret_cast<D**>(buf); }
    static void Invoke(void* buf) { (*Ptr(buf))(); }
    static void Relocate(void* dst, void* src) {
      *reinterpret_cast<D**>(dst) = *reinterpret_cast<D**>(src);
    }
    static void Destroy(void* buf) { delete Ptr(buf); }
    static constexpr VTable kVTable = {&Invoke, &Relocate, &Destroy};
  };

  void MoveFrom(InlineAction& other) noexcept {
    if (other.vtable_ != nullptr) {
      other.vtable_->relocate(buf_, other.buf_);
      vtable_ = other.vtable_;
      other.vtable_ = nullptr;
    }
  }

  void Reset() noexcept {
    if (vtable_ != nullptr) {
      vtable_->destroy(buf_);
      vtable_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const VTable* vtable_ = nullptr;
};

}  // namespace crayfish::sim

#endif  // CRAYFISH_SIM_INLINE_ACTION_H_
