#ifndef CRAYFISH_SIM_INLINE_FUNCTION_H_
#define CRAYFISH_SIM_INLINE_FUNCTION_H_

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace crayfish::sim {

template <typename Sig>
class InlineFunction;

/// A move-only callable with small-buffer optimization.
///
/// The DES kernel schedules millions of events per experiment, and the
/// broker and serving paths hand a completion callback along with many.
/// `std::function` allocates for any capture over its (typically 16-byte)
/// buffer and copies when passed on; InlineFunction stores captures up to
/// kInlineBytes inline, spills larger ones to the heap, and is move-only,
/// so callables relocate instead of copying through the event heap.
template <typename R, typename... Args>
class InlineFunction<R(Args...)> {
 public:
  /// Captures up to this many bytes live inline (no allocation). Sized for
  /// the scheduling lambdas of the hot path: a `this` pointer, a request
  /// slot and a generation, or a lifetime-token shared_ptr and a few words.
  static constexpr size_t kInlineBytes = 48;

  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InlineFunction> &&
                !std::is_same_v<D, std::nullptr_t> &&
                std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    // A null std::function must stay "empty" (callers test `if (fn)`
    // before invoking), not become a non-null wrapper that throws.
    if constexpr (std::is_same_v<D, std::function<R(Args...)>>) {
      if (!f) return;
    }
    if constexpr (FitsInline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    } else {
      *reinterpret_cast<D**>(buf_) = new D(std::forward<F>(f));
    }
    vtable_ = &Ops<D, !FitsInline<D>()>::kVTable;
  }

  InlineFunction(InlineFunction&& other) noexcept { MoveFrom(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { Reset(); }

  explicit operator bool() const { return vtable_ != nullptr; }

  /// Whether the callable was too large for the inline buffer and lives on
  /// the heap (false for an empty function).
  bool on_heap() const { return vtable_ != nullptr && vtable_->on_heap; }

  R operator()(Args... args) {
    return vtable_->invoke(buf_, std::forward<Args>(args)...);
  }

 private:
  struct VTable {
    R (*invoke)(void* buf, Args&&... args);
    /// Move-constructs the callable into `dst` from `src` and destroys the
    /// source (a destructive move, so the heap slot moves as one pointer).
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* buf);
    bool on_heap;
  };

  template <typename D>
  static constexpr bool FitsInline() {
    return sizeof(D) <= kInlineBytes &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D, bool kHeap>
  struct Ops {
    static D* Ptr(void* buf) {
      if constexpr (kHeap) return *reinterpret_cast<D**>(buf);
      return std::launder(reinterpret_cast<D*>(buf));
    }
    static R Invoke(void* buf, Args&&... args) {
      return (*Ptr(buf))(std::forward<Args>(args)...);
    }
    static void Relocate(void* dst, void* src) {
      if constexpr (kHeap) {
        *reinterpret_cast<D**>(dst) = Ptr(src);
      } else {
        ::new (dst) D(std::move(*Ptr(src)));
        Ptr(src)->~D();
      }
    }
    static void Destroy(void* buf) {
      if constexpr (kHeap) {
        delete Ptr(buf);
      } else {
        Ptr(buf)->~D();
      }
    }
    static constexpr VTable kVTable = {&Invoke, &Relocate, &Destroy, kHeap};
  };

  void MoveFrom(InlineFunction& other) noexcept {
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

/// The event action type: what Simulation::Schedule stores per event.
using InlineAction = InlineFunction<void()>;

}  // namespace crayfish::sim

#endif  // CRAYFISH_SIM_INLINE_FUNCTION_H_
