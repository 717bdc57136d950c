// Small-buffer-optimized callback type for the event core.
//
// EventFn is a move-only void() callable with 64 bytes of inline storage --
// enough for every hot-path closure in the simulator (a this-pointer and a
// whole sim::Packet, a this-pointer with a payload and its sender, or a whole
// libstdc++ std::function) -- so steady-state scheduling performs no heap
// allocation. Callables that are larger than the buffer, or
// whose move constructor may throw, fall back to the heap; everything else
// lives inline and is relocated by its own move constructor when an EventFn
// moves (e.g. out of a pool slot into the dispatch frame).
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace sim {

class EventFn {
 public:
  static constexpr size_t kInlineSize = 64;

  EventFn() = default;

  template <typename F,
            typename D = std::decay_t<F>,
            std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                 std::is_invocable_r_v<void, D&>,
                             int> = 0>
  EventFn(F&& fn) {  // NOLINT(google-explicit-constructor)
    constexpr bool kInline = sizeof(D) <= kInlineSize &&
                             alignof(D) <= alignof(std::max_align_t) &&
                             std::is_nothrow_move_constructible_v<D>;
    if constexpr (kInline) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      ops_ = inline_ops<D>();
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(fn)));
      ops_ = heap_ops<D>();
    }
  }

  EventFn(EventFn&& other) noexcept { move_from(other); }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage_); }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-construct the callable from src storage into dst storage, then
    /// destroy the src. Must not throw (enforced by the inline criteria).
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* storage);
  };

  template <typename D>
  static D* as(void* storage) {
    return std::launder(reinterpret_cast<D*>(storage));
  }

  template <typename D>
  static const Ops* inline_ops() {
    static constexpr Ops ops = {
        [](void* s) { (*as<D>(s))(); },
        [](void* dst, void* src) {
          D* from = as<D>(src);
          ::new (dst) D(std::move(*from));
          from->~D();
        },
        [](void* s) { as<D>(s)->~D(); },
    };
    return &ops;
  }

  template <typename D>
  static const Ops* heap_ops() {
    static constexpr Ops ops = {
        [](void* s) { (**as<D*>(s))(); },
        [](void* dst, void* src) {
          ::new (dst) D*(*as<D*>(src));
        },
        [](void* s) { delete *as<D*>(s); },
    };
    return &ops;
  }

  void move_from(EventFn& other) {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
};

}  // namespace sim
