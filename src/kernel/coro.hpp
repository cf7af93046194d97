// C++20 coroutine plumbing for simulated kernel threads.
//
// A task's body is a coroutine returning Sub<void>. Blocking syscalls return
// awaitables that park the task on a wait queue and hand control back to the
// kernel stepper; nested helper coroutines (Sub<T>) chain via symmetric
// transfer so the stepper always resumes the innermost frame.
//
// Frames are recycled: every syscall helper (file_write, file_read, ...) is
// a coroutine, so a workload makes one frame per call. They come from
// per-thread free lists, one per 64-byte size class; a frame larger than
// the largest class goes to ::operator new.
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>

#include "util/assert.hpp"

namespace mercury::kernel {

/// Thrown inside a simulated thread to terminate it (fatal signal, fault
/// kill). Unwinds through the coroutine stack into the stepper.
struct TaskKilled {
  int signal = 9;
};

template <typename T>
class Sub;

namespace detail {

/// A coroutine frame of `bytes`, from this thread's free list of its size
/// class when one is parked there.
void* alloc_frame(std::size_t bytes);
/// Park `frame` (of `bytes`, as allocated) on this thread's free list of its
/// size class; under ASan it stays poisoned until alloc_frame reuses it.
void free_frame(void* frame, std::size_t bytes) noexcept;

struct PromiseBase {
  // Found by the frame allocation of every coroutine whose promise derives
  // from this one; the sized delete receives the frame's size back.
  static void* operator new(std::size_t bytes) { return alloc_frame(bytes); }
  static void operator delete(void* frame, std::size_t bytes) noexcept {
    free_frame(frame, bytes);
  }

  std::coroutine_handle<> continuation;
  std::exception_ptr exception;

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() { exception = std::current_exception(); }
};

}  // namespace detail

/// A (possibly nested) simulated-kernel coroutine. Move-only owner of the
/// frame; awaiting it runs it to completion (with arbitrary suspensions to
/// the stepper in between) and yields its value.
template <typename T = void>
class [[nodiscard]] Sub {
 public:
  struct promise_type : detail::PromiseBase {
    T value{};
    Sub get_return_object() {
      return Sub{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_value(T v) { value = std::move(v); }
  };

  Sub() = default;
  explicit Sub(std::coroutine_handle<promise_type> h) : h_(h) {}
  Sub(Sub&& o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
  Sub& operator=(Sub&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, nullptr);
    }
    return *this;
  }
  Sub(const Sub&) = delete;
  Sub& operator=(const Sub&) = delete;
  ~Sub() { destroy(); }

  bool valid() const { return static_cast<bool>(h_); }
  bool done() const { return h_.done(); }
  std::coroutine_handle<promise_type> handle() const { return h_; }

  // Awaitable: start the child, remember who to resume when it finishes.
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
    h_.promise().continuation = parent;
    return h_;  // symmetric transfer into the child
  }
  T await_resume() {
    if (h_.promise().exception) std::rethrow_exception(h_.promise().exception);
    return std::move(h_.promise().value);
  }

 private:
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = nullptr;
    }
  }
  std::coroutine_handle<promise_type> h_;
};

template <>
class [[nodiscard]] Sub<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Sub get_return_object() {
      return Sub{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_void() {}
  };

  Sub() = default;
  explicit Sub(std::coroutine_handle<promise_type> h) : h_(h) {}
  Sub(Sub&& o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
  Sub& operator=(Sub&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, nullptr);
    }
    return *this;
  }
  Sub(const Sub&) = delete;
  Sub& operator=(const Sub&) = delete;
  ~Sub() { destroy(); }

  bool valid() const { return static_cast<bool>(h_); }
  bool done() const { return h_ && h_.done(); }
  std::coroutine_handle<promise_type> handle() const { return h_; }
  std::exception_ptr exception() const { return h_.promise().exception; }

  /// Detach ownership (the Task takes over the root frame's lifetime).
  std::coroutine_handle<promise_type> release() {
    return std::exchange(h_, nullptr);
  }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
    h_.promise().continuation = parent;
    return h_;
  }
  void await_resume() {
    if (h_.promise().exception) std::rethrow_exception(h_.promise().exception);
  }

 private:
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = nullptr;
    }
  }
  std::coroutine_handle<promise_type> h_;
};

}  // namespace mercury::kernel
