#include "kernel/coro.hpp"

#include <array>
#include <new>

#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>  // no-op macros outside ASan
#endif
#ifndef ASAN_POISON_MEMORY_REGION
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace mercury::kernel::detail {

namespace {

constexpr std::size_t kClassBytes = 64;
constexpr std::size_t kClasses = 16;  // frames up to 1 KB are pooled

// A parked frame's first word links it to the next one of its class.
struct FreeLists {
  std::array<void*, kClasses> head{};
  bool drained = false;  // the thread is exiting: bypass the lists
};

// Trivially destructible, so it stays usable while the thread's (and, on
// the main thread, the program's) other objects are destroyed.
thread_local FreeLists lists;

void* pop(std::size_t cls) {
  void* frame = lists.head[cls];
  ASAN_UNPOISON_MEMORY_REGION(frame, (cls + 1) * kClassBytes);
  lists.head[cls] = *static_cast<void**>(frame);
  return frame;
}

// Hands every parked frame back to the heap at thread exit; a frame freed
// later (by a static or thread_local destroyed after this) skips the lists.
struct Drain {
  ~Drain() {
    for (std::size_t cls = 0; cls < kClasses; ++cls)
      while (lists.head[cls] != nullptr) ::operator delete(pop(cls));
    lists.drained = true;
  }
};

}  // namespace

void* alloc_frame(std::size_t bytes) {
  const std::size_t cls = (bytes - 1) / kClassBytes;
  if (cls >= kClasses || lists.drained) return ::operator new(bytes);
  if (lists.head[cls] != nullptr) return pop(cls);
  return ::operator new((cls + 1) * kClassBytes);
}

void free_frame(void* frame, std::size_t bytes) noexcept {
  const std::size_t cls = (bytes - 1) / kClassBytes;
  if (cls >= kClasses || lists.drained) {
    ::operator delete(frame);
    return;
  }
  static thread_local Drain drain;  // registers the exit-time drain
  *static_cast<void**>(frame) = lists.head[cls];
  lists.head[cls] = frame;
  ASAN_POISON_MEMORY_REGION(frame, (cls + 1) * kClassBytes);
}

}  // namespace mercury::kernel::detail
