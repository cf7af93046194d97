// The kernel's pool of physical frames.
//
// A kernel is granted one frame range at boot: (almost) all of RAM for a
// native kernel, its domain's frames for a guest. The pool keeps the range,
// which the VMM resets when it rebuilds its owner/type/count table during a
// Mercury attach, and the range's free frames.
#pragma once

#include <cstddef>
#include <vector>

#include "hw/pte.hpp"
#include "hw/types.hpp"
#include "util/assert.hpp"

namespace mercury::kernel {

class FramePool {
 public:
  /// Grant the pool its one frame range [first, first + count) at boot.
  void grant(hw::Pfn first, std::size_t count) {
    MERC_CHECK_MSG(count_ == 0, "frame pool granted twice");
    first_ = first;
    count_ = count;
    free_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const hw::Pfn pfn = first + static_cast<hw::Pfn>(i);
      free_.push_back(pfn);
      if (dirty_sink_) dirty_sink_->note_dirty(pfn);
    }
  }

  bool alloc(hw::Pfn& out) {
    if (free_.empty()) return false;
    out = free_.back();
    free_.pop_back();
    return true;
  }

  void free(hw::Pfn pfn) {
    free_.push_back(pfn);
    // A freed frame may be reallocated with a different role (data page
    // becoming a page table, or vice versa): any metadata retained about it
    // across a detach is stale from this point on.
    if (dirty_sink_) dirty_sink_->note_dirty(pfn);
  }

  /// First frame of the granted range (owner-table rebuild walks the range;
  /// migration moves it).
  hw::Pfn first() const { return first_; }
  std::size_t owned_count() const { return count_; }
  std::size_t free_count() const { return free_.size(); }
  std::size_t used_count() const { return count_ - free_.size(); }

  /// Move the range to start at `first`, every frame keeping its offset
  /// (migration restore).
  void rebase(hw::Pfn first) {
    for (auto& p : free_) p = first + (p - first_);
    first_ = first;
  }

  /// Dirty-frame observer for warm re-attach: allocation-state changes mark
  /// the frame dirty so a retained page-info table revalidates it.
  void set_dirty_sink(hw::DirtySink* sink) { dirty_sink_ = sink; }

 private:
  hw::Pfn first_ = 0;
  std::size_t count_ = 0;
  std::vector<hw::Pfn> free_;
  hw::DirtySink* dirty_sink_ = nullptr;
};

}  // namespace mercury::kernel
