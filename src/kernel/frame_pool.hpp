// The kernel's pool of physical frames.
//
// A native kernel is granted (almost) all of RAM at boot; a guest domain is
// granted the frame list its domain was built with. The pool remembers every
// frame it owns — this is the set the VMM walks when rebuilding its
// owner/type/count table during a Mercury attach.
#pragma once

#include <cstddef>
#include <vector>

#include "hw/pte.hpp"
#include "hw/types.hpp"
#include "util/assert.hpp"

namespace mercury::kernel {

class FramePool {
 public:
  FramePool() = default;

  /// Grant a frame range to this pool (boot-time).
  void grant(hw::Pfn first, std::size_t count) {
    owned_.reserve(owned_.size() + count);
    free_.reserve(free_.size() + count);
    for (std::size_t i = 0; i < count; ++i) {
      const hw::Pfn pfn = first + static_cast<hw::Pfn>(i);
      owned_.push_back(pfn);
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

  std::size_t owned_count() const { return owned_.size(); }
  std::size_t free_count() const { return free_.size(); }
  std::size_t used_count() const { return owned_.size() - free_.size(); }

  /// Every frame this kernel was ever granted (owner-table rebuild walks
  /// this; migration transfers it).
  const std::vector<hw::Pfn>& owned() const { return owned_; }

  /// Rewrite all pfns through a translation table (migration restore).
  template <typename Fn>
  void remap(Fn&& translate) {
    for (auto& p : owned_) p = translate(p);
    for (auto& p : free_) p = translate(p);
  }

  /// Dirty-frame observer for warm re-attach: allocation-state changes mark
  /// the frame dirty so a retained page-info table revalidates it.
  void set_dirty_sink(hw::DirtySink* sink) { dirty_sink_ = sink; }

 private:
  std::vector<hw::Pfn> owned_;
  std::vector<hw::Pfn> free_;
  hw::DirtySink* dirty_sink_ = nullptr;
};

}  // namespace mercury::kernel
