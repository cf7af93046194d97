// Physical frame allocator (firmware-level): hands out page frames to the
// software stack. Ownership/type tracking for isolation lives in the VMM's
// PageInfo table, not here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hw/types.hpp"

namespace mercury::hw {

class FrameAllocator {
 public:
  explicit FrameAllocator(std::size_t total_frames);

  /// Allocate `count` physically contiguous frames: the lowest-numbered run
  /// that fits (first fit). Returns true and sets `first_out` on success.
  bool alloc_contiguous(std::size_t count, Pfn& first_out);

  void free(Pfn pfn);

  /// Mark a fixed range as permanently reserved (e.g. the pre-cached VMM's
  /// home). Must not overlap previously allocated frames; on overlap it
  /// throws and reserves nothing.
  void reserve_range(Pfn first, std::size_t count);

  bool is_allocated(Pfn pfn) const;
  std::size_t total_frames() const { return total_frames_; }
  std::size_t frames_in_use() const { return in_use_; }
  std::size_t frames_free() const { return total_frames_ - in_use_; }

 private:
  /// Bit i of word i / 64 is set when frame i is allocated. The bits past
  /// the last frame are set, so no scan hands them out.
  std::vector<std::uint64_t> words_;
  std::size_t total_frames_;
  std::size_t in_use_ = 0;
};

}  // namespace mercury::hw
