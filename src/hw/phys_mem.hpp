// Simulated physical memory.
//
// Backing storage is sparse (allocated in 64-page chunks on first write) so
// that a paper-scale 900 000 KB machine can be instantiated without claiming
// 900 MB of host RAM. Reads of never-written memory return zero bytes, which
// models cleared RAM.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "hw/pte.hpp"
#include "hw/types.hpp"

namespace mercury::hw {

class PhysicalMemory {
 public:
  explicit PhysicalMemory(std::size_t total_frames);

  std::size_t total_frames() const { return total_frames_; }
  PhysAddr size_bytes() const { return addr_of(static_cast<Pfn>(total_frames_)); }

  std::uint8_t read_u8(PhysAddr pa) const;
  std::uint32_t read_u32(PhysAddr pa) const;
  std::uint64_t read_u64(PhysAddr pa) const;
  void write_u8(PhysAddr pa, std::uint8_t v);
  void write_u32(PhysAddr pa, std::uint32_t v);
  void write_u64(PhysAddr pa, std::uint64_t v);

  void read_bytes(PhysAddr pa, std::span<std::uint8_t> out) const;
  void write_bytes(PhysAddr pa, std::span<const std::uint8_t> in);

  /// The frame's 4 KB in the backing, or nullptr when that backing was never
  /// materialized and the frame therefore reads as zeros. Backing is never
  /// released, so the pointer stays valid for the memory's lifetime.
  const std::uint8_t* frame_bytes(Pfn pfn) const;

  /// Store a whole frame: 4 KB from `src`, or zeros through zero_frame when
  /// `src` is nullptr (never-materialized backing stays unmaterialized).
  /// Either way the dirty sink is told once.
  void write_frame(Pfn pfn, const std::uint8_t* src);

  /// Zero an entire frame (models a streaming clear; cost is charged by the
  /// caller via the cost model).
  void zero_frame(Pfn pfn);

  /// Copy a whole frame: write_frame(dst, frame_bytes(src)).
  void copy_frame(Pfn dst, Pfn src);

  /// Number of backing chunks actually materialized (test/diagnostic hook).
  std::size_t resident_chunks() const;

  /// Install (or clear, with nullptr) a dirty-frame observer. Every store
  /// path notifies the sink with each frame it touches; the sink outlives
  /// the registration (callers must clear it before destroying the sink).
  void set_dirty_sink(DirtySink* sink) { dirty_sink_ = sink; }
  DirtySink* dirty_sink() const { return dirty_sink_; }

 private:
  void note_write(PhysAddr pa) {
    if (dirty_sink_) dirty_sink_->note_dirty(pfn_of(pa));
  }
  static constexpr std::size_t kChunkPages = 64;
  static constexpr std::size_t kChunkBytes = kChunkPages * kPageSize;

  std::span<std::uint8_t> chunk_for(PhysAddr pa, bool create);
  std::span<const std::uint8_t> chunk_for(PhysAddr pa) const;

  std::size_t total_frames_;
  std::vector<std::unique_ptr<std::uint8_t[]>> chunks_;
  DirtySink* dirty_sink_ = nullptr;
};

}  // namespace mercury::hw
