#include "hw/phys_mem.hpp"

#include <cstring>

#include "util/assert.hpp"

namespace mercury::hw {

PhysicalMemory::PhysicalMemory(std::size_t total_frames)
    : total_frames_(total_frames),
      chunks_((total_frames + kChunkPages - 1) / kChunkPages) {
  MERC_CHECK(total_frames > 0);
}

std::span<std::uint8_t> PhysicalMemory::chunk_for(PhysAddr pa, bool create) {
  MERC_CHECK_MSG(pa < size_bytes(), "physical address 0x" << std::hex << pa
                                                          << " out of range");
  const std::size_t idx = static_cast<std::size_t>(pa / kChunkBytes);
  if (!chunks_[idx]) {
    if (!create) return {};
    chunks_[idx] = std::make_unique<std::uint8_t[]>(kChunkBytes);  // zeroed
  }
  return {chunks_[idx].get(), kChunkBytes};
}

std::span<const std::uint8_t> PhysicalMemory::chunk_for(PhysAddr pa) const {
  MERC_CHECK_MSG(pa < size_bytes(), "physical address 0x" << std::hex << pa
                                                          << " out of range");
  const std::size_t idx = static_cast<std::size_t>(pa / kChunkBytes);
  if (!chunks_[idx]) return {};
  return {chunks_[idx].get(), kChunkBytes};
}

std::uint8_t PhysicalMemory::read_u8(PhysAddr pa) const {
  auto c = chunk_for(pa);
  return c.empty() ? 0 : c[pa % kChunkBytes];
}

std::uint32_t PhysicalMemory::read_u32(PhysAddr pa) const {
  auto c = chunk_for(pa);
  if (c.empty()) return 0;
  MERC_CHECK_MSG(pa % kChunkBytes + 4 <= kChunkBytes, "unaligned u32 across chunk");
  std::uint32_t v;
  std::memcpy(&v, c.data() + pa % kChunkBytes, sizeof(v));
  return v;
}

std::uint64_t PhysicalMemory::read_u64(PhysAddr pa) const {
  auto c = chunk_for(pa);
  if (c.empty()) return 0;
  MERC_CHECK_MSG(pa % kChunkBytes + 8 <= kChunkBytes, "unaligned u64 across chunk");
  std::uint64_t v;
  std::memcpy(&v, c.data() + pa % kChunkBytes, sizeof(v));
  return v;
}

void PhysicalMemory::write_u8(PhysAddr pa, std::uint8_t v) {
  chunk_for(pa, true)[pa % kChunkBytes] = v;
  note_write(pa);
}

void PhysicalMemory::write_u32(PhysAddr pa, std::uint32_t v) {
  auto c = chunk_for(pa, true);
  MERC_CHECK_MSG(pa % kChunkBytes + 4 <= kChunkBytes, "unaligned u32 across chunk");
  std::memcpy(c.data() + pa % kChunkBytes, &v, sizeof(v));
  note_write(pa);
}

void PhysicalMemory::write_u64(PhysAddr pa, std::uint64_t v) {
  auto c = chunk_for(pa, true);
  MERC_CHECK_MSG(pa % kChunkBytes + 8 <= kChunkBytes, "unaligned u64 across chunk");
  std::memcpy(c.data() + pa % kChunkBytes, &v, sizeof(v));
  note_write(pa);
}

void PhysicalMemory::read_bytes(PhysAddr pa, std::span<std::uint8_t> out) const {
  std::size_t done = 0;
  while (done < out.size()) {
    const PhysAddr at = pa + done;
    const std::size_t in_chunk = kChunkBytes - at % kChunkBytes;
    const std::size_t n = std::min(in_chunk, out.size() - done);
    auto c = chunk_for(at);
    if (c.empty())
      std::memset(out.data() + done, 0, n);
    else
      std::memcpy(out.data() + done, c.data() + at % kChunkBytes, n);
    done += n;
  }
}

void PhysicalMemory::write_bytes(PhysAddr pa, std::span<const std::uint8_t> in) {
  std::size_t done = 0;
  while (done < in.size()) {
    const PhysAddr at = pa + done;
    const std::size_t in_chunk = kChunkBytes - at % kChunkBytes;
    const std::size_t n = std::min(in_chunk, in.size() - done);
    auto c = chunk_for(at, true);
    std::memcpy(c.data() + at % kChunkBytes, in.data() + done, n);
    // A single chunk span may still straddle page frames: notify each one.
    if (dirty_sink_) {
      for (Pfn p = pfn_of(at); p <= pfn_of(at + n - 1); ++p)
        dirty_sink_->note_dirty(p);
    }
    done += n;
  }
}

const std::uint8_t* PhysicalMemory::frame_bytes(Pfn pfn) const {
  auto c = chunk_for(addr_of(pfn));
  return c.empty() ? nullptr : c.data() + addr_of(pfn) % kChunkBytes;
}

void PhysicalMemory::write_frame(Pfn pfn, const std::uint8_t* src) {
  if (src == nullptr) {
    zero_frame(pfn);
    return;
  }
  std::uint8_t* dst =
      chunk_for(addr_of(pfn), true).data() + addr_of(pfn) % kChunkBytes;
  // A frame copied onto itself arrives here with src == dst, where memcpy
  // would be undefined; frames never partially overlap.
  if (dst != src) std::memcpy(dst, src, kPageSize);
  note_write(addr_of(pfn));
}

void PhysicalMemory::zero_frame(Pfn pfn) {
  // Even when the chunk was never materialized (contents already zero) the
  // clear is a store as far as dirty tracking goes: the caller is recycling
  // the frame and any retained metadata about it is now stale.
  note_write(addr_of(pfn));
  auto c = chunk_for(addr_of(pfn), false);
  if (c.empty()) return;  // never materialized == already zero
  std::memset(c.data() + addr_of(pfn) % kChunkBytes, 0, kPageSize);
}

void PhysicalMemory::copy_frame(Pfn dst, Pfn src) {
  write_frame(dst, frame_bytes(src));
}

std::size_t PhysicalMemory::resident_chunks() const {
  std::size_t n = 0;
  for (const auto& c : chunks_)
    if (c) ++n;
  return n;
}

}  // namespace mercury::hw
