#include "hw/frame_alloc.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"

namespace mercury::hw {

namespace {

constexpr std::size_t kWordBits = 64;
constexpr std::uint64_t kFull = ~std::uint64_t{0};

/// Call fn(word index, mask) for each word that frames [first, first + count)
/// touch; the mask holds those frames' bits of the word.
template <typename Fn>
void for_each_word(std::size_t first, std::size_t count, Fn fn) {
  for (std::size_t i = first, end = first + count; i < end;) {
    const std::size_t lo = i % kWordBits;
    const std::size_t hi = std::min(kWordBits, lo + (end - i));
    const std::uint64_t below_hi =
        hi == kWordBits ? kFull : (std::uint64_t{1} << hi) - 1;
    fn(i / kWordBits, below_hi & (kFull << lo));
    i += hi - lo;
  }
}

}  // namespace

FrameAllocator::FrameAllocator(std::size_t total_frames)
    : words_((total_frames + kWordBits - 1) / kWordBits, 0),
      total_frames_(total_frames) {
  if (const std::size_t tail = total_frames % kWordBits; tail != 0)
    words_.back() = kFull << tail;
}

bool FrameAllocator::alloc_contiguous(std::size_t count, Pfn& first_out) {
  MERC_CHECK(count > 0);
  // The free run being extended: `run` frames from frame `start`.
  std::size_t start = 0;
  std::size_t run = 0;
  for (std::size_t w = 0; w < words_.size() && run < count; ++w) {
    const std::uint64_t word = words_[w];
    // Alternate stretches of free (clear) and taken (set) bits: a full word
    // is one taken stretch, an empty word one free stretch of 64 frames.
    for (std::size_t b = 0; b < kWordBits;) {
      const std::size_t free_bits = std::min<std::size_t>(
          std::countr_zero(word >> b), kWordBits - b);
      if (free_bits > 0) {
        if (run == 0) start = w * kWordBits + b;
        run += free_bits;
        if (run >= count) break;
        b += free_bits;
        if (b == kWordBits) break;
      }
      run = 0;
      b += std::countr_one(word >> b);
    }
  }
  if (run < count) return false;
  for_each_word(start, count,
                [&](std::size_t w, std::uint64_t mask) { words_[w] |= mask; });
  in_use_ += count;
  first_out = static_cast<Pfn>(start);
  return true;
}

void FrameAllocator::free(Pfn pfn) {
  MERC_CHECK_MSG(pfn < total_frames_, "free of pfn out of range: " << pfn);
  std::uint64_t& word = words_[pfn / kWordBits];
  const std::uint64_t bit = std::uint64_t{1} << (pfn % kWordBits);
  MERC_CHECK_MSG(word & bit, "double free of pfn " << pfn);
  word &= ~bit;
  --in_use_;
}

void FrameAllocator::reserve_range(Pfn first, std::size_t count) {
  MERC_CHECK(first + count <= total_frames_);
  for_each_word(first, count, [&](std::size_t w, std::uint64_t mask) {
    const std::uint64_t taken = words_[w] & mask;
    MERC_CHECK_MSG(taken == 0, "reserve_range overlaps allocated frame "
                                   << w * kWordBits + std::countr_zero(taken));
  });
  for_each_word(first, count,
                [&](std::size_t w, std::uint64_t mask) { words_[w] |= mask; });
  in_use_ += count;
}

bool FrameAllocator::is_allocated(Pfn pfn) const {
  MERC_CHECK(pfn < total_frames_);
  return (words_[pfn / kWordBits] >> (pfn % kWordBits)) & 1;
}

}  // namespace mercury::hw
