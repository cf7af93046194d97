#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "hw/frame_alloc.hpp"
#include "hw/phys_mem.hpp"
#include "tests/recording_sink.hpp"
#include "tests/test_seed.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace mercury::hw {
namespace {

TEST(PhysicalMemory, ZeroInitialized) {
  PhysicalMemory mem(1024);
  EXPECT_EQ(mem.read_u32(0x1234), 0u);
  EXPECT_EQ(mem.read_u8(4096 * 100 + 7), 0u);
}

TEST(PhysicalMemory, ReadBackWrites) {
  PhysicalMemory mem(1024);
  mem.write_u32(0x1000, 0xDEADBEEF);
  mem.write_u8(0x2000, 0x7F);
  mem.write_u64(0x3000, 0x1122334455667788ull);
  EXPECT_EQ(mem.read_u32(0x1000), 0xDEADBEEFu);
  EXPECT_EQ(mem.read_u8(0x2000), 0x7Fu);
  EXPECT_EQ(mem.read_u64(0x3000), 0x1122334455667788ull);
}

TEST(PhysicalMemory, SparseBackingMaterializesOnWrite) {
  PhysicalMemory mem(1 << 18);  // 1 GB worth of frames
  EXPECT_EQ(mem.resident_chunks(), 0u);
  mem.write_u32(addr_of(1000), 1);
  EXPECT_EQ(mem.resident_chunks(), 1u);
  (void)mem.read_u32(addr_of(200000));  // read does not materialize
  EXPECT_EQ(mem.resident_chunks(), 1u);
}

TEST(PhysicalMemory, BulkBytesAcrossChunks) {
  PhysicalMemory mem(1024);
  std::vector<std::uint8_t> in(300000, 0xAB);
  mem.write_bytes(100, in);
  std::vector<std::uint8_t> out(300000);
  mem.read_bytes(100, out);
  EXPECT_EQ(in, out);
}

TEST(PhysicalMemory, FrameCopyAndZero) {
  PhysicalMemory mem(64);
  mem.write_u32(addr_of(3) + 40, 99);
  mem.copy_frame(5, 3);
  EXPECT_EQ(mem.read_u32(addr_of(5) + 40), 99u);
  mem.zero_frame(5);
  EXPECT_EQ(mem.read_u32(addr_of(5) + 40), 0u);
}

TEST(PhysicalMemory, CopyFromUnmaterializedZeroes) {
  PhysicalMemory mem(256);
  mem.write_u32(addr_of(9), 7);
  mem.copy_frame(9, 200);  // src never written
  EXPECT_EQ(mem.read_u32(addr_of(9)), 0u);
}

using mercury::testing::RecordingSink;

TEST(PhysicalMemory, FrameBytesIsNullOnlyForNeverMaterializedBacking) {
  PhysicalMemory mem(256);
  EXPECT_EQ(mem.frame_bytes(9), nullptr);
  mem.write_u32(addr_of(9) + 8, 0xFEEDu);
  const std::uint8_t* p = mem.frame_bytes(9);
  ASSERT_NE(p, nullptr);
  std::uint32_t v = 0;
  std::memcpy(&v, p + 8, sizeof(v));
  EXPECT_EQ(v, 0xFEEDu);
  // Frame 10 shares frame 9's chunk: materialized, and all zeros.
  const std::uint8_t* q = mem.frame_bytes(10);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(std::vector<std::uint8_t>(q, q + kPageSize),
            std::vector<std::uint8_t>(kPageSize, 0));
  EXPECT_EQ(mem.frame_bytes(200), nullptr);  // another chunk, never written
}

TEST(PhysicalMemory, WriteZeroFrameKeepsBackingUnmaterialized) {
  PhysicalMemory mem(256);
  RecordingSink sink(mem);
  mem.write_frame(200, nullptr);
  EXPECT_EQ(mem.resident_chunks(), 0u);
  EXPECT_EQ(sink.noted, std::vector<Pfn>{200});
  EXPECT_EQ(mem.frame_bytes(200), nullptr);
}

TEST(PhysicalMemory, WriteZeroFrameClearsAFrameHoldingData) {
  PhysicalMemory mem(256);
  mem.write_u32(addr_of(9) + 40, 99);
  mem.write_u32(addr_of(10) + 40, 77);
  RecordingSink sink(mem);
  mem.write_frame(9, nullptr);
  EXPECT_EQ(sink.noted, std::vector<Pfn>{9});
  std::vector<std::uint8_t> frame(kPageSize, 0xFF);
  mem.read_bytes(addr_of(9), frame);
  EXPECT_EQ(frame, std::vector<std::uint8_t>(kPageSize, 0));
  EXPECT_EQ(mem.read_u32(addr_of(10) + 40), 77u);  // its neighbour is kept
}

TEST(PhysicalMemory, WriteFrameCopiesBytesExactlyBetweenMemories) {
  PhysicalMemory src(256);
  PhysicalMemory dst(256);
  std::vector<std::uint8_t> pattern(kPageSize);
  for (std::size_t i = 0; i < pattern.size(); ++i)
    pattern[i] = static_cast<std::uint8_t>(i * 7 + 3);
  src.write_bytes(addr_of(5), pattern);
  dst.write_u32(addr_of(130) - 4, 0xA5A5A5A5u);  // the byte before the frame
  RecordingSink sink(dst);
  dst.write_frame(130, src.frame_bytes(5));
  EXPECT_EQ(sink.noted, std::vector<Pfn>{130});
  std::vector<std::uint8_t> out(kPageSize);
  dst.read_bytes(addr_of(130), out);
  EXPECT_EQ(out, pattern);
  EXPECT_EQ(dst.read_u32(addr_of(130) - 4), 0xA5A5A5A5u);
  EXPECT_EQ(dst.read_u32(addr_of(131)), 0u);  // nothing past the frame
}

TEST(PhysicalMemory, CopyFrameOntoItselfIsANoOp) {
  PhysicalMemory mem(256);
  std::vector<std::uint8_t> pattern(kPageSize);
  for (std::size_t i = 0; i < pattern.size(); ++i)
    pattern[i] = static_cast<std::uint8_t>(i ^ 0x5A);
  mem.write_bytes(addr_of(9), pattern);
  RecordingSink sink(mem);
  mem.copy_frame(9, 9);      // materialized: src and dst are one pointer
  mem.copy_frame(200, 200);  // never materialized: stays that way
  EXPECT_EQ(sink.noted, (std::vector<Pfn>{9, 200}));
  std::vector<std::uint8_t> out(kPageSize);
  mem.read_bytes(addr_of(9), out);
  EXPECT_EQ(out, pattern);
  EXPECT_EQ(mem.resident_chunks(), 1u);
}

TEST(PhysicalMemory, OutOfRangeIsInvariantError) {
  PhysicalMemory mem(16);
  EXPECT_THROW(mem.read_u32(addr_of(16)), util::InvariantError);
  EXPECT_THROW(mem.write_u8(addr_of(20), 1), util::InvariantError);
}

TEST(FrameAllocator, AllocatesDistinctFrames) {
  FrameAllocator fa(64);
  std::set<Pfn> seen;
  Pfn f = 0;
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(fa.alloc_contiguous(1, f));
    EXPECT_TRUE(seen.insert(f).second) << "duplicate frame " << f;
  }
  EXPECT_FALSE(fa.alloc_contiguous(1, f)) << "allocated beyond capacity";
}

TEST(FrameAllocator, FreeMakesReusable) {
  FrameAllocator fa(4);
  Pfn f[4];
  for (auto& x : f) ASSERT_TRUE(fa.alloc_contiguous(1, x));
  fa.free(f[2]);
  Pfn again = 0;
  ASSERT_TRUE(fa.alloc_contiguous(1, again));
  EXPECT_EQ(again, f[2]);
}

TEST(FrameAllocator, DoubleFreeIsInvariantError) {
  FrameAllocator fa(4);
  Pfn f = 0;
  ASSERT_TRUE(fa.alloc_contiguous(1, f));
  fa.free(f);
  EXPECT_THROW(fa.free(f), util::InvariantError);
}

TEST(FrameAllocator, ReserveRangeExcludedFromAllocation) {
  FrameAllocator fa(32);
  fa.reserve_range(0, 16);
  Pfn f = 0;
  while (fa.alloc_contiguous(1, f)) EXPECT_GE(f, 16u);
  EXPECT_EQ(fa.frames_in_use(), 32u);
}

TEST(FrameAllocator, ContiguousAllocation) {
  FrameAllocator fa(64);
  Pfn first = 0;
  ASSERT_TRUE(fa.alloc_contiguous(10, first));
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(fa.is_allocated(first + i));
  Pfn second = 0;
  ASSERT_TRUE(fa.alloc_contiguous(10, second));
  EXPECT_TRUE(second >= first + 10 || second + 10 <= first);
}

TEST(FrameAllocator, ContiguousFailsWhenFragmented) {
  FrameAllocator fa(8);
  fa.reserve_range(3, 1);  // split the space into runs of 3 and 4
  Pfn f = 0;
  EXPECT_FALSE(fa.alloc_contiguous(5, f));
  EXPECT_TRUE(fa.alloc_contiguous(4, f));
}

TEST(FrameAllocator, Counters) {
  FrameAllocator fa(10);
  EXPECT_EQ(fa.frames_free(), 10u);
  Pfn f = 0;
  fa.alloc_contiguous(1, f);
  EXPECT_EQ(fa.frames_in_use(), 1u);
  EXPECT_EQ(fa.frames_free(), 9u);
}

/// The bit-at-a-time first fit that the word bitmap replaced, kept as the
/// reference the allocator must agree with.
struct BitScanModel {
  explicit BitScanModel(std::size_t frames) : allocated(frames, false) {}

  bool alloc_contiguous(std::size_t count, Pfn& first_out) {
    std::size_t run = 0;
    for (std::size_t i = 0; i < allocated.size(); ++i) {
      run = allocated[i] ? 0 : run + 1;
      if (run == count) {
        const Pfn first = static_cast<Pfn>(i + 1 - count);
        for (std::size_t j = 0; j < count; ++j) allocated[first + j] = true;
        in_use += count;
        first_out = first;
        return true;
      }
    }
    return false;
  }
  bool range_free(Pfn first, std::size_t count) const {
    for (std::size_t i = first; i < first + count; ++i)
      if (allocated[i]) return false;
    return true;
  }
  void reserve_range(Pfn first, std::size_t count) {
    for (std::size_t i = first; i < first + count; ++i) allocated[i] = true;
    in_use += count;
  }
  void free(Pfn pfn) {
    allocated[pfn] = false;
    --in_use;
  }

  std::vector<bool> allocated;
  std::size_t in_use = 0;
};

TEST(FrameAllocator, BitmapAgreesWithBitScanModel) {
  util::Rng rng(mercury::testing::test_seed(0xB17'5CA4));
  // One word short, one word, one frame over a word, a 65-word map with a
  // 17-frame tail, and a 128 MB node.
  for (const std::size_t size : {1u, 63u, 64u, 65u, 4113u, 32768u}) {
    SCOPED_TRACE("frames=" + std::to_string(size));
    FrameAllocator fa(size);
    BitScanModel model(size);
    const std::size_t lengths[] = {1, 63, 64, 65, 200, size};
    auto agree = [&](const std::string& op) {
      ASSERT_EQ(fa.frames_free(), size - model.in_use) << op;
      for (std::size_t p = 0; p < size; ++p)
        if (fa.is_allocated(static_cast<Pfn>(p)) != model.allocated[p])
          FAIL() << op << ": pfn " << p << " allocated="
                 << fa.is_allocated(static_cast<Pfn>(p));
    };
    // Each operation is followed by a scan of every frame: fewer operations
    // on the larger maps keep the test near 100 ms.
    const std::size_t ops =
        std::clamp<std::size_t>(6'000'000 / size, 400, 3000);
    for (std::size_t done = 0; done < ops;) {
      const std::uint64_t kind = rng.below(20);
      if (kind < 9) {
        const std::size_t len = lengths[rng.below(std::size(lengths))];
        Pfn got = 0xDEAD;
        Pfn want = 0xDEAD;
        const bool ok = fa.alloc_contiguous(len, got);
        const std::string op = "alloc_contiguous(" + std::to_string(len) + ")";
        ASSERT_EQ(ok, model.alloc_contiguous(len, want)) << op;
        ASSERT_EQ(got, want) << op;
        ASSERT_NO_FATAL_FAILURE(agree(op));
        ++done;
      } else if (kind < 11) {
        const Pfn first = static_cast<Pfn>(rng.below(size));
        const std::size_t len = std::min<std::size_t>(
            lengths[rng.below(std::size(lengths))], size - first);
        const std::string op = "reserve_range(" + std::to_string(first) +
                               ", " + std::to_string(len) + ")";
        if (model.range_free(first, len)) {
          fa.reserve_range(first, len);
          model.reserve_range(first, len);
        } else {
          // An overlap throws and reserves nothing.
          EXPECT_THROW(fa.reserve_range(first, len), util::InvariantError)
              << op;
        }
        ASSERT_NO_FATAL_FAILURE(agree(op));
        ++done;
      } else {
        // Free a stretch of up to 70 allocated frames from the first one at
        // or after a random frame, one free() at a time.
        std::size_t p = rng.below(size);
        std::size_t seen = 0;
        while (!model.allocated[p] && seen++ < size) p = (p + 1) % size;
        if (!model.allocated[p]) continue;
        for (std::size_t n = 1 + rng.below(70);
             n > 0 && p < size && model.allocated[p]; --n, ++p, ++done) {
          fa.free(static_cast<Pfn>(p));
          model.free(static_cast<Pfn>(p));
          ASSERT_NO_FATAL_FAILURE(agree("free(" + std::to_string(p) + ")"));
        }
      }
    }
  }
}

}  // namespace
}  // namespace mercury::hw
