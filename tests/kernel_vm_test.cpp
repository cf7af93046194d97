// Virtual memory: mmap/munmap/mprotect, demand paging, VMA splitting.
#include "tests/kernel_fixture.hpp"

namespace mercury::testing {
namespace {

using kernel::Sub;
using kernel::Sys;

using VmTest = KernelFixture;

TEST_F(VmTest, DemandPagingMapsOnTouch) {
  EXPECT_TRUE(run_task([&](Sys& s) -> Sub<void> {
    const hw::VirtAddr va = s.mmap(8 * hw::kPageSize, true);
    EXPECT_FALSE(s.kernel().machine().mmu().peek_pte(s.cpu(), va).has_value());
    const auto faults_before = s.kernel().stats().page_faults;
    s.touch_pages(va, 8, true);
    EXPECT_EQ(s.kernel().stats().page_faults - faults_before, 8u);
    EXPECT_TRUE(s.kernel().machine().mmu().peek_pte(s.cpu(), va).has_value());
    // Second touch: no more faults.
    const auto faults_mid = s.kernel().stats().page_faults;
    s.touch_pages(va, 8, true);
    EXPECT_EQ(s.kernel().stats().page_faults, faults_mid);
    co_return;
  }));
}

TEST_F(VmTest, AnonymousPagesAreZeroed) {
  EXPECT_TRUE(run_task([&](Sys& s) -> Sub<void> {
    const hw::VirtAddr va = s.mmap(hw::kPageSize, true);
    EXPECT_EQ(s.kernel().machine().mmu().read_u32(s.cpu(), va + 64), 0u);
    co_return;
  }));
}

TEST_F(VmTest, MunmapUnmapsAndFreesFrames) {
  EXPECT_TRUE(run_task([&](Sys& s) -> Sub<void> {
    const std::size_t free_before = s.kernel().pool().free_count();
    const hw::VirtAddr va = s.mmap(16 * hw::kPageSize, true);
    s.touch_pages(va, 16, true);
    EXPECT_LT(s.kernel().pool().free_count(), free_before);
    s.munmap(va, 16 * hw::kPageSize);
    EXPECT_FALSE(s.kernel().machine().mmu().peek_pte(s.cpu(), va).has_value());
    // Frames returned (modulo the L1 table that stays).
    EXPECT_GE(s.kernel().pool().free_count() + 2, free_before);
    co_return;
  }));
}

TEST_F(VmTest, PartialMunmapSplitsVma) {
  EXPECT_TRUE(run_task([&](Sys& s) -> Sub<void> {
    const hw::VirtAddr va = s.mmap(8 * hw::kPageSize, true);
    s.touch_pages(va, 8, true);
    // Punch out pages 2..3.
    s.munmap(va + 2 * hw::kPageSize, 2 * hw::kPageSize);
    auto& mmu = s.kernel().machine().mmu();
    EXPECT_TRUE(mmu.peek_pte(s.cpu(), va).has_value());
    EXPECT_FALSE(mmu.peek_pte(s.cpu(), va + 2 * hw::kPageSize).has_value());
    EXPECT_TRUE(mmu.peek_pte(s.cpu(), va + 4 * hw::kPageSize).has_value());
    // Touching the hole kills; touching the tail works.
    s.touch_pages(va + 4 * hw::kPageSize, 4, true);
    co_return;
  }));
}

TEST_F(VmTest, MprotectRevokesWrite) {
  EXPECT_TRUE(run_task([&](Sys& s) -> Sub<void> {
    s.task().catch_segv = true;
    const hw::VirtAddr va = s.mmap(2 * hw::kPageSize, true);
    s.touch_pages(va, 2, true);
    s.mprotect(va, hw::kPageSize, false);
    s.prot_fault_once(va);  // first page: fault
    EXPECT_EQ(s.task().segv_caught, 1u);
    s.touch_pages(va + hw::kPageSize, 1, true);  // second page untouched
    // Reads on the protected page still work.
    s.touch_pages(va, 1, false);
    co_return;
  }));
}

TEST_F(VmTest, MmapFixedReplacesInPlace) {
  EXPECT_TRUE(run_task([&](Sys& s) -> Sub<void> {
    const hw::VirtAddr va = s.mmap(4 * hw::kPageSize, true);
    auto& mmu = s.kernel().machine().mmu();
    mmu.write_u32(s.cpu(), va, 77);
    const hw::VirtAddr again = s.mmap_fixed(va, 4 * hw::kPageSize, true);
    EXPECT_EQ(again, va);
    // Fresh anonymous memory: the old content is gone.
    EXPECT_EQ(mmu.read_u32(s.cpu(), va), 0u);
    co_return;
  }));
}

TEST_F(VmTest, FileBackedFaultsChargeMoreThanWarmTouch) {
  EXPECT_TRUE(run_task([&](Sys& s) -> Sub<void> {
    const hw::VirtAddr va = s.mmap(64 * hw::kPageSize, false, /*inode=*/0);
    const hw::Cycles t0 = s.cpu().now();
    s.touch_pages(va, 64, false);
    const hw::Cycles cold = s.cpu().now() - t0;
    const hw::Cycles t1 = s.cpu().now();
    s.touch_pages(va, 64, false);
    const hw::Cycles warm = s.cpu().now() - t1;
    EXPECT_GT(cold, 5 * warm);
    co_return;
  }));
}

TEST_F(VmTest, ResidentPageAccounting) {
  EXPECT_TRUE(run_task([&](Sys& s) -> Sub<void> {
    const std::size_t base = s.task().aspace->resident_pages();
    const hw::VirtAddr va = s.mmap(10 * hw::kPageSize, true);
    s.touch_pages(va, 10, true);
    EXPECT_EQ(s.task().aspace->resident_pages(), base + 10);
    s.munmap(va, 10 * hw::kPageSize);
    EXPECT_EQ(s.task().aspace->resident_pages(), base);
    co_return;
  }));
}

TEST_F(VmTest, PageTableFramesEnumerated) {
  EXPECT_TRUE(run_task([&](Sys& s) -> Sub<void> {
    const auto before = s.task().aspace->page_table_frames().size();
    // Map far enough away to require a new L1.
    const hw::VirtAddr va = s.mmap(hw::kPageSize, true);
    s.touch_pages(va, 1, true);
    EXPECT_GE(s.task().aspace->page_table_frames().size(), before);
    EXPECT_EQ(s.task().aspace->page_table_frames().front(),
              s.task().aspace->page_directory());
    co_return;
  }));
}

TEST_F(VmTest, DirtyHarvestFindsWrittenPages) {
  EXPECT_TRUE(run_task([&](Sys& s) -> Sub<void> {
    const hw::VirtAddr va = s.mmap(6 * hw::kPageSize, true);
    s.touch_pages(va, 6, true);
    std::vector<hw::Pfn> dirty;
    // Demand-install writes set the dirty bit via the MMU.
    const std::size_t n = s.task().aspace->collect_and_clear_dirty(s.cpu(), &dirty);
    EXPECT_GE(n, 6u);
    // After clearing, nothing is dirty until the next write.
    const std::size_t n2 = s.task().aspace->collect_and_clear_dirty(s.cpu(), nullptr);
    EXPECT_EQ(n2, 0u);
    s.kernel().machine().cpu(0).tlb().flush_global();
    s.touch_pages(va, 2, true);
    const std::size_t n3 = s.task().aspace->collect_and_clear_dirty(s.cpu(), nullptr);
    EXPECT_EQ(n3, 2u);
    co_return;
  }));
}

TEST_F(VmTest, GuardGapBetweenMmaps) {
  EXPECT_TRUE(run_task([&](Sys& s) -> Sub<void> {
    const hw::VirtAddr a = s.mmap(hw::kPageSize, true);
    const hw::VirtAddr b = s.mmap(hw::kPageSize, true);
    EXPECT_GE(b, a + 2 * hw::kPageSize) << "no guard gap between mappings";
    co_return;
  }));
}

TEST_F(VmTest, WriteToReadOnlyVmaKills) {
  const kernel::Pid pid = k->spawn("wr-ro", [](Sys& s) -> Sub<void> {
    const hw::VirtAddr va = s.mmap(hw::kPageSize, /*writable=*/false);
    s.touch_pages(va, 1, /*write=*/true);
    co_return;
  });
  EXPECT_TRUE(k->run_until(
      [&] {
        auto* t = k->find_task(pid);
        return t && t->state == kernel::TaskState::kZombie;
      },
      50 * hw::kCyclesPerMillisecond));
  EXPECT_EQ(k->find_task(pid)->exit_status, -11);
}

TEST_F(VmTest, FramePoolHoldsTheOneRangeBootGranted) {
  kernel::FramePool& pool = k->pool();
  // MiniKernel boots on the (mem_mb - 8) MB range it reserved.
  const std::size_t count = (64 - 8) * 256;
  EXPECT_EQ(pool.first(), k->base_pfn());
  EXPECT_EQ(pool.owned_count(), count);
  EXPECT_EQ(pool.used_count() + pool.free_count(), count);
  // Boot's page tables came out of the range.
  for (const hw::Pfn l1 : k->kernel_l1_frames()) {
    EXPECT_GE(l1, pool.first());
    EXPECT_LT(l1, pool.first() + count);
  }
  EXPECT_THROW(pool.grant(pool.first() + count, 16), util::InvariantError)
      << "a pool holds one range";
  EXPECT_EQ(pool.owned_count(), count);

  // used_count follows allocations and frees.
  const std::size_t used = pool.used_count();
  std::vector<hw::Pfn> frames(5);
  for (hw::Pfn& pfn : frames) {
    ASSERT_TRUE(pool.alloc(pfn));
    EXPECT_GE(pfn, pool.first());
    EXPECT_LT(pfn, pool.first() + count);
  }
  EXPECT_EQ(pool.used_count(), used + frames.size());
  EXPECT_EQ(pool.free_count(), count - used - frames.size());
  for (const hw::Pfn pfn : frames) pool.free(pfn);
  EXPECT_EQ(pool.used_count(), used);
}

}  // namespace
}  // namespace mercury::testing
