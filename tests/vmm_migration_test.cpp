// Live migration + checkpoint/restore correctness.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cluster/depend.hpp"
#include "cluster/fabric.hpp"
#include "kernel/syscalls.hpp"
#include "obs/obs.hpp"
#include "tests/injector_guard.hpp"
#include "vmm/checkpoint.hpp"
#include "vmm/migrate.hpp"

namespace mercury::testing {
namespace {

using cluster::Fabric;
using cluster::Node;
using kernel::Sub;
using kernel::Sys;

struct TwoNodes {
  TwoNodes() {
    a = &fabric.add_node("a");
    b = &fabric.add_node("b");
    fabric.connect(*a, *b);
  }
  Fabric fabric;
  Node* a = nullptr;
  Node* b = nullptr;
};

TEST(MigrationTest, GuestMemoryContentsArriveBitExact) {
  TwoNodes t;
  // Plant a recognizable value in guest memory via a process page.
  hw::VirtAddr page = 0;
  kernel::Pid pid = t.a->mercury().kernel().spawn("holder", [&](Sys& s) -> Sub<void> {
    page = s.mmap(hw::kPageSize, true);
    s.touch_pages(page, 1, true);
    for (;;) co_await s.sleep_us(20'000.0);
  });
  t.a->mercury().kernel().run_for(5 * hw::kCyclesPerMillisecond);
  kernel::Task* task = t.a->mercury().kernel().find_task(pid);
  auto pte = t.a->machine().mmu().peek_pte(
      [&]() -> hw::Cpu& {
        hw::Cpu& c = t.a->machine().cpu(0);
        c.set_cpl(hw::Ring::kRing0);
        c.write_cr3(task->aspace->page_directory());
        return c;
      }(),
      page);
  ASSERT_TRUE(pte.has_value());
  const hw::Pfn old_frame = pte->pfn();
  t.a->machine().memory().write_u32(hw::addr_of(old_frame) + 128, 0x5EC0FFEE);

  const cluster::ArcReport ev = cluster::evacuate_arc(*t.a, *t.b);
  ASSERT_TRUE(ev.success);

  // Same kernel object, new machine + frames: content must have traveled.
  kernel::Kernel& guest = t.a->mercury().kernel();
  EXPECT_EQ(&guest.machine(), &t.b->machine());
  auto pte2 = [&] {
    hw::Cpu& c = t.b->machine().cpu(0);
    c.set_cpl(hw::Ring::kRing0);
    c.write_cr3(guest.find_task(pid)->aspace->page_directory());
    return t.b->machine().mmu().peek_pte(c, page);
  }();
  ASSERT_TRUE(pte2.has_value());
  EXPECT_NE(pte2->pfn(), old_frame) << "frames are renumbered on the target";
  EXPECT_EQ(t.b->machine().memory().read_u32(hw::addr_of(pte2->pfn()) + 128),
            0x5EC0FFEEu);
}

TEST(MigrationTest, GuestKeepsRunningAfterMigration) {
  TwoNodes t;
  long counter = 0;
  t.a->mercury().kernel().spawn("worker", [&](Sys& s) -> Sub<void> {
    const auto va = s.mmap(16 * hw::kPageSize, true);
    for (;;) {
      s.touch_pages(va, 16, true);
      co_await s.compute_us(300.0);
      ++counter;
    }
  });
  t.a->mercury().kernel().run_for(10 * hw::kCyclesPerMillisecond);
  const long before = counter;
  ASSERT_GT(before, 0);

  const cluster::ArcReport ev = cluster::evacuate_arc(*t.a, *t.b);
  ASSERT_TRUE(ev.success);
  t.a->mercury().kernel().run_for(10 * hw::kCyclesPerMillisecond);
  EXPECT_GT(counter, before);
}

TEST(MigrationTest, DirtyPagesTriggerExtraRounds) {
  TwoNodes t;
  // A write-heavy guest dirties pages between pre-copy rounds.
  t.a->mercury().kernel().spawn("dirtier", [&](Sys& s) -> Sub<void> {
    const auto va = s.mmap(512 * hw::kPageSize, true);
    s.touch_pages(va, 512, true);
    for (;;) {
      s.touch_pages(va, 256, true);
      co_await s.compute_us(100.0);
    }
  });
  t.a->mercury().kernel().run_for(10 * hw::kCyclesPerMillisecond);
  ASSERT_TRUE(t.b->mercury().switch_to(core::ExecMode::kPartialVirtual));
  ASSERT_TRUE(t.a->mercury().switch_to(core::ExecMode::kFullVirtual));
  vmm::MigrationConfig cfg;
  cfg.max_rounds = 6;
  cfg.stop_threshold_pages = 16;
  const auto stats = vmm::LiveMigration::run(
      t.a->mercury().hypervisor(), t.a->mercury().guest_vo().dom(),
      t.b->mercury().hypervisor(), cfg);
  ASSERT_TRUE(stats.success);
  EXPECT_GT(stats.rounds, 1u) << "a dirtying guest needs iterative pre-copy";
  EXPECT_GT(stats.pages_sent, stats.pages_total) << "some pages resent";
  EXPECT_LT(stats.downtime_cycles, stats.total_cycles / 10)
      << "downtime must be a small fraction of total migration time";
}

TEST(MigrationTest, StaleTargetBytesReadAsZerosWhereTheSourceNeverWrote) {
  // Every free frame of the target holds stale bytes, so the region the
  // migration reserves there does too. A page whose source backing was
  // never materialized must still arrive as zeros.
  cluster::NodeConfig nc;
  nc.mem_kb = 128 * 1024;
  nc.kernel_mem_kb = 32 * 1024;
  Fabric fabric;
  Node& a = fabric.add_node("a", nc);
  Node& b = fabric.add_node("b", nc);
  fabric.connect(a, b);
  a.mercury().kernel().spawn("idle", [](Sys& s) -> Sub<void> {
    for (;;) co_await s.sleep_us(20'000.0);
  });
  a.mercury().kernel().run_for(5 * hw::kCyclesPerMillisecond);
  ASSERT_TRUE(b.mercury().switch_to(core::ExecMode::kPartialVirtual));
  ASSERT_TRUE(a.mercury().switch_to(core::ExecMode::kFullVirtual));

  hw::PhysicalMemory& to = b.machine().memory();
  std::size_t stale = 0;
  for (hw::Pfn pfn = 0; pfn < to.total_frames(); ++pfn) {
    if (b.machine().frames().is_allocated(pfn)) continue;
    to.write_u32(hw::addr_of(pfn) + 512, 0x57A1E000u + pfn);
    ++stale;
  }
  const vmm::DomainId dom = a.mercury().guest_vo().dom();
  const hw::Pfn old_base = a.mercury().hypervisor().domain(dom).first_frame();
  const std::size_t frames = a.mercury().hypervisor().domain(dom).frame_count();
  ASSERT_GE(stale, frames);

  const auto stats = vmm::LiveMigration::run(a.mercury().hypervisor(), dom,
                                             b.mercury().hypervisor());
  ASSERT_TRUE(stats.success);
  const hw::Pfn new_base =
      b.mercury().hypervisor().domain(stats.new_domain).first_frame();
  const hw::PhysicalMemory& from = a.machine().memory();
  const std::vector<std::uint8_t> zeros(hw::kPageSize, 0);
  std::vector<std::uint8_t> page(hw::kPageSize);
  std::size_t never_written = 0;
  for (std::size_t i = 0; i < frames; ++i) {
    if (from.frame_bytes(old_base + static_cast<hw::Pfn>(i)) != nullptr)
      continue;
    ++never_written;
    const hw::Pfn pfn = new_base + static_cast<hw::Pfn>(i);
    ASSERT_NE(to.frame_bytes(pfn), nullptr)
        << "frame " << pfn << " held no stale bytes";
    to.read_bytes(hw::addr_of(pfn), page);
    ASSERT_EQ(page, zeros) << "frame " << i << " kept stale target bytes";
  }
  EXPECT_GT(never_written, 0u) << "every source frame was written";
}

TEST(MigrationTest, SourceFramesAreFreedAfterMigration) {
  TwoNodes t;
  const std::size_t free_before = t.a->machine().frames().frames_free();
  const cluster::ArcReport ev = cluster::evacuate_arc(*t.a, *t.b);
  ASSERT_TRUE(ev.success);
  EXPECT_GT(t.a->machine().frames().frames_free(), free_before);
}

// A guest that maps and touches a fresh page every 200 µs while it is
// migrated. Each mapping is a kernel page-table write through the direct
// map: it sets no PTE dirty bit, so only the store itself, which reaches
// the domain's log-dirty bitmap through the source memory's dirty sink,
// resends the table page. Without it, most of the pages mapped during
// pre-copy have no PTE on the machine the guest lands on. The direct row
// runs LiveMigration::run with no arc around it.
TEST(MigrationTest, PageTableWritesDuringPrecopyReachTheTarget) {
  enum class Row { kEvacuateArc, kMigrateArc, kDirectRun };
  for (const Row row : {Row::kEvacuateArc, Row::kMigrateArc, Row::kDirectRun}) {
    SCOPED_TRACE(row == Row::kEvacuateArc  ? "evacuate_arc"
                 : row == Row::kMigrateArc ? "migrate_arc"
                                           : "LiveMigration::run");
    TwoNodes t;
    std::vector<hw::VirtAddr> mapped;
    kernel::Kernel& os = t.a->mercury().kernel();
    const kernel::Pid pid = os.spawn("mapper", [&](Sys& s) -> Sub<void> {
      for (;;) {
        const hw::VirtAddr va = s.mmap(hw::kPageSize, true);
        s.touch_pages(va, 1, true);
        mapped.push_back(va);
        co_await s.sleep_us(200.0);
      }
    });
    os.run_for(5 * hw::kCyclesPerMillisecond);
    const std::size_t before = mapped.size();
    hw::DirtySink* const a_sink = t.a->machine().memory().dirty_sink();
    hw::DirtySink* const b_sink = t.b->machine().memory().dirty_sink();

    switch (row) {
      case Row::kEvacuateArc:
        ASSERT_TRUE(cluster::evacuate_arc(*t.a, *t.b).success);
        break;
      case Row::kMigrateArc:
        ASSERT_TRUE(cluster::migrate_arc(*t.a, *t.b).success);
        break;
      case Row::kDirectRun: {
        ASSERT_TRUE(t.b->mercury().switch_to(core::ExecMode::kPartialVirtual));
        ASSERT_TRUE(t.a->mercury().switch_to(core::ExecMode::kFullVirtual));
        const auto stats = vmm::LiveMigration::run(
            t.a->mercury().hypervisor(), t.a->mercury().guest_vo().dom(),
            t.b->mercury().hypervisor());
        ASSERT_TRUE(stats.success);
        break;
      }
    }
    EXPECT_EQ(t.a->machine().memory().dirty_sink(), a_sink)
        << "the migration restores the source memory's dirty sink";
    EXPECT_EQ(t.b->machine().memory().dirty_sink(), b_sink);
    hw::Machine& now_on =
        row == Row::kMigrateArc ? t.a->machine() : t.b->machine();
    ASSERT_EQ(&os.machine(), &now_on);
    ASSERT_GT(mapped.size(), before + 100) << "the guest mapped during pre-copy";

    hw::Cpu& c = now_on.cpu(0);
    c.set_cpl(hw::Ring::kRing0);
    c.write_cr3(os.find_task(pid)->aspace->page_directory());
    std::size_t missing = 0;
    for (const hw::VirtAddr va : mapped) {
      const auto pte = now_on.mmu().peek_pte(c, va);
      if (!pte.has_value() || !pte->present()) ++missing;
    }
    EXPECT_EQ(missing, 0u) << "of " << mapped.size() << " mapped pages";
  }
}

TEST(MigrationTest, TheTargetRebuildsExactlyTheMovedFrameRange) {
  TwoNodes t;
  kernel::Kernel& os = t.a->mercury().kernel();
  kernel::FramePool& pool = os.pool();
  const std::size_t count = pool.owned_count();
  const std::size_t used = pool.used_count();
  ASSERT_TRUE(t.b->mercury().switch_to(core::ExecMode::kPartialVirtual));
  ASSERT_TRUE(t.a->mercury().switch_to(core::ExecMode::kFullVirtual));
  vmm::Hypervisor& dst = t.b->mercury().hypervisor();
#if MERCURY_OBS_ENABLED
  const obs::Counter& rebuilt =
      obs::registry().counter("vmm.page_info.frames_reconstructed");
  const std::uint64_t rebuilt0 = rebuilt.value();
#endif
  const auto stats = vmm::LiveMigration::run(
      t.a->mercury().hypervisor(), t.a->mercury().guest_vo().dom(), dst);
  ASSERT_TRUE(stats.success);

  // The pool's range moved to the target region, with its use unchanged.
  const hw::Pfn base = dst.domain(stats.new_domain).first_frame();
  EXPECT_EQ(pool.first(), base);
  EXPECT_EQ(os.base_pfn(), base);
  EXPECT_EQ(pool.owned_count(), count);
  EXPECT_EQ(pool.used_count(), used);
  hw::Pfn fresh = 0;
  ASSERT_TRUE(pool.alloc(fresh));
  EXPECT_GE(fresh, base);
  EXPECT_LT(fresh, base + count);
  pool.free(fresh);

  // The admission's rebuild counted every frame of the new range, and no
  // frame outside it.
#if MERCURY_OBS_ENABLED
  EXPECT_EQ(rebuilt.value() - rebuilt0, count);
#endif
  const vmm::PageInfoTable& table = dst.page_info();
  constexpr std::size_t kShard = vmm::PageInfoTable::kFramesPerShard;
  for (std::size_t shard = 0; shard < table.shard_count(); ++shard) {
    const std::size_t lo = std::max<std::size_t>(shard * kShard, base);
    const std::size_t hi = std::min<std::size_t>((shard + 1) * kShard,
                                                 base + count);
    EXPECT_EQ(table.shard_counters(shard).rebuilt, lo < hi ? hi - lo : 0)
        << "shard " << shard;
  }
  EXPECT_EQ(table.rebuilt_total(), count);
}

TEST(MigrationTest, AnAbortedAdmissionLeavesTheTargetsProtectedFrames) {
  // A fault inside the target's admission, before or after its protect
  // pass has write-protected some of the image's tables. The abandoned
  // image must leave the target's protected set as it was: the target's
  // next detach unprotects exactly that set through its own direct map.
  InjectorGuard guard;
  struct Row {
    core::FaultSite site;
    std::uint64_t trigger;
  };
  for (const Row row : {Row{core::FaultSite::kAdoptProtect, 1},
                        Row{core::FaultSite::kAdoptProtect, 3},
                        Row{core::FaultSite::kAdoptRebuild, 1},
                        Row{core::FaultSite::kMigrateActivate, 2},
                        Row{core::FaultSite::kMigrateActivate, 3}}) {
    SCOPED_TRACE(std::string(core::fault_site_name(row.site)) + " visit " +
                 std::to_string(row.trigger));
    TwoNodes t;
    ASSERT_TRUE(t.b->mercury().switch_to(core::ExecMode::kPartialVirtual));
    ASSERT_TRUE(t.a->mercury().switch_to(core::ExecMode::kFullVirtual));
    vmm::Hypervisor& dst = t.b->mercury().hypervisor();
    const std::vector<hw::Pfn> protected_before =
        dst.protected_frames_snapshot();
    core::FaultPlan plan;
    plan.site = row.site;
    plan.trigger_count = row.trigger;
    core::fault_injector().arm(plan);
    EXPECT_THROW(vmm::LiveMigration::run(t.a->mercury().hypervisor(),
                                         t.a->mercury().guest_vo().dom(), dst),
                 core::FaultInjected);
    EXPECT_FALSE(core::fault_injector().armed()) << "the plan fired";
    EXPECT_EQ(&t.a->mercury().kernel().machine(), &t.a->machine())
        << "the guest stays on the source";
    EXPECT_EQ(dst.protected_frames_snapshot(), protected_before);
    EXPECT_TRUE(t.b->mercury().switch_to(core::ExecMode::kNative));
  }
}

TEST(CheckpointTest, RestoreIsBitExact) {
  hw::MachineConfig mc;
  mc.mem_kb = 192 * 1024;
  hw::Machine machine(mc);
  core::MercuryConfig cfg;
  cfg.kernel_frames = (64ull * 1024 * 1024) / hw::kPageSize;
  core::Mercury mercury(machine, cfg);

  mercury.kernel().spawn("idle", [](Sys& s) -> Sub<void> {
    for (;;) co_await s.sleep_us(50'000.0);
  });
  mercury.kernel().run_for(5 * hw::kCyclesPerMillisecond);

  // Work attached throughout: detach flips page-table writability bits in
  // the direct map, so bit-exactness is defined against the attached image.
  ASSERT_TRUE(mercury.switch_to(core::ExecMode::kPartialVirtual));
  hw::Cpu& cpu = machine.cpu(0);
  auto snap = vmm::Checkpointer::take(cpu, mercury.hypervisor(),
                                      mercury.driver_vo().dom());
  EXPECT_GT(snap.bytes(), 0u);
  EXPECT_TRUE(vmm::Checkpointer::matches(mercury.hypervisor(), snap));

  // Scribble over guest memory, then restore.
  machine.memory().write_u32(hw::addr_of(mercury.kernel().base_pfn() + 100) + 4,
                             0xBADBAD);
  EXPECT_FALSE(vmm::Checkpointer::matches(mercury.hypervisor(), snap));
  vmm::Checkpointer::restore(cpu, mercury.hypervisor(), snap);
  EXPECT_TRUE(vmm::Checkpointer::matches(mercury.hypervisor(), snap));
  ASSERT_TRUE(mercury.switch_to(core::ExecMode::kNative))
      << "the VMM detaches after the restore";
}

TEST(CheckpointTest, SnapshotCapturesVcpuState) {
  hw::MachineConfig mc;
  mc.mem_kb = 160 * 1024;
  hw::Machine machine(mc);
  core::MercuryConfig cfg;
  cfg.kernel_frames = (48ull * 1024 * 1024) / hw::kPageSize;
  core::Mercury mercury(machine, cfg);
  ASSERT_TRUE(mercury.switch_to(core::ExecMode::kPartialVirtual));
  const auto snap = vmm::Checkpointer::take(machine.cpu(0), mercury.hypervisor(),
                                            mercury.driver_vo().dom());
  EXPECT_EQ(snap.vcpus.size(), machine.num_cpus());
  ASSERT_TRUE(mercury.switch_to(core::ExecMode::kNative));
}

}  // namespace
}  // namespace mercury::testing
