// The mode-switch engine: state machine, refcount gating + deferral timer,
// selector fixup (stub vs eager vs disabled), page-table protection flips,
// full-virtual role, validation abort, switch-time proportionality.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/mercury.hpp"
#include "core/switch_supervisor.hpp"
#include "kernel/layout.hpp"
#include "kernel/syscalls.hpp"
#include "obs/obs.hpp"

namespace mercury::testing {
namespace {

using core::ExecMode;
using core::Mercury;
using core::MercuryConfig;
using kernel::Sub;
using kernel::Sys;

struct MercuryBox {
  explicit MercuryBox(MercuryConfig cfg = {}, std::size_t mem_mb = 256,
                      std::size_t cpus = 1) {
    hw::MachineConfig mc;
    mc.mem_kb = mem_mb * 1024;
    mc.num_cpus = cpus;
    machine = std::make_unique<hw::Machine>(mc);
    if (cfg.kernel_frames == 0)
      cfg.kernel_frames = ((mem_mb / 2) * 1024ull * 1024) / hw::kPageSize;
    mercury = std::make_unique<Mercury>(*machine, cfg);
  }
  std::unique_ptr<hw::Machine> machine;
  std::unique_ptr<Mercury> mercury;
};

TEST(SwitchEngine, BootTablesReadBackEntryByEntryBeforeAnyAttach) {
  // 36 MB: the VMM reserves 9 216 / 8 = 1 152 frames, two L1s of which the
  // second maps 128; the kernel's 5 000 frames take five L1s, the last
  // mapping 904. Neither count is a multiple of 1 024.
  MercuryConfig cfg;
  cfg.kernel_frames = 5000;
  MercuryBox box(cfg, /*mem_mb=*/36);
  Mercury& m = *box.mercury;
  ASSERT_EQ(m.mode(), ExecMode::kNative);
  ASSERT_EQ(m.engine().stats().attaches, 0u);
  const hw::PhysicalMemory& mem = m.machine().memory();
  auto entry = [&](hw::Pfn table, std::size_t e) {
    return mem.read_u32(hw::addr_of(table) + e * 4);
  };
  auto kernel_pte = [](hw::Pfn pfn) {
    return hw::make_pte(pfn, /*writable=*/true, /*user=*/false,
                        /*global=*/true);
  };
  auto vmm_pte = [&](hw::Pfn pfn) {
    hw::Pte pte = kernel_pte(pfn);
    pte.set_flag(hw::Pte::kVmmOnly, true);
    return pte;
  };

  // The direct map: entry i maps the kernel's frame i; the rest are empty.
  const kernel::Kernel& k = m.kernel();
  const std::vector<hw::Pfn>& l1s = k.kernel_l1_frames();
  ASSERT_EQ(l1s.size(), 5u);
  for (std::size_t i = 0; i < l1s.size() * hw::kPtEntries; ++i) {
    const hw::Pte want = i < 5000 ? kernel_pte(k.base_pfn() + i) : hw::Pte{};
    ASSERT_EQ(entry(l1s[i / hw::kPtEntries], i % hw::kPtEntries), want.raw)
        << "direct-map entry " << i;
  }

  // The VMM's reserved region: entry i maps reserved frame i, ring-0 only;
  // its L1s are its own first frames.
  const vmm::Hypervisor& hv = m.hypervisor();
  const hw::Pfn reserved = hv.reserved_first();
  ASSERT_EQ(mem.total_frames() - reserved, 1152u);
  const auto& vmm_pdes = hv.vmm_pdes();
  ASSERT_EQ(vmm_pdes.size(), 2u);
  for (std::size_t t = 0; t < vmm_pdes.size(); ++t) {
    EXPECT_EQ(vmm_pdes[t].first, hw::pde_index(kernel::kVmmBase) + t);
    EXPECT_EQ(vmm_pdes[t].second, vmm_pte(reserved + t));
  }
  for (std::size_t i = 0; i < vmm_pdes.size() * hw::kPtEntries; ++i) {
    const hw::Pte want = i < 1152 ? vmm_pte(reserved + i) : hw::Pte{};
    ASSERT_EQ(entry(reserved + i / hw::kPtEntries, i % hw::kPtEntries),
              want.raw)
        << "reserved-region entry " << i;
  }

  // The boot page directory: the direct map's five PDEs from 768, the
  // VMM's two, nothing else.
  for (std::uint32_t e = 0; e < hw::kPtEntries; ++e) {
    hw::Pte want{};
    if (e >= 768 && e < 768 + l1s.size()) want = kernel_pte(l1s[e - 768]);
    for (const auto& [idx, pde] : vmm_pdes)
      if (idx == e) want = pde;
    ASSERT_EQ(entry(k.kernel_pd(), e), want.raw) << "PDE " << e;
  }
}

TEST(SwitchEngine, RoundTripThroughAllModes) {
  MercuryBox box;
  Mercury& m = *box.mercury;
  EXPECT_EQ(m.mode(), ExecMode::kNative);
  ASSERT_TRUE(m.switch_to(ExecMode::kPartialVirtual));
  ASSERT_TRUE(m.switch_to(ExecMode::kFullVirtual));
  EXPECT_TRUE(m.hypervisor().blk_backend().connected());
  ASSERT_TRUE(m.switch_to(ExecMode::kPartialVirtual));
  EXPECT_FALSE(m.hypervisor().blk_backend().connected());
  ASSERT_TRUE(m.switch_to(ExecMode::kNative));
  EXPECT_FALSE(m.hypervisor().active());
  EXPECT_EQ(m.engine().stats().attaches, 1u);
  EXPECT_EQ(m.engine().stats().detaches, 1u);
}

TEST(SwitchEngine, RequestToCurrentModeIsNoOp) {
  MercuryBox box;
  EXPECT_TRUE(box.mercury->switch_to(ExecMode::kNative));
  EXPECT_EQ(box.mercury->engine().stats().detaches, 0u);
}

TEST(SwitchEngine, OpsPointerFollowsMode) {
  MercuryBox box;
  Mercury& m = *box.mercury;
  EXPECT_FALSE(m.kernel().ops().is_virtual());
  ASSERT_TRUE(m.switch_to(ExecMode::kPartialVirtual));
  EXPECT_TRUE(m.kernel().ops().is_virtual());
  EXPECT_EQ(m.kernel().ops().kernel_ring(), hw::Ring::kRing1);
  ASSERT_TRUE(m.switch_to(ExecMode::kNative));
  EXPECT_FALSE(m.kernel().ops().is_virtual());
  EXPECT_EQ(m.kernel().ops().kernel_ring(), hw::Ring::kRing0);
}

TEST(SwitchEngine, TrapOwnershipFollowsMode) {
  MercuryBox box;
  Mercury& m = *box.mercury;
  EXPECT_EQ(box.machine->cpu(0).trap_sink(),
            static_cast<hw::TrapSink*>(&m.kernel()));
  ASSERT_TRUE(m.switch_to(ExecMode::kPartialVirtual));
  EXPECT_EQ(box.machine->cpu(0).trap_sink(),
            static_cast<hw::TrapSink*>(&m.hypervisor()));
  ASSERT_TRUE(m.switch_to(ExecMode::kNative));
  EXPECT_EQ(box.machine->cpu(0).trap_sink(),
            static_cast<hw::TrapSink*>(&m.kernel()));
}

TEST(SwitchEngine, PageTablesWritableOnlyInNativeMode) {
  MercuryBox box;
  Mercury& m = *box.mercury;
  const hw::Pfn l1 = m.kernel().kernel_l1_frames().front();
  const hw::VirtAddr kva = m.kernel().kva_of_frame(l1);
  auto writable_at = [&](hw::Ring ring) {
    hw::Cpu& c = box.machine->cpu(0);
    const hw::Ring prev = c.cpl();
    c.set_cpl(ring);
    c.tlb().flush_global();
    const bool ok =
        box.machine->mmu().translate(c, kva, hw::Access::kWrite).has_value();
    c.set_cpl(prev);
    return ok;
  };
  EXPECT_TRUE(writable_at(hw::Ring::kRing0));
  ASSERT_TRUE(m.switch_to(ExecMode::kPartialVirtual));
  EXPECT_FALSE(writable_at(hw::Ring::kRing1))
      << "attached: PT pages must be read-only (direct paging)";
  ASSERT_TRUE(m.switch_to(ExecMode::kNative));
  EXPECT_TRUE(writable_at(hw::Ring::kRing0))
      << "detached: writability restored";
}

TEST(SwitchEngine, RefcountDefersCommit) {
  // Eager page tracking changes the native VO's class, not the gate: the
  // engine must count on the object the kernel runs on in both.
  for (const bool eager : {false, true}) {
    SCOPED_TRACE(eager ? "eager page tracking" : "lazy rebuild");
    MercuryConfig cfg;
    cfg.switch_config.eager_page_tracking = eager;
    MercuryBox box(cfg);
    Mercury& m = *box.mercury;
    ASSERT_EQ(&m.native_vo(), &m.engine().native_vo());
    ASSERT_EQ(&m.native_vo(), &m.kernel().ops());
    // Hold a VO section across sleeps: the paper's rare long-sensitive-path.
    bool release_now = false;
    m.kernel().spawn("holder", [&](Sys& s) -> Sub<void> {
      core::VirtObject::Section section(m.native_vo());
      while (!release_now) co_await s.sleep_us(2'000.0);
      section.release();
      for (;;) co_await s.sleep_us(10'000.0);
    });
    m.kernel().run_for(hw::kCyclesPerMillisecond);
    ASSERT_EQ(m.native_vo().active_refs(), 1);

    m.engine().request(ExecMode::kPartialVirtual);
    m.kernel().run_for(25 * hw::kCyclesPerMillisecond);
    EXPECT_EQ(m.mode(), ExecMode::kNative) << "switch must not land while held";
    EXPECT_GE(m.engine().stats().deferrals, 1u) << "10ms retry timer armed";

    release_now = true;
    EXPECT_TRUE(m.kernel().run_until(
        [&] { return m.mode() == ExecMode::kPartialVirtual; },
        200 * hw::kCyclesPerMillisecond))
        << "switch commits once the reference count drains";
  }
}

TEST(SwitchEngine, BudgetExhaustedSwitchNowCancelsTheStaleRequest) {
  // Regression: switch_now used to return false on budget exhaustion but
  // leave the request pending — the deferral timer would then commit the
  // switch later, behind the back of a caller who was told it failed.
  MercuryBox box;
  Mercury& m = *box.mercury;
  bool release_now = false;
  m.kernel().spawn("holder", [&](Sys& s) -> Sub<void> {
    core::VirtObject::Section section(m.native_vo());
    while (!release_now) co_await s.sleep_us(2'000.0);
    section.release();
    for (;;) co_await s.sleep_us(10'000.0);
  });
  m.kernel().run_for(hw::kCyclesPerMillisecond);
  ASSERT_EQ(m.native_vo().active_refs(), 1);

  EXPECT_FALSE(m.engine().switch_now(ExecMode::kPartialVirtual,
                                     20 * hw::kCyclesPerMillisecond));
  EXPECT_TRUE(m.engine().idle())
      << "budget exhaustion must revoke the request, not leave it armed";
  EXPECT_EQ(m.engine().last_outcome(), core::SwitchOutcome::kCancelled);
  EXPECT_EQ(m.engine().stats().cancels, 1u);

  release_now = true;
  m.kernel().run_for(100 * hw::kCyclesPerMillisecond);
  EXPECT_EQ(m.mode(), ExecMode::kNative)
      << "a cancelled request committed once the refcount drained";
  // The engine is healthy, not wedged: a fresh request works.
  EXPECT_TRUE(m.switch_to(ExecMode::kPartialVirtual));
  EXPECT_TRUE(m.switch_to(ExecMode::kNative));
}

TEST(SwitchEngine, DeferralRetriesOnTimerUntilRefcountDrains) {
  MercuryBox box;
  Mercury& m = *box.mercury;
  // An in-flight VO entry (§5.1.1) held across several 10 ms retry periods:
  // every expiry must re-defer, and the commit lands only once the count
  // drains — charging the full wait to last_defer_wait_cycles.
  bool release_now = false;
  m.kernel().spawn("holder", [&](Sys& s) -> Sub<void> {
    core::VirtObject::Section section(m.native_vo());
    while (!release_now) co_await s.sleep_us(2'000.0);
    section.release();
    for (;;) co_await s.sleep_us(10'000.0);
  });
  m.kernel().run_for(hw::kCyclesPerMillisecond);
  ASSERT_EQ(m.native_vo().active_refs(), 1);

  const auto deferrals_before = m.engine().stats().deferrals;
  m.engine().request(ExecMode::kPartialVirtual);
  m.kernel().run_for(35 * hw::kCyclesPerMillisecond);
  EXPECT_EQ(m.mode(), ExecMode::kNative);
  EXPECT_GE(m.engine().stats().deferrals, deferrals_before + 2)
      << "each 10 ms retry against a held refcount must count a deferral";

  release_now = true;
  ASSERT_TRUE(m.kernel().run_until(
      [&] { return m.mode() == ExecMode::kPartialVirtual; },
      200 * hw::kCyclesPerMillisecond));
  EXPECT_GE(m.engine().stats().last_defer_wait_cycles,
            hw::us_to_cycles(10'000.0))
      << "the commit waited through at least one full retry period";
#if MERCURY_OBS_ENABLED
  const obs::Snapshot snap = obs::snapshot();
  const obs::InstrumentSample* deferrals =
      snap.find("switch.deferrals", m.engine().obs_label());
  ASSERT_NE(deferrals, nullptr);
  EXPECT_GE(deferrals->value,
            static_cast<double>(deferrals_before + 2));
#endif

  // Detach direction: a reference into the *virtual* VO defers the same way.
  bool release_detach = false;
  m.kernel().spawn("holder2", [&](Sys& s) -> Sub<void> {
    core::VirtObject::Section section(m.driver_vo());
    while (!release_detach) co_await s.sleep_us(2'000.0);
    section.release();
    for (;;) co_await s.sleep_us(10'000.0);
  });
  m.kernel().run_for(hw::kCyclesPerMillisecond);
  const auto detach_deferrals_before = m.engine().stats().deferrals;
  m.engine().request(ExecMode::kNative);
  m.kernel().run_for(25 * hw::kCyclesPerMillisecond);
  EXPECT_EQ(m.mode(), ExecMode::kPartialVirtual);
  EXPECT_GE(m.engine().stats().deferrals, detach_deferrals_before + 1);
  release_detach = true;
  EXPECT_TRUE(m.kernel().run_until(
      [&] { return m.mode() == ExecMode::kNative; },
      200 * hw::kCyclesPerMillisecond));
}

TEST(SwitchEngine, NestedInterruptFramesPatchedByResumeStub) {
  MercuryBox box;
  Mercury& m = *box.mercury;
  m.kernel().spawn("sleeper", [](Sys& s) -> Sub<void> {
    for (;;) co_await s.sleep_us(3'000.0);
  });
  m.kernel().run_for(hw::kCyclesPerMillisecond);
  kernel::Task* t = nullptr;
  m.kernel().for_each_task([&](kernel::Task& task) { t = &task; });
  ASSERT_NE(t, nullptr);
  ASSERT_TRUE(t->saved_ctx.valid);
  // Interrupts that fired while the thread was already in the kernel leave
  // nested frames above the base one; each carries its own stale selectors.
  t->saved_ctx.nested.push_back(
      {hw::make_selector(hw::kGdtKernelCs, hw::Ring::kRing0),
       hw::make_selector(hw::kGdtKernelDs, hw::Ring::kRing0)});
  t->saved_ctx.nested.push_back(
      {hw::make_selector(hw::kGdtKernelCs, hw::Ring::kRing0),
       hw::make_selector(hw::kGdtKernelDs, hw::Ring::kRing0)});

  ASSERT_TRUE(m.switch_to(ExecMode::kPartialVirtual));
  const auto fixups_before = m.kernel().stats().selector_fixups;
  m.kernel().run_for(10 * hw::kCyclesPerMillisecond);  // resume under ring 1
  EXPECT_GE(m.kernel().stats().selector_fixups, fixups_before + 3)
      << "the stub must rewrite the base frame and both nested frames";
  EXPECT_EQ(m.kernel().stats().gp_faults_on_resume, 0u);
}

TEST(SwitchEngine, NestedFramesAndStackTopFixedEagerlyBothDirections) {
  MercuryConfig cfg;
  cfg.switch_config.eager_selector_fixup = true;
  MercuryBox box(cfg);
  Mercury& m = *box.mercury;
  // Block long enough to stay suspended across both switches: the eager
  // walk must patch the frames in place, without the task ever resuming.
  m.kernel().spawn("sleeper", [](Sys& s) -> Sub<void> {
    for (;;) co_await s.sleep_us(500'000.0);
  });
  m.kernel().run_for(hw::kCyclesPerMillisecond);
  kernel::Task* t = nullptr;
  m.kernel().for_each_task([&](kernel::Task& task) { t = &task; });
  ASSERT_NE(t, nullptr);
  ASSERT_TRUE(t->saved_ctx.valid);
  t->saved_ctx.nested.push_back(
      {hw::make_selector(hw::kGdtKernelCs, hw::Ring::kRing0),
       hw::make_selector(hw::kGdtKernelDs, hw::Ring::kRing0)});
  t->saved_ctx.at_stack_top = true;  // base frame flush with the stack end

  ASSERT_TRUE(m.switch_to(ExecMode::kPartialVirtual));
  EXPECT_EQ(t->saved_ctx.cs.rpl(), hw::Ring::kRing1);
  EXPECT_EQ(t->saved_ctx.ss.rpl(), hw::Ring::kRing1);
  ASSERT_EQ(t->saved_ctx.nested.size(), 1u);
  EXPECT_EQ(t->saved_ctx.nested[0].cs.rpl(), hw::Ring::kRing1)
      << "attach direction: the nested frame must be walked too";

  ASSERT_TRUE(m.switch_to(ExecMode::kNative));
  EXPECT_EQ(t->saved_ctx.cs.rpl(), hw::Ring::kRing0);
  EXPECT_EQ(t->saved_ctx.nested[0].cs.rpl(), hw::Ring::kRing0)
      << "detach direction: the nested frame returns to ring 0";
  EXPECT_TRUE(t->saved_ctx.at_stack_top) << "boundary flag must survive";
  m.kernel().run_for(10 * hw::kCyclesPerMillisecond);
  EXPECT_EQ(m.kernel().stats().gp_faults_on_resume, 0u);
}

TEST(SwitchEngine, SelectorFixupStubPatchesBlockedTasks) {
  MercuryBox box;
  Mercury& m = *box.mercury;
  m.kernel().spawn("sleeper", [](Sys& s) -> Sub<void> {
    for (;;) co_await s.sleep_us(3'000.0);
  });
  m.kernel().run_for(hw::kCyclesPerMillisecond);
  // Blocked in-kernel: saved selectors carry ring 0.
  kernel::Task* t = nullptr;
  m.kernel().for_each_task([&](kernel::Task& task) { t = &task; });
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->saved_ctx.cs.rpl(), hw::Ring::kRing0);

  ASSERT_TRUE(m.switch_to(ExecMode::kPartialVirtual));
  const auto fixups_before = m.kernel().stats().selector_fixups;
  m.kernel().run_for(10 * hw::kCyclesPerMillisecond);  // resume under ring 1
  EXPECT_GT(m.kernel().stats().selector_fixups, fixups_before)
      << "the resume stub must rewrite the stale ring-0 selectors";
  EXPECT_EQ(m.kernel().stats().gp_faults_on_resume, 0u);
}

TEST(SwitchEngine, DisabledFixupFaultsExactlyAsThePaperWarns) {
  MercuryBox box;
  Mercury& m = *box.mercury;
  m.kernel().set_selector_fixup_enabled(false);
  bool alive_marker = false;
  const kernel::Pid pid = m.kernel().spawn("victim", [&](Sys& s) -> Sub<void> {
    for (;;) {
      co_await s.sleep_us(3'000.0);
      alive_marker = true;
    }
  });
  m.kernel().run_for(hw::kCyclesPerMillisecond);
  ASSERT_TRUE(m.switch_to(ExecMode::kPartialVirtual));
  m.kernel().run_for(20 * hw::kCyclesPerMillisecond);
  EXPECT_GE(m.kernel().stats().gp_faults_on_resume, 1u)
      << "popping a stale selector must raise #GP (paper §5.1.2)";
  kernel::Task* t = m.kernel().find_task(pid);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->state, kernel::TaskState::kZombie);
  (void)alive_marker;
}

TEST(SwitchEngine, EagerFixupAvoidsResumeStubWork) {
  MercuryConfig cfg;
  cfg.switch_config.eager_selector_fixup = true;
  MercuryBox box(cfg);
  Mercury& m = *box.mercury;
  m.kernel().spawn("sleeper", [](Sys& s) -> Sub<void> {
    for (;;) co_await s.sleep_us(3'000.0);
  });
  m.kernel().run_for(hw::kCyclesPerMillisecond);
  ASSERT_TRUE(m.switch_to(ExecMode::kPartialVirtual));
  kernel::Task* t = nullptr;
  m.kernel().for_each_task([&](kernel::Task& task) { t = &task; });
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->saved_ctx.cs.rpl(), hw::Ring::kRing1)
      << "eager walk already rewrote the saved frame at switch time";
}

TEST(SwitchEngine, ValidationAbortLeavesModeUntouched) {
  MercuryConfig cfg;
  cfg.switch_config.validate_before_commit = true;
  MercuryBox box(cfg);
  Mercury& m = *box.mercury;
  // Sanity: with a healthy kernel the validated switch succeeds.
  ASSERT_TRUE(m.switch_to(ExecMode::kPartialVirtual));
  ASSERT_TRUE(m.switch_to(ExecMode::kNative));
  EXPECT_EQ(m.engine().stats().validation_aborts, 0u);
}

TEST(SwitchEngine, AttachScalesWithMemoryDetachDoesNot) {
  auto time_switch = [](std::size_t mem_mb) {
    MercuryConfig cfg;
    cfg.kernel_frames = (mem_mb * 1024ull * 1024 / 2) / hw::kPageSize;
    MercuryBox box(cfg, mem_mb);
    Mercury& m = *box.mercury;
    EXPECT_TRUE(m.switch_to(ExecMode::kPartialVirtual));
    const hw::Cycles attach = m.engine().stats().last_attach_cycles;
    EXPECT_TRUE(m.switch_to(ExecMode::kNative));
    const hw::Cycles detach = m.engine().stats().last_detach_cycles;
    return std::make_pair(attach, detach);
  };
  const auto [attach_small, detach_small] = time_switch(128);
  const auto [attach_big, detach_big] = time_switch(512);
  EXPECT_GT(attach_big, 3 * attach_small)
      << "attach is dominated by the per-frame info rebuild (§7.4)";
  EXPECT_LT(detach_big, 3 * detach_small)
      << "detach drops the accounting in O(1) + O(#page tables)";
  EXPECT_GT(attach_big, 5 * detach_big) << "attach >> detach, as measured";
}

TEST(SwitchEngine, CrewAttachMatchesCpAloneStateAndIsFaster) {
  // The CP alone (crew 0) vs a crew of four CPUs on the same machine shape:
  // the final machine state must be identical frame-for-frame, and the
  // sharded bulk transfer must be at least 2x faster with 3 workers.
  // Compare the transfer-phase cycles, not last_attach_cycles: on an SMP
  // box the total is dominated by inter-CPU clock skew (idle CPUs run ahead
  // until the switch interrupt, and the rendezvous aligns the CP to the max
  // clock), identically at every crew width.
  hw::Cycles alone_attach = 0;
  hw::Cycles alone_detach = 0;
  std::vector<vmm::PageInfo> alone_snap;
  {
    MercuryBox alone({}, /*mem_mb=*/256, /*cpus=*/4);
    Mercury& m = *alone.mercury;
    ASSERT_TRUE(m.switch_to(ExecMode::kPartialVirtual));
    alone_attach = m.engine().stats().last_transfer.page_info_cycles;
    alone_snap = m.hypervisor().page_info().snapshot();
    ASSERT_TRUE(m.switch_to(ExecMode::kNative));
    alone_detach = m.engine().stats().last_transfer.protection_cycles;
  }

  MercuryConfig cfg;
  cfg.switch_config.crew_workers = 3;
  MercuryBox crew(cfg, /*mem_mb=*/256, /*cpus=*/4);
  Mercury& m = *crew.mercury;
  ASSERT_TRUE(m.switch_to(ExecMode::kPartialVirtual));
  const hw::Cycles crew_attach =
      m.engine().stats().last_transfer.page_info_cycles;
  EXPECT_GE(alone_attach, 2 * crew_attach)
      << "4 CPUs sharding the bulk phases must at least halve the transfer "
         "latency (alone=" << alone_attach << " crew=" << crew_attach << ")";

  const std::vector<vmm::PageInfo> crew_snap =
      m.hypervisor().page_info().snapshot();
  ASSERT_EQ(alone_snap.size(), crew_snap.size());
  std::size_t mismatches = 0;
  for (std::size_t pfn = 0; pfn < alone_snap.size(); ++pfn) {
    const vmm::PageInfo& a = alone_snap[pfn];
    const vmm::PageInfo& b = crew_snap[pfn];
    if (a.owner != b.owner || a.type != b.type ||
        a.type_count != b.type_count || a.ref_count != b.ref_count ||
        a.pinned != b.pinned)
      ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u)
      << "sharded rebuild diverged from the CP-alone accounting";

  ASSERT_TRUE(m.switch_to(ExecMode::kNative));
  const hw::Cycles crew_detach =
      m.engine().stats().last_transfer.protection_cycles;
  EXPECT_LT(crew_detach, alone_detach)
      << "sharded unprotect must not be slower than the CP alone";
  EXPECT_FALSE(m.hypervisor().active());
}

TEST(SwitchEngine, CrewOfOnePaysNoCoordination) {
  // A crew with no helper is the CP alone: no work descriptor to publish,
  // no shared queue line to grab from, nobody to join. On one CPU,
  // crew_workers = 16 clamps to that same crew of one, so both land on the
  // same cycles, clock and page-info table.
  MercuryConfig zero_cfg;
  zero_cfg.switch_config.crew_workers = 0;
  MercuryBox a(zero_cfg, /*mem_mb=*/128, /*cpus=*/1);
  MercuryConfig clamped_cfg;
  clamped_cfg.switch_config.crew_workers = 16;
  MercuryBox b(clamped_cfg, /*mem_mb=*/128, /*cpus=*/1);
  ASSERT_TRUE(a.mercury->switch_to(ExecMode::kPartialVirtual));
  ASSERT_TRUE(b.mercury->switch_to(ExecMode::kPartialVirtual));
  EXPECT_EQ(a.mercury->engine().stats().last_attach_cycles,
            b.mercury->engine().stats().last_attach_cycles);
  EXPECT_TRUE(a.mercury->hypervisor().page_info().snapshot() ==
              b.mercury->hypervisor().page_info().snapshot())
      << "the clamped crew built a different page-info table";
  ASSERT_TRUE(a.mercury->switch_to(ExecMode::kNative));
  ASSERT_TRUE(b.mercury->switch_to(ExecMode::kNative));
  EXPECT_EQ(a.mercury->engine().stats().last_detach_cycles,
            b.mercury->engine().stats().last_detach_cycles);
  EXPECT_EQ(a.machine->cpu(0).now(), b.machine->cpu(0).now());

  // And the supervised retry machinery must be free on the happy path: the
  // same round trip through a SwitchSupervisor lands on exactly the same
  // clocks as the bare engine, on a 2-CPU box too.
  for (const std::size_t cpus : {1ul, 2ul}) {
    SCOPED_TRACE("cpus=" + std::to_string(cpus));
    MercuryBox bare(zero_cfg, /*mem_mb=*/128, cpus);
    ASSERT_TRUE(bare.mercury->switch_to(ExecMode::kPartialVirtual));
    ASSERT_TRUE(bare.mercury->switch_to(ExecMode::kNative));
    MercuryBox c(zero_cfg, /*mem_mb=*/128, cpus);
    core::SwitchSupervisor sup(c.mercury->engine());
    ASSERT_TRUE(sup.switch_now(ExecMode::kPartialVirtual));
    ASSERT_TRUE(sup.switch_now(ExecMode::kNative));
    EXPECT_EQ(bare.mercury->engine().stats().last_attach_cycles,
              c.mercury->engine().stats().last_attach_cycles);
    EXPECT_EQ(bare.mercury->engine().stats().last_detach_cycles,
              c.mercury->engine().stats().last_detach_cycles);
    for (std::size_t i = 0; i < cpus; ++i)
      EXPECT_EQ(bare.machine->cpu(i).now(), c.machine->cpu(i).now());
  }
}

TEST(SwitchEngine, EveryCpuStaysParkedThroughTheTransfer) {
  // §5.4: a switch is atomic across CPUs. Every core stays parked at the
  // barrier until the state transfer is done, even when the CP does all
  // of the transfer alone, so the worst per-CPU pause covers it.
  for (const std::size_t cpus : {1ul, 2ul}) {
    SCOPED_TRACE("cpus=" + std::to_string(cpus));
    MercuryConfig cfg;
    cfg.switch_config.crew_workers = 0;
    MercuryBox box(cfg, /*mem_mb=*/128, cpus);
    Mercury& m = *box.mercury;
    const core::SwitchStats& st = m.engine().stats();
    obs::PauseLedger ledger;
    {
      obs::PauseLedgerScope scope(ledger);
      ASSERT_TRUE(m.switch_to(ExecMode::kPartialVirtual));
    }
    const hw::Cycles attach_transfer =
        st.last_transfer.page_info_cycles + st.last_transfer.binding_cycles;
    EXPECT_GE(st.last_max_pause_cycles, attach_transfer);
#if MERCURY_OBS_ENABLED
    EXPECT_GE(ledger.total(obs::PauseCause::kRendezvousParked),
              cpus * attach_transfer)
        << "every CPU's parked interval must span the attach transfer";
#endif
    ASSERT_TRUE(m.switch_to(ExecMode::kNative));
    EXPECT_GE(st.last_max_pause_cycles,
              st.last_transfer.protection_cycles +
                  st.last_transfer.binding_cycles);
  }
}

TEST(SwitchEngine, CrewClampsToMachineSize) {
  // More workers than the machine has spare CPUs: the crew clamps (UP means
  // the control processor works alone) and the switch still commits.
  MercuryConfig cfg;
  cfg.switch_config.crew_workers = 16;
  MercuryBox box(cfg, /*mem_mb=*/128, /*cpus=*/1);
  Mercury& m = *box.mercury;
  ASSERT_TRUE(m.switch_to(ExecMode::kPartialVirtual));
  EXPECT_TRUE(m.hypervisor().active());
  ASSERT_TRUE(m.switch_to(ExecMode::kNative));
  EXPECT_FALSE(m.hypervisor().active());
}

TEST(SwitchEngine, CrewDispatchWaitsForRefcountZero) {
  // Shard dispatch is gated on the §5.1.1 commit point: while a VO section
  // is held the crewed switch must defer exactly like the serial one, and
  // only dispatch (then commit) once the reference count drains.
  MercuryConfig cfg;
  cfg.switch_config.crew_workers = 3;
  MercuryBox box(cfg, /*mem_mb=*/128, /*cpus=*/4);
  Mercury& m = *box.mercury;
  bool release_now = false;
  m.kernel().spawn("holder", [&](Sys& s) -> Sub<void> {
    core::VirtObject::Section section(m.native_vo());
    while (!release_now) co_await s.sleep_us(2'000.0);
    section.release();
    for (;;) co_await s.sleep_us(10'000.0);
  });
  m.kernel().run_for(hw::kCyclesPerMillisecond);
  ASSERT_EQ(m.native_vo().active_refs(), 1);

  m.engine().request(ExecMode::kPartialVirtual);
  m.kernel().run_for(25 * hw::kCyclesPerMillisecond);
  EXPECT_EQ(m.mode(), ExecMode::kNative)
      << "crew must not dispatch shards while a VO reference is live";
  EXPECT_GE(m.engine().stats().deferrals, 1u);

  release_now = true;
  EXPECT_TRUE(m.kernel().run_until(
      [&] { return m.mode() == ExecMode::kPartialVirtual; },
      200 * hw::kCyclesPerMillisecond));
  EXPECT_EQ(m.engine().stats().attaches, 1u);
}

TEST(SwitchEngine, SmpSwitchRendezvousesAllCpus) {
  MercuryBox box({}, 256, /*cpus=*/2);
  Mercury& m = *box.mercury;
  const auto ipis_before = box.machine->interrupts().ipis_sent();
  ASSERT_TRUE(m.switch_to(ExecMode::kPartialVirtual));
  EXPECT_GT(m.engine().stats().last_rendezvous_cycles, 0u);
  EXPECT_GT(box.machine->interrupts().ipis_sent(), ipis_before);
  // Both CPUs end aligned on the new mode's state.
  EXPECT_EQ(box.machine->cpu(0).idt(), m.hypervisor().idt_token());
  EXPECT_EQ(box.machine->cpu(1).idt(), m.hypervisor().idt_token());
  ASSERT_TRUE(m.switch_to(ExecMode::kNative));
  EXPECT_EQ(box.machine->cpu(0).idt(), m.kernel().idt_token());
  EXPECT_EQ(box.machine->cpu(1).idt(), m.kernel().idt_token());
}

TEST(SwitchEngine, IdtReloadedPerMode) {
  MercuryBox box;
  Mercury& m = *box.mercury;
  EXPECT_EQ(box.machine->cpu(0).idt(), m.kernel().idt_token());
  ASSERT_TRUE(m.switch_to(ExecMode::kPartialVirtual));
  EXPECT_EQ(box.machine->cpu(0).idt(), m.hypervisor().idt_token())
      << "hardware IDT belongs to the VMM in virtual mode";
}

#if MERCURY_OBS_ENABLED
// Each phase histogram must gain a sample per committed switch, and the
// per-engine callback gauges must mirror SwitchStats live. The registry is
// process-global, so assert on deltas.
TEST(SwitchEngine, PerPhaseMetricsPopulatedByAttachAndDetach) {
  const auto hist_count = [](const obs::Snapshot& snap, const char* name) {
    const obs::InstrumentSample* s = snap.find(name);
    return s ? s->count : 0u;
  };
  const obs::Snapshot before = obs::snapshot();

  MercuryBox box;
  Mercury& m = *box.mercury;
  ASSERT_TRUE(m.switch_to(ExecMode::kPartialVirtual));
  ASSERT_TRUE(m.switch_to(ExecMode::kNative));

  const obs::Snapshot after = obs::snapshot();
  for (const char* h :
       {"switch.attach.total_cycles", "switch.attach.defer_cycles",
        "switch.attach.rendezvous_cycles", "switch.attach.transfer_cycles",
        "switch.attach.fixup_cycles", "switch.detach.total_cycles",
        "switch.detach.defer_cycles", "switch.detach.rendezvous_cycles",
        "switch.detach.transfer_cycles", "switch.detach.fixup_cycles"}) {
    EXPECT_EQ(hist_count(after, h), hist_count(before, h) + 1) << h;
  }
  // Total time is the whole commit: at least the sum of the parts it spans.
  const obs::InstrumentSample* total = after.find("switch.attach.total_cycles");
  ASSERT_NE(total, nullptr);
  EXPECT_GT(total->max, 0.0);

  // The engine's stats surface as live callback gauges under its label.
  const std::string& label = m.engine().obs_label();
  ASSERT_FALSE(label.empty());
  const obs::InstrumentSample* attaches = after.find("switch.attaches", label);
  ASSERT_NE(attaches, nullptr);
  EXPECT_DOUBLE_EQ(attaches->value,
                   static_cast<double>(m.engine().stats().attaches));
  const obs::InstrumentSample* last_attach =
      after.find("switch.last_attach_cycles", label);
  ASSERT_NE(last_attach, nullptr);
  EXPECT_DOUBLE_EQ(last_attach->value,
                   static_cast<double>(m.engine().stats().last_attach_cycles));
}

// Engine destruction must unregister its callback gauges (no dangling reads).
TEST(SwitchEngine, CallbackGaugesUnregisterWithEngine) {
  std::string label;
  {
    MercuryBox box;
    label = box.mercury->engine().obs_label();
    ASSERT_NE(obs::snapshot().find("switch.attaches", label), nullptr);
  }
  EXPECT_EQ(obs::snapshot().find("switch.attaches", label), nullptr);
}

TEST(SwitchEngine, CrewPhasesProfileNestedUnderTheCommit) {
  // Each crew phase charges a profiler bucket of its own name inside
  // switch.commit. The phases nest nothing, the commit's self time is what
  // its phases did not take, and the self times of all buckets still add
  // up to the top-level scopes' wall time (the kernel steps the commits
  // run inside).
  MercuryBox box(MercuryConfig{}, /*mem_mb=*/128, /*cpus=*/2);
  obs::EngineProfiler& prof = obs::profiler();
  prof.reset();
  prof.set_enabled(true);
  ASSERT_TRUE(box.mercury->switch_to(ExecMode::kPartialVirtual));
  ASSERT_TRUE(box.mercury->switch_to(ExecMode::kNative));
  prof.set_enabled(false);
  const std::vector<obs::ProfBucket> snap = prof.snapshot();
  prof.reset();

  const obs::ProfBucket* commit = nullptr;
  std::uint64_t phases_wall = 0, self_total = 0, top_level_wall = 0;
  std::vector<std::string> phases;
  for (const obs::ProfBucket& b : snap) {
    self_total += b.self_ns;
    if (b.name.starts_with("kernel.step.")) top_level_wall += b.wall_ns;
    if (b.name == "switch.commit") commit = &b;
    if (!b.name.starts_with("switch.crew.") || b.count == 0) continue;
    phases.push_back(b.name);
    EXPECT_EQ(b.self_ns, b.wall_ns) << b.name;
    EXPECT_GT(b.sim_cycles, 0u) << b.name;
    phases_wall += b.wall_ns;
  }
  ASSERT_NE(commit, nullptr);
  EXPECT_EQ(commit->count, 2u);
  for (const char* name :
       {"switch.crew.rebuild", "switch.crew.protect", "switch.crew.validate_l1",
        "switch.crew.validate_l2", "switch.crew.unprotect"})
    EXPECT_NE(std::find(phases.begin(), phases.end(), name), phases.end())
        << name;
  EXPECT_LE(phases_wall, commit->wall_ns);
  EXPECT_EQ(commit->self_ns, commit->wall_ns - phases_wall);
  EXPECT_EQ(self_total, top_level_wall);
}
#endif  // MERCURY_OBS_ENABLED

// Obs-off guard probe (scripts/run_tiers.sh obsoff). Prints the simulated
// attach/detach cost of two fixed scenarios; the obsoff tier runs this test
// in a MERCURY_OBS=ON and a MERCURY_OBS=OFF build and diffs the
// CYCLE_IDENTITY lines. Instrumentation (the interval stream, MERC_FLIGHT,
// postmortem capture) must never charge simulated cycles, so the numbers
// must be byte-identical across the two builds.
TEST(SwitchEngine, CycleIdentityProbe) {
  {
    MercuryBox box({}, /*mem_mb=*/128);
    Mercury& m = *box.mercury;
    ASSERT_TRUE(m.switch_to(ExecMode::kPartialVirtual));
    ASSERT_TRUE(m.switch_to(ExecMode::kNative));
    const core::SwitchStats& st = m.engine().stats();
    ASSERT_GT(st.last_attach_cycles, 0u);
    ASSERT_GT(st.last_detach_cycles, 0u);
    std::printf("CYCLE_IDENTITY up attach=%" PRIu64 " detach=%" PRIu64 "\n",
                st.last_attach_cycles, st.last_detach_cycles);
    // The rendezvous bookkeeping (parked_at_, max_pause) and the pause
    // ledger are built in both flavours, so the max-pause figure must also
    // be build-flavour-invariant.
    std::printf("CYCLE_IDENTITY up.pause max=%" PRIu64 "\n",
                st.last_max_pause_cycles);
  }
  {
    MercuryConfig cfg;
    cfg.switch_config.crew_workers = 3;
    MercuryBox box(cfg, /*mem_mb=*/128, /*cpus=*/4);
    Mercury& m = *box.mercury;
    ASSERT_TRUE(m.switch_to(ExecMode::kPartialVirtual));
    ASSERT_TRUE(m.switch_to(ExecMode::kNative));
    const core::SwitchStats& st = m.engine().stats();
    std::printf("CYCLE_IDENTITY smp attach=%" PRIu64 " detach=%" PRIu64 "\n",
                st.last_attach_cycles, st.last_detach_cycles);
    ASSERT_GT(st.last_max_pause_cycles, 0u);
    std::printf("CYCLE_IDENTITY smp.pause max=%" PRIu64 "\n",
                st.last_max_pause_cycles);
  }
  {
    // Supervised round trip: the supervisor's bookkeeping (hooks, request
    // records, health machine) must also be invisible to the simulated
    // clock in both build flavours.
    MercuryBox box({}, /*mem_mb=*/128);
    Mercury& m = *box.mercury;
    core::SwitchSupervisor sup(m.engine());
    ASSERT_TRUE(sup.switch_now(ExecMode::kPartialVirtual));
    ASSERT_TRUE(sup.switch_now(ExecMode::kNative));
    const core::SwitchStats& st = m.engine().stats();
    std::printf("CYCLE_IDENTITY sup attach=%" PRIu64 " detach=%" PRIu64 "\n",
                st.last_attach_cycles, st.last_detach_cycles);
  }
  {
    // Warm re-attach: the dirty-frame tracker hooks fire on every native
    // PTE/content write while detached, and the warm rebuild walks only the
    // dirty set. Neither the tracker nor the warm metrics may charge
    // simulated cycles, so the retaining detach and the warm attach must
    // also be byte-identical across the two builds.
    MercuryConfig cfg;
    cfg.switch_config.warm_reattach = true;
    MercuryBox box(cfg, /*mem_mb=*/128);
    Mercury& m = *box.mercury;
    m.kernel().spawn("warm-toucher", [](kernel::Sys& s) -> kernel::Sub<void> {
      const auto va = s.mmap(16 * hw::kPageSize, true);
      for (;;) {
        s.touch_pages(va, 16, true);
        co_await s.compute_us(50.0);
      }
    });
    ASSERT_TRUE(m.switch_to(ExecMode::kPartialVirtual));
    ASSERT_TRUE(m.switch_to(ExecMode::kNative));  // retaining detach
    m.kernel().run_for(hw::kCyclesPerMillisecond);  // dirty a fixed window
    ASSERT_TRUE(m.switch_to(ExecMode::kPartialVirtual));
    const core::SwitchStats& st = m.engine().stats();
    ASSERT_EQ(st.warm_attaches, 1u);
    std::printf("CYCLE_IDENTITY warm attach=%" PRIu64 " detach=%" PRIu64
                " dirty=%" PRIu64 "\n",
                st.last_attach_cycles, st.last_detach_cycles,
                st.last_dirty_frames);
  }
  {
    // Eager page tracking, the one configuration whose native VO is not a
    // plain NativeVo: a fixed mmap, touch and fork pay the tracking on every
    // PTE write and pin, and the attach skips the page-info rebuild.
    MercuryConfig cfg;
    cfg.switch_config.eager_page_tracking = true;
    MercuryBox box(cfg, /*mem_mb=*/128);
    Mercury& m = *box.mercury;
    hw::Cycles work = 0;
    bool done = false;
    m.kernel().spawn("eager-work", [&](kernel::Sys& s) -> kernel::Sub<void> {
      const hw::Cycles t0 = s.cpu().now();
      const auto va = s.mmap(32 * hw::kPageSize, true);
      s.touch_pages(va, 32, true);
      const auto child = s.fork([](kernel::Sys& cs) -> kernel::Sub<void> {
        cs.exit(0);
        co_return;
      });
      co_await s.wait_pid(child);
      work = s.cpu().now() - t0;
      done = true;
    });
    ASSERT_TRUE(m.kernel().run_until([&] { return done; },
                                     500 * hw::kCyclesPerMillisecond));
    ASSERT_TRUE(m.switch_to(ExecMode::kPartialVirtual));
    ASSERT_TRUE(m.switch_to(ExecMode::kNative));
    const core::SwitchStats& st = m.engine().stats();
    std::printf("CYCLE_IDENTITY eager attach=%" PRIu64 " detach=%" PRIu64
                " work=%" PRIu64 " tracked=%" PRIu64 "\n",
                st.last_attach_cycles, st.last_detach_cycles, work,
                m.eager_vo()->tracked_updates());
  }
}

}  // namespace
}  // namespace mercury::testing
