// Virtualization objects: reference counting, dispatch charges, one guard
// per batch, eager tracking equivalence, rendezvous protocols, stack fixup
// walk.
#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "core/fault_inject.hpp"
#include "core/mercury.hpp"
#include "core/rendezvous.hpp"
#include "core/stack_fixup.hpp"
#include "hw/costs.hpp"
#include "kernel/syscalls.hpp"
#include "tests/injector_guard.hpp"
#include "workloads/configs.hpp"

namespace mercury::testing {
namespace {

using core::ExecMode;
using core::Mercury;
using core::MercuryConfig;
using core::Rendezvous;
using core::RendezvousProtocol;
using core::VirtObject;
using kernel::Sub;
using kernel::Sys;

workloads::SutParams tiny_sut() {
  workloads::SutParams p;
  p.machine_mem_kb = 256 * 1024;
  p.kernel_mem_kb = 96 * 1024;
  return p;
}

struct Box {
  explicit Box(MercuryConfig cfg = {}, std::size_t cpus = 1) {
    hw::MachineConfig mc;
    mc.mem_kb = 192 * 1024;
    mc.num_cpus = cpus;
    machine = std::make_unique<hw::Machine>(mc);
    if (cfg.kernel_frames == 0)
      cfg.kernel_frames = (64ull * 1024 * 1024) / hw::kPageSize;
    mercury = std::make_unique<Mercury>(*machine, cfg);
  }
  std::unique_ptr<hw::Machine> machine;
  std::unique_ptr<Mercury> mercury;
};

TEST(VirtObject, OpGuardCountsEntriesAndExits) {
  Box box;
  core::NativeVo& vo = box.mercury->native_vo();
  hw::Cpu& cpu = box.machine->cpu(0);
  const auto entries = vo.total_entries();
  EXPECT_EQ(vo.active_refs(), 0);
  {
    VirtObject::OpGuard g(vo, cpu);
    EXPECT_EQ(vo.active_refs(), 1);
    {
      VirtObject::OpGuard g2(vo, cpu);
      EXPECT_EQ(vo.active_refs(), 2);
    }
    EXPECT_EQ(vo.active_refs(), 1);
  }
  EXPECT_EQ(vo.active_refs(), 0);
  EXPECT_EQ(vo.total_entries(), entries + 2);
}

TEST(VirtObject, SectionHoldsAcrossRelease) {
  Box box;
  core::NativeVo& vo = box.mercury->native_vo();
  auto section = std::make_unique<VirtObject::Section>(vo);
  EXPECT_EQ(vo.active_refs(), 1);
  section->release();
  EXPECT_EQ(vo.active_refs(), 0);
  section.reset();  // double release must not underflow
  EXPECT_EQ(vo.active_refs(), 0);
}

TEST(VirtObject, MercuryVosChargePerOpButDirectOpsDoNot) {
  Box box;
  EXPECT_EQ(box.mercury->native_vo().per_op_charge(),
            pv::costs::kVoPerOpOverhead);
  EXPECT_EQ(box.mercury->driver_vo().per_op_charge(),
            pv::costs::kVoPerOpOverhead);
  // N-L drives the hardware directly: its NativeVo counts entries like
  // Mercury's but charges no dispatch.
  auto nl = workloads::Sut::create(workloads::SystemId::kNL, tiny_sut());
  auto& nl_vo = dynamic_cast<core::NativeVo&>(nl->kernel().ops());
  EXPECT_EQ(nl_vo.per_op_charge(), 0u);
  // Every kernel op goes through a guard: the same op costs exactly the
  // dispatch charge more on M-N than on N-L.
  const auto stack_switch_cost = [](VirtObject& vo, hw::Cpu& cpu) {
    const auto entries = vo.total_entries();
    const hw::Cycles before = cpu.now();
    vo.stack_switch(cpu);
    EXPECT_EQ(vo.total_entries(), entries + 1);
    return cpu.now() - before;
  };
  EXPECT_EQ(stack_switch_cost(nl_vo, nl->machine().cpu(0)),
            hw::costs::kPrivRegWrite);
  EXPECT_EQ(stack_switch_cost(box.mercury->native_vo(), box.machine->cpu(0)),
            hw::costs::kPrivRegWrite + pv::costs::kVoPerOpOverhead);
}

TEST(VirtObject, PteBatchIsOneOp) {
  // A batch takes one guard however many entries it carries: one dispatch
  // charge and one entry on each native VO, plus the eager VO's tracking
  // per entry, charged once.
  const auto batch_cost = [](VirtObject& vo, kernel::Kernel& k, hw::Cpu& cpu) {
    const hw::PhysAddr l1 = hw::addr_of(k.kernel_l1_frames().back());
    const std::array<pv::PteUpdate, 3> batch{{
        {l1 + 4000, hw::Pte{}},  // high, unused entries
        {l1 + 4004, hw::Pte{}},
        {l1 + 4008, hw::Pte{}},
    }};
    const auto entries = vo.total_entries();
    const hw::Cycles before = cpu.now();
    vo.pte_write_batch(cpu, batch);
    EXPECT_EQ(vo.total_entries(), entries + 1);
    return cpu.now() - before;
  };
  const hw::Cycles stores = 3 * hw::costs::kMemAccess;

  auto nl = workloads::Sut::create(workloads::SystemId::kNL, tiny_sut());
  EXPECT_EQ(batch_cost(dynamic_cast<core::NativeVo&>(nl->kernel().ops()),
                       nl->kernel(), nl->machine().cpu(0)),
            stores);

  Box mn;
  EXPECT_EQ(batch_cost(mn.mercury->native_vo(), mn.mercury->kernel(),
                       mn.machine->cpu(0)),
            stores + pv::costs::kVoPerOpOverhead);

  MercuryConfig eager_cfg;
  eager_cfg.switch_config.eager_page_tracking = true;
  Box eager(eager_cfg);
  core::EagerTrackingVo& vo = *eager.mercury->eager_vo();
  ASSERT_EQ(&vo, &eager.mercury->native_vo());
  const auto tracked = vo.tracked_updates();
  EXPECT_EQ(batch_cost(vo, eager.mercury->kernel(), eager.machine->cpu(0)),
            stores + pv::costs::kVoPerOpOverhead +
                3 * pv::costs::kEagerTrackPerPte);
  EXPECT_EQ(vo.tracked_updates(), tracked + 3);
}

TEST(EagerTracking, TableMatchesLazyRebuildAfterActivity) {
  // Run identical activity under eager tracking and under lazy rebuild; the
  // owner/type tables the VMM ends up enforcing must agree.
  auto run_activity = [](Mercury& m) {
    bool done = false;
    m.kernel().spawn("act", [&](Sys& s) -> Sub<void> {
      const auto va = s.mmap(32 * hw::kPageSize, true);
      s.touch_pages(va, 32, true);
      const auto child = s.fork([](Sys& cs) -> Sub<void> {
        cs.exit(0);
        co_return;
      });
      co_await s.wait_pid(child);
      s.munmap(va, 16 * hw::kPageSize);
      done = true;
    });
    EXPECT_TRUE(m.kernel().run_until([&] { return done; },
                                     500 * hw::kCyclesPerMillisecond));
  };

  MercuryConfig lazy_cfg;
  Box lazy(lazy_cfg);
  run_activity(*lazy.mercury);
  ASSERT_TRUE(lazy.mercury->switch_to(ExecMode::kPartialVirtual));

  MercuryConfig eager_cfg;
  eager_cfg.switch_config.eager_page_tracking = true;
  Box eager(eager_cfg);
  run_activity(*eager.mercury);
  ASSERT_TRUE(eager.mercury->switch_to(ExecMode::kPartialVirtual));
  EXPECT_GT(eager.mercury->eager_vo()->tracked_updates(), 0u);

  // Both tables must pass the structural invariants and agree on the typed
  // frames of the kernel's page-table forest.
  EXPECT_FALSE(lazy.mercury->hypervisor().page_info().check_invariants());
  EXPECT_FALSE(eager.mercury->hypervisor().page_info().check_invariants());
  const auto& lk = lazy.mercury->kernel();
  const auto& ek = eager.mercury->kernel();
  ASSERT_EQ(lk.kernel_l1_frames().size(), ek.kernel_l1_frames().size());
  for (std::size_t i = 0; i < lk.kernel_l1_frames().size(); ++i) {
    const auto& lt =
        lazy.mercury->hypervisor().page_info().at(lk.kernel_l1_frames()[i]);
    const auto& et =
        eager.mercury->hypervisor().page_info().at(ek.kernel_l1_frames()[i]);
    EXPECT_EQ(lt.type, et.type);
    EXPECT_EQ(lt.pinned, et.pinned);
  }
}

// Eager tracking primes its table in Mercury's constructor, before any
// switch engine exists: the whole-range rebuild visits kAdoptRebuild once
// per kernel frame, so a plan or storm at that site can fault the priming.
TEST(EagerTracking, PrimingVisitsAdoptRebuildOncePerKernelFrame) {
  InjectorGuard guard;
  // Live, so visits are counted, at a site construction never reaches.
  core::FaultPlan plan;
  plan.site = core::FaultSite::kMigrateActivate;
  core::fault_injector().arm(plan);
  MercuryConfig cfg;
  cfg.switch_config.eager_page_tracking = true;
  Box box(cfg);
  const std::size_t frames = box.mercury->kernel().pool().owned_count();
  ASSERT_GT(frames, 0u);
  EXPECT_EQ(core::fault_injector().visits(core::FaultSite::kAdoptRebuild),
            frames);
  EXPECT_TRUE(core::fault_injector().armed()) << "construction fired nothing";
}

TEST(EagerTracking, AttachIsCheaperButNativeOpsAreDearer) {
  auto fork_and_attach = [](bool eager) {
    MercuryConfig cfg;
    cfg.switch_config.eager_page_tracking = eager;
    Box box(cfg);
    hw::Cycles fork_cost = 0;
    bool done = false;
    box.mercury->kernel().spawn("f", [&](Sys& s) -> Sub<void> {
      const auto va = s.mmap(128 * hw::kPageSize, true);
      s.touch_pages(va, 128, true);
      const hw::Cycles t0 = s.cpu().now();
      const auto child = s.fork([](Sys& cs) -> Sub<void> {
        cs.exit(0);
        co_return;
      });
      co_await s.wait_pid(child);
      fork_cost = s.cpu().now() - t0;
      done = true;
    });
    EXPECT_TRUE(box.mercury->kernel().run_until(
        [&] { return done; }, 500 * hw::kCyclesPerMillisecond));
    EXPECT_TRUE(box.mercury->switch_to(ExecMode::kPartialVirtual));
    return std::make_pair(fork_cost,
                          box.mercury->engine().stats().last_attach_cycles);
  };
  const auto [lazy_fork, lazy_attach] = fork_and_attach(false);
  const auto [eager_fork, eager_attach] = fork_and_attach(true);
  EXPECT_GT(eager_fork, lazy_fork) << "eager tracking taxes native PTE work";
  EXPECT_LT(eager_attach, lazy_attach) << "eager attach skips the rebuild";
}

TEST(RendezvousTest, SingleCpuIsFree) {
  hw::MachineConfig mc;
  mc.mem_kb = 8 * 1024;
  hw::Machine m(mc);
  Rendezvous rv(m, m.cpu(0), RendezvousProtocol::kIpiSharedVar);
  rv.park();
  const auto stats = rv.release();
  EXPECT_EQ(stats.latency(), 0u);
}

TEST(RendezvousTest, AlignsAllCpuClocks) {
  hw::MachineConfig mc;
  mc.num_cpus = 4;
  mc.mem_kb = 8 * 1024;
  hw::Machine m(mc);
  m.cpu(1).charge(5000);
  m.cpu(3).charge(12000);
  Rendezvous rv(m, m.cpu(0), RendezvousProtocol::kIpiSharedVar);
  rv.park();
  const auto stats = rv.release();
  EXPECT_EQ(m.cpu(0).now(), m.cpu(1).now());
  EXPECT_EQ(m.cpu(1).now(), m.cpu(2).now());
  EXPECT_EQ(m.cpu(2).now(), m.cpu(3).now());
  EXPECT_GE(m.cpu(0).now(), stats.entry_time);
}

TEST(RendezvousTest, SharedVarScalesWorseThanTreeAtHighCounts) {
  auto latency = [](std::size_t cpus, RendezvousProtocol p) {
    hw::MachineConfig mc;
    mc.num_cpus = cpus;
    mc.mem_kb = 8 * 1024;
    hw::Machine m(mc);
    Rendezvous rv(m, m.cpu(0), p);
    rv.park();
    return rv.release().latency();
  };
  // The paper prefers IPI+shared-var on its 2-way box...
  EXPECT_LE(latency(2, RendezvousProtocol::kIpiSharedVar),
            latency(2, RendezvousProtocol::kTree));
  // ...and anticipates the loosely-coupled protocol winning at scale (§8).
  EXPECT_GT(latency(32, RendezvousProtocol::kIpiSharedVar),
            latency(32, RendezvousProtocol::kTree));
}

TEST(StackFixup, EagerWalkRewritesOnlyKernelFrames) {
  Box box;
  Mercury& m = *box.mercury;
  m.kernel().spawn("a", [](Sys& s) -> Sub<void> {
    for (;;) co_await s.sleep_us(5'000.0);  // blocked in-kernel: ring0 frame
  });
  m.kernel().spawn("b", [](Sys& s) -> Sub<void> {
    for (;;) co_await s.compute_us(1'000.0);  // preempted: ring3 frame
  });
  m.kernel().run_for(3 * hw::kCyclesPerMillisecond);

  const auto stats =
      core::fix_all_saved_contexts(box.machine->cpu(0), m.kernel(),
                                   hw::Ring::kRing1);
  EXPECT_GE(stats.tasks_scanned, 2u);
  m.kernel().for_each_task([&](kernel::Task& t) {
    if (!t.saved_ctx.valid) return;
    if (t.saved_ctx.cs.rpl() == hw::Ring::kRing3) return;  // untouched user
    EXPECT_EQ(t.saved_ctx.cs.rpl(), hw::Ring::kRing1);
    EXPECT_EQ(t.saved_ctx.ss.rpl(), hw::Ring::kRing1);
  });
}

}  // namespace
}  // namespace mercury::testing
