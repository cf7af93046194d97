// Differential harness for the checkpoint/restore service (paper §6.1) and
// the dependability arcs built on it. The oracle is a live twin: two
// machines with the same seed execute the same steps cycle-for-cycle, one
// is checkpointed, diverged, and restored, and its domain memory is then
// compared shard by shard against the twin that never diverged. Any frame
// the restore missed — a stale dirty bit, a page the capture skipped —
// fails with the exact PFN and byte offset.
//
// The divergence workload is deliberately content-safe: regions are mapped
// and demand-faulted (read-touched) *before* the capture, and the
// divergence windows only write-touch them. Restore rewrites domain memory
// but not the hypervisor's host-side bookkeeping, so a workload that grew
// or shrank page tables between capture and restore would leave the two
// views disagreeing — the same contract DESIGN.md documents for the
// checkpoint-restart arc.
//
// Also here: the restore-path fault rows (a fault mid-write-back must
// leave a retryable state, never a poisoned one) and the CYCLE_IDENTITY
// probe for the depend services — scripts/run_tiers.sh obsoff diffs those
// lines between MERCURY_OBS=ON and OFF builds, so the interval and flight
// hooks in checkpoint.cpp and migrate.cpp must stay weightless, and the
// arcs' ledger-derived downtime must not depend on the build.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "cluster/depend.hpp"
#include "cluster/fabric.hpp"
#include "core/fault_inject.hpp"
#include "core/invariants.hpp"
#include "core/mercury.hpp"
#include "kernel/syscalls.hpp"
#include "tests/recording_sink.hpp"
#include "tests/test_seed.hpp"
#include "util/rng.hpp"
#include "vmm/checkpoint.hpp"
#include "vmm/page_info.hpp"

namespace mercury::testing {
namespace {

using core::ExecMode;
using core::FaultInjected;
using core::FaultKind;
using core::FaultPlan;
using core::FaultSite;
using core::Mercury;
using kernel::Sub;
using kernel::Sys;

constexpr hw::Cycles kBudget = 500 * hw::kCyclesPerMillisecond;

/// One of the two same-seed machines. The mutators map and demand-fault
/// their regions up front (read-touches: PTEs installed, dirty bits clear),
/// so a later dirty window flips PTE dirty bits — real, restorable content
/// divergence — without ever growing a page table mid-story.
struct TwinRig {
  hw::Machine machine;
  Mercury m;
  util::Rng rng;
  bool mutate = false;

  explicit TwinRig(std::uint64_t seed)
      : machine([] {
          hw::MachineConfig mc;
          mc.num_cpus = 1;
          mc.mem_kb = 96 * 1024;
          return mc;
        }()),
        m(machine,
          [] {
            core::MercuryConfig cfg;
            cfg.kernel_frames = (32ull * 1024 * 1024) / hw::kPageSize;
            return cfg;
          }()),
        rng(seed) {
    for (int i = 0; i < 3; ++i) {
      m.kernel().spawn("mut" + std::to_string(i),
                       [this](Sys& s) -> Sub<void> {
        const hw::VirtAddr va = s.mmap(12 * hw::kPageSize, true);
        s.touch_pages(va, 12, /*write=*/false);  // map now, stay clean
        for (;;) {
          if (!mutate) {
            co_await s.sleep_us(200.0);
            continue;
          }
          const std::size_t first = rng.below(12);
          const std::size_t pages = 1 + rng.below(12 - first);
          s.touch_pages(va + static_cast<hw::VirtAddr>(first * hw::kPageSize),
                        pages, /*write=*/true);
          co_await s.compute_us(30.0 + 50.0 * rng.uniform());
        }
      });
    }
    m.kernel().run_for(2 * hw::kCyclesPerMillisecond);
  }

  bool settle(ExecMode target) { return m.engine().switch_now(target, kBudget); }

  /// Write-touch the mapped regions for a random slice of simulated time,
  /// then quiesce. Only this rig's rng advances — the twin stays frozen.
  void dirty_window() {
    mutate = true;
    m.kernel().run_for(hw::us_to_cycles(200.0 + 600.0 * rng.uniform()));
    mutate = false;
    m.kernel().run_for(1 * hw::kCyclesPerMillisecond);
  }

  void expect_consistent(const std::string& ctx) {
    const core::InvariantReport report =
        core::check_machine_invariants(m.engine());
    ASSERT_TRUE(report.ok()) << ctx << "\n" << report.to_string();
    if (m.hypervisor().page_info().valid()) {
      const auto err = m.hypervisor().page_info().check_invariants();
      ASSERT_FALSE(err.has_value()) << ctx << ": " << *err;
    }
  }
};

/// Shard-by-shard equality of two machines' views of the same frame range
/// (shards sized as the page-info table's, so a divergence names the same
/// shard a warm-rebuild failure would).
void expect_domains_equal(hw::Machine& am, hw::Machine& bm, hw::Pfn first,
                          std::size_t count, const std::string& ctx) {
  constexpr std::size_t kPer = vmm::PageInfoTable::kFramesPerShard;
  std::vector<std::uint8_t> abuf(hw::kPageSize), bbuf(hw::kPageSize);
  const std::size_t shards = (count + kPer - 1) / kPer;
  for (std::size_t s = 0; s < shards; ++s) {
    std::size_t diffs = 0;
    std::string detail;
    const std::size_t end = std::min(count, (s + 1) * kPer);
    for (std::size_t i = s * kPer; i < end; ++i) {
      const hw::Pfn pfn = first + static_cast<hw::Pfn>(i);
      am.memory().read_bytes(hw::addr_of(pfn), abuf);
      bm.memory().read_bytes(hw::addr_of(pfn), bbuf);
      if (abuf == bbuf) continue;
      if (++diffs <= 4) {
        std::size_t off = 0;
        while (off < hw::kPageSize && abuf[off] == bbuf[off]) ++off;
        detail += "  pfn " + std::to_string(pfn) + ": first diff at byte " +
                  std::to_string(off) + "\n";
      }
    }
    EXPECT_EQ(diffs, 0u) << ctx << ": shard " << s << " diverges (" << diffs
                         << " frames):\n"
                         << detail;
  }
}

TEST(CheckpointRestore, RestoredImageMatchesLiveTwin) {
  const std::uint64_t seed = test_seed(0xC4E50001ull);
  TwinRig a(seed);
  TwinRig b(seed);
  ASSERT_TRUE(a.settle(ExecMode::kPartialVirtual));
  ASSERT_TRUE(b.settle(ExecMode::kPartialVirtual));

  hw::Cpu& acpu = a.machine.cpu(0);
  vmm::Hypervisor& ahv = a.m.hypervisor();
  const vmm::DomainId adom = a.m.driver_vo().dom();
  const vmm::Snapshot snap = vmm::Checkpointer::take(acpu, ahv, adom);
  ASSERT_GT(snap.frame_count, 0u);
  // Same seed, same steps: at the capture point the twins are bit-exact,
  // so the twin IS the domain image the restore must reproduce.
  expect_domains_equal(a.machine, b.machine, snap.first_frame,
                       snap.frame_count, "pre-divergence twins");

  for (int round = 1; round <= 3; ++round) {
    const std::string ctx =
        "seed=" + std::to_string(seed) + " round=" + std::to_string(round);
    SCOPED_TRACE(ctx);
    a.dirty_window();
    ASSERT_FALSE(vmm::Checkpointer::matches(ahv, snap))
        << ctx << ": the divergence window changed nothing — the harness "
        << "is asserting vacuously";
    vmm::Checkpointer::restore(acpu, ahv, snap);
    EXPECT_TRUE(vmm::Checkpointer::matches(ahv, snap))
        << ctx << ": restore is not bit-exact against its own snapshot";
    expect_domains_equal(a.machine, b.machine, snap.first_frame,
                         snap.frame_count, ctx + " post-restore");
    a.expect_consistent(ctx + " post-restore");
  }

  // The restored machine is a first-class citizen: it detaches cleanly and
  // stays consistent.
  ASSERT_TRUE(a.settle(ExecMode::kNative));
  a.expect_consistent("post-detach");
  ASSERT_TRUE(b.settle(ExecMode::kNative));
}

// --- the zero-page image ---
//
// A frame whose backing was never materialized is stored as nothing and
// restored as a clear. These rows pin the two edges of that format: a
// store into such a frame is a real difference, and a restore still
// reports every frame of the domain to the dirty sink, exactly once.

TEST(CheckpointRestore, WriteToAZeroPageBreaksTheMatchAndRestoreClearsIt) {
  TwinRig rig(test_seed(0xC4E50005ull));
  ASSERT_TRUE(rig.settle(ExecMode::kPartialVirtual));
  hw::Cpu& cpu = rig.machine.cpu(0);
  vmm::Hypervisor& hv = rig.m.hypervisor();
  hw::PhysicalMemory& mem = rig.machine.memory();
  const vmm::Snapshot snap =
      vmm::Checkpointer::take(cpu, hv, rig.m.driver_vo().dom());
  EXPECT_EQ(snap.bytes(), snap.frame_count * hw::kPageSize);
  EXPECT_LT(snap.data.size(), snap.bytes()) << "no frame stored as a zero page";

  std::size_t zero = 0;
  while (zero < snap.frame_count && snap.frame(zero) != nullptr) ++zero;
  ASSERT_LT(zero, snap.frame_count);
  const hw::Pfn pfn = snap.first_frame + static_cast<hw::Pfn>(zero);
  ASSERT_EQ(mem.frame_bytes(pfn), nullptr);
  ASSERT_TRUE(vmm::Checkpointer::matches(hv, snap));

  mem.write_u32(hw::addr_of(pfn) + 256, 0x2E80BADu);
  EXPECT_FALSE(vmm::Checkpointer::matches(hv, snap))
      << "a store into a zero page of the image went unnoticed";
  vmm::Checkpointer::restore(cpu, hv, snap);
  std::vector<std::uint8_t> frame(hw::kPageSize, 0xFF);
  mem.read_bytes(hw::addr_of(pfn), frame);
  EXPECT_EQ(frame, std::vector<std::uint8_t>(hw::kPageSize, 0))
      << "restore left the frame's bytes behind";
  EXPECT_TRUE(vmm::Checkpointer::matches(hv, snap));
  rig.expect_consistent("zero page restored");
}

TEST(CheckpointRestore, RestoreNotifiesEveryDomainFrameOnce) {
  TwinRig rig(test_seed(0xC4E50006ull));
  ASSERT_TRUE(rig.settle(ExecMode::kPartialVirtual));
  hw::Cpu& cpu = rig.machine.cpu(0);
  vmm::Hypervisor& hv = rig.m.hypervisor();
  hw::PhysicalMemory& mem = rig.machine.memory();
  const vmm::Snapshot snap =
      vmm::Checkpointer::take(cpu, hv, rig.m.driver_vo().dom());
  rig.dirty_window();

  const std::size_t chunks = mem.resident_chunks();
  std::vector<hw::Pfn> noted;
  {
    RecordingSink sink(mem);
    vmm::Checkpointer::restore(cpu, hv, snap);
    noted = sink.noted;
  }
  std::vector<hw::Pfn> every(snap.frame_count);
  std::iota(every.begin(), every.end(), snap.first_frame);
  EXPECT_EQ(noted, every)
      << "a restore must report each domain frame once, in order";
  // Zero pages were restored as clears: no backing was materialized.
  EXPECT_EQ(mem.resident_chunks(), chunks);
  EXPECT_TRUE(vmm::Checkpointer::matches(hv, snap));
}

/// Disarm on scope exit so a failed row cannot leak its plan into the next
/// test (same contract as the fault-matrix sweeps).
struct DisarmGuard {
  ~DisarmGuard() {
    core::fault_injector().disarm();
    core::fault_injector().stop_storm();
  }
};

TEST(CheckpointRestore, FaultMidServiceLeavesARetryableState) {
  DisarmGuard guard;
  const std::uint64_t seed = test_seed(0xC4E50002ull);
  TwinRig rig(seed);
  ASSERT_TRUE(rig.settle(ExecMode::kPartialVirtual));
  hw::Cpu& cpu = rig.machine.cpu(0);
  vmm::Hypervisor& hv = rig.m.hypervisor();
  const vmm::DomainId dom = rig.m.driver_vo().dom();
  core::FaultInjector& fi = core::fault_injector();

  const vmm::Snapshot snap = vmm::Checkpointer::take(cpu, hv, dom);
  rig.dirty_window();

  // Restore rows: a fault at any depth of the write-back loop leaves a
  // half-restored image — but restore is a full-image rewrite, so a clean
  // retry from frame 0 must converge to bit-exact.
  for (const FaultKind kind : {FaultKind::kFail, FaultKind::kTimeout}) {
    for (const std::uint64_t trigger :
         {std::uint64_t{1}, std::uint64_t{257}}) {
      const std::string ctx = std::string("restore.apply ") +
                              core::fault_kind_name(kind) +
                              " trigger=" + std::to_string(trigger);
      SCOPED_TRACE(ctx);
      FaultPlan plan;
      plan.site = FaultSite::kRestoreApply;
      plan.kind = kind;
      plan.trigger_count = trigger;
      if (kind == FaultKind::kTimeout) plan.latency = hw::us_to_cycles(100.0);
      fi.arm(plan);
      EXPECT_THROW(vmm::Checkpointer::restore(cpu, hv, snap), FaultInjected)
          << ctx;
      fi.disarm();
      vmm::Checkpointer::restore(cpu, hv, snap);  // clean retry
      EXPECT_TRUE(vmm::Checkpointer::matches(hv, snap))
          << ctx << ": retry after a faulted restore is not bit-exact";
      rig.expect_consistent(ctx);
    }
  }

  // Capture rows: the partial snapshot is caller-local, the domain was only
  // read — the retried capture must be equivalent to an unfaulted one.
  for (const std::uint64_t trigger : {std::uint64_t{1}, std::uint64_t{257}}) {
    const std::string ctx =
        "checkpoint.capture trigger=" + std::to_string(trigger);
    SCOPED_TRACE(ctx);
    FaultPlan plan;
    plan.site = FaultSite::kCheckpointCapture;
    plan.trigger_count = trigger;
    fi.arm(plan);
    EXPECT_THROW(vmm::Checkpointer::take(cpu, hv, dom), FaultInjected) << ctx;
    fi.disarm();
    const vmm::Snapshot retry = vmm::Checkpointer::take(cpu, hv, dom);
    EXPECT_TRUE(vmm::Checkpointer::matches(hv, retry))
        << ctx << ": retried capture does not match the memory it read";
  }

  ASSERT_TRUE(rig.settle(ExecMode::kNative));
  rig.expect_consistent("post-detach");
}

// --- the dependability arcs on a cluster node ---

cluster::NodeConfig arc_node_config() {
  cluster::NodeConfig nc;
  nc.cpus = 2;
  nc.mem_kb = 128 * 1024;
  nc.kernel_mem_kb = 32 * 1024;
  return nc;
}

/// The bench_depend workload: a service that keeps re-dirtying its pages,
/// so migration pre-copy sees a live dirty set. Mapped before the arcs
/// start, write-only afterwards — restore-safe by construction.
void spawn_dirtier(cluster::Node& node) {
  node.mercury().kernel().spawn("dirtier", [](Sys& s) -> Sub<void> {
    const hw::VirtAddr va = s.mmap(32 * hw::kPageSize, true);
    for (;;) {
      s.touch_pages(va, 32, true);
      co_await s.compute_us(250.0);
    }
  });
  node.mercury().kernel().run_for(5 * hw::kCyclesPerMillisecond);
}

TEST(CheckpointRestore, CheckpointRestartArcVerifiesOnALiveNode) {
  cluster::Fabric f;
  cluster::Node& n = f.add_node("ckpt", arc_node_config());
  spawn_dirtier(n);
  cluster::DependConfig cfg;
  cfg.supervisor.seed = test_seed(0xC4E50003ull);

  const cluster::ArcReport r = cluster::checkpoint_restart_arc(n, cfg);
  EXPECT_TRUE(r.success);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.gate_failures(), std::vector<std::string>{});
  EXPECT_EQ(r.faults, 0u);
  EXPECT_EQ(r.attempts, 2u);  // capture + restore, one try each
  EXPECT_GE(r.window_cycles,
            r.attach_cycles + r.service_cycles + r.detach_cycles);
}

TEST(CheckpointRestore, MigrateArcRoundTripsAndReconnectsFrontends) {
  cluster::Fabric f;
  cluster::Node& src = f.add_node("src", arc_node_config());
  cluster::Node& dst = f.add_node("dst", arc_node_config());
  f.connect(src, dst);
  spawn_dirtier(src);
  cluster::DependConfig cfg;
  cfg.supervisor.seed = test_seed(0xC4E50004ull);

  const cluster::ArcReport r = cluster::migrate_arc(src, dst, cfg);
  EXPECT_TRUE(r.success);
  EXPECT_TRUE(r.verified);
  // The invariants gate includes the backend connections: a round trip
  // must leave none stranded.
  EXPECT_EQ(r.gate_failures(), std::vector<std::string>{});
  EXPECT_FALSE(src.hosts_foreign_guest());
  EXPECT_FALSE(dst.hosts_foreign_guest());
  // Both legs shipped at least the full image (a gate); the dirtier
  // guarantees the iterative pre-copy had residue to resend.
  EXPECT_GE(r.precopy_rounds, 2u);
  EXPECT_GT(r.downtime_cycles, 0u);  // stop-and-copy freeze (cpu-clocked)
  // The gate allows downtime == window; a live round trip must also have
  // served outside its freezes.
  EXPECT_LT(r.downtime_cycles, r.window_cycles);
}

// Obs-off guard probe (scripts/run_tiers.sh obsoff). Prints the simulated
// cost of the three dependability arcs; the obsoff tier runs this test in a
// MERCURY_OBS=ON and a MERCURY_OBS=OFF build and diffs the CYCLE_IDENTITY
// lines. The interval and flight hooks in checkpoint.cpp and migrate.cpp
// must never charge simulated cycles, and the pause ledger the update and
// checkpoint arcs read their downtime from is built in both flavours, so
// every figure here must be byte-identical across the two builds.
TEST(CheckpointRestore, CycleIdentityProbe) {
  cluster::DependConfig cfg;
  cfg.supervisor.seed = 0xDE9E17DAull;  // fixed: the probe must not vary
  {
    cluster::Fabric f;
    cluster::Node& n = f.add_node("svc", arc_node_config());
    spawn_dirtier(n);
    cluster::KernelPatch patch;
    patch.description = "probe patch";
    patch.apply_fn = [](kernel::Kernel&) {};
    const cluster::ArcReport a = cluster::live_update_arc(n, patch, cfg);
    ASSERT_TRUE(a.success);
    std::printf("CYCLE_IDENTITY depend.update window=%" PRIu64
                " attach=%" PRIu64 " service=%" PRIu64 " detach=%" PRIu64
                " downtime=%" PRIu64 "\n",
                a.window_cycles, a.attach_cycles, a.service_cycles,
                a.detach_cycles, a.downtime_cycles);
  }
  {
    cluster::Fabric f;
    cluster::Node& n = f.add_node("ckpt", arc_node_config());
    spawn_dirtier(n);
    const cluster::ArcReport a = cluster::checkpoint_restart_arc(n, cfg);
    ASSERT_TRUE(a.success);
    std::printf("CYCLE_IDENTITY depend.ckpt window=%" PRIu64
                " attach=%" PRIu64 " service=%" PRIu64 " detach=%" PRIu64
                " downtime=%" PRIu64 "\n",
                a.window_cycles, a.attach_cycles, a.service_cycles,
                a.detach_cycles, a.downtime_cycles);
  }
  {
    cluster::Fabric f;
    cluster::Node& src = f.add_node("src", arc_node_config());
    cluster::Node& dst = f.add_node("dst", arc_node_config());
    f.connect(src, dst);
    spawn_dirtier(src);
    const cluster::ArcReport a = cluster::migrate_arc(src, dst, cfg);
    ASSERT_TRUE(a.success);
    // downtime here is MigrationStats' stop-and-copy freeze, CPU-clocked.
    std::printf("CYCLE_IDENTITY depend.migrate window=%" PRIu64
                " service=%" PRIu64 " downtime=%" PRIu64 " pages=%" PRIu64
                "\n",
                a.window_cycles, a.service_cycles, a.downtime_cycles,
                a.pages_sent);
  }
}

}  // namespace
}  // namespace mercury::testing
