// Fault matrix for the dependability arcs: the four service-side injection
// sites (checkpoint.capture, restore.apply, migrate.stream,
// migrate.activate) × fault kind × trigger depth, driven through the full
// supervised arcs; the two migrate sites run through both the round-trip
// migrate arc and the one-way evacuate arc. Every row must pass the arc
// gates, ArcReport::gate_failures(): the completion dichotomy — the service
// is rendered and verified, or abandoned *cleanly* (state rolled back or
// left consistent, postmortem written) — with zero stranded requests and
// zero invariant violations either way.
//
// Three regimes per site:
//   single-shot   the plan fires once mid-service; the arc's retry ladder
//                 must recover and the arc must still succeed
//   persistent    a pinned storm fires on every service attempt; the arc
//                 must exhaust its budget and quarantine cleanly (restore
//                 rows additionally roll back to the undo image)
//   uniform 5%    the acceptance storm over every site at once, seeded —
//                 the dichotomy must hold for all three arcs
//
// A fourth table fails every rendezvous, so each arc quarantines at its
// first attach, before its service begins.
//
// The deep-trigger rows at the end call the three per-frame services
// directly and check that their bulk copy loops fault exactly where the
// per-frame loop would, and that the faulted phase is still recorded: the
// flight ring closes it as unwound at the fault, and a capture or restore
// leaves its checkpoint-copy stop in the pause ledger.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/depend.hpp"
#include "cluster/fabric.hpp"
#include "core/fault_inject.hpp"
#include "hw/costs.hpp"
#include "kernel/syscalls.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"
#include "pv/costs.hpp"
#include "tests/injector_guard.hpp"
#include "tests/recording_sink.hpp"
#include "tests/test_seed.hpp"
#include "vmm/checkpoint.hpp"
#include "vmm/migrate.hpp"

namespace mercury::testing {
namespace {

using cluster::ArcReport;
using cluster::DependConfig;
using core::ExecMode;
using core::FaultInjected;
using core::FaultInjector;
using core::FaultKind;
using core::FaultPlan;
using core::FaultSite;
using core::FaultStorm;
using kernel::Sub;
using kernel::Sys;

cluster::NodeConfig small_node_config() {
  cluster::NodeConfig nc;
  nc.cpus = 2;
  nc.mem_kb = 96 * 1024;
  nc.kernel_mem_kb = 24 * 1024;  // keeps the full-image copies sweep-sized
  return nc;
}

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

/// Where a migration arc left the OS, and the modes it left both nodes in.
struct Landing {
  bool os_on_dst = false;
  bool both_native = false;
};

/// Run the arc that exercises `site` on fresh nodes (an arc is one
/// maintenance window; rows must not inherit each other's state). A
/// migrate site runs the round-trip arc, or with `evacuate` the one-way
/// evacuation; `landing`, if given, records where that arc left things.
ArcReport run_arc_for_site(FaultSite site, const DependConfig& cfg,
                           bool evacuate = false, Landing* landing = nullptr) {
  if (site == FaultSite::kCheckpointCapture ||
      site == FaultSite::kRestoreApply) {
    cluster::Fabric f;
    cluster::Node& n = f.add_node("ckpt", small_node_config());
    spawn_dirtier(n);
    return cluster::checkpoint_restart_arc(n, cfg);
  }
  cluster::Fabric f;
  cluster::Node& src = f.add_node("src", small_node_config());
  cluster::Node& dst = f.add_node("dst", small_node_config());
  f.connect(src, dst);
  spawn_dirtier(src);
  const ArcReport r = evacuate ? cluster::evacuate_arc(src, dst, cfg)
                               : cluster::migrate_arc(src, dst, cfg);
  if (landing != nullptr) {
    landing->os_on_dst =
        &src.mercury().kernel().machine() == &dst.machine();
    landing->both_native = src.mercury().mode() == ExecMode::kNative &&
                           dst.mercury().mode() == ExecMode::kNative;
  }
  return r;
}

const FaultSite kServiceSites[] = {
    FaultSite::kCheckpointCapture,
    FaultSite::kRestoreApply,
    FaultSite::kMigrateStream,
    FaultSite::kMigrateActivate,
};

/// The single-shot and persistent rows: every service site through its
/// arc, then the two migrate sites again through the evacuate arc.
struct ArcRow {
  FaultSite site;
  bool evacuate;
};
const ArcRow kArcRows[] = {
    {FaultSite::kCheckpointCapture, false}, {FaultSite::kRestoreApply, false},
    {FaultSite::kMigrateStream, false},     {FaultSite::kMigrateActivate, false},
    {FaultSite::kMigrateStream, true},      {FaultSite::kMigrateActivate, true},
};

std::string row_name(const ArcRow& row) {
  return std::string(core::fault_site_name(row.site)) +
         (row.evacuate ? " (evacuate)" : "");
}

TEST(DependFaultMatrix, SingleShotFaultsRecoverByRetry) {
  InjectorGuard guard;
  FaultInjector& fi = core::fault_injector();
  DependConfig cfg;
  cfg.supervisor.seed = test_seed(0xD3F40001ull);
  cfg.supervisor.backoff_base_ms = 0.5;
  std::size_t fired = 0;

  for (const ArcRow& row : kArcRows) {
    const FaultSite site = row.site;
    // Bulk sites see one visit per frame/page (thousands per attempt), so
    // deep triggers still land. The activation site has exactly three
    // probes per admission; triggers 2 and 3 fire past migrate_to and
    // create_domain — the unwind must tear the half-admitted domain down.
    const bool bulk = site != FaultSite::kMigrateActivate;
    const std::uint64_t deep = bulk ? 1000 : 3;
    for (const FaultKind kind :
         {FaultKind::kFail, FaultKind::kTimeout, FaultKind::kCorruptFrame}) {
      if (!bulk && kind != FaultKind::kFail) continue;  // 3 probes, keep 1xN
      for (const std::uint64_t trigger : {std::uint64_t{1}, deep}) {
        const std::string ctx = row_name(row) + " " +
                                core::fault_kind_name(kind) +
                                " trigger=" + std::to_string(trigger);
        SCOPED_TRACE(ctx);
        FaultPlan plan;
        plan.site = site;
        plan.kind = kind;
        plan.trigger_count = trigger;
        if (kind == FaultKind::kTimeout)
          plan.latency = hw::us_to_cycles(100.0);

        const std::uint64_t injected_before = fi.injected();
        fi.arm(plan);
        Landing landing;
        const ArcReport r = run_arc_for_site(site, cfg, row.evacuate, &landing);
        fi.disarm();

        ASSERT_TRUE(fi.injected() > injected_before)
            << ctx << ": the plan never fired — the row asserts nothing";
        ++fired;
        EXPECT_EQ(r.gate_failures(), std::vector<std::string>{}) << ctx;
        // Single-shot: the plan disarms on firing, so the very next retry
        // is clean and the service must land.
        EXPECT_TRUE(r.success) << ctx << ": retry did not recover";
        EXPECT_GE(r.faults, 1u) << ctx;
        EXPECT_GE(r.retries, 1u)
            << ctx << ": a fired fault must cost at least one retry";
        EXPECT_EQ(landing.os_on_dst, row.evacuate)
            << ctx << ": the OS ended on the wrong node";
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
  std::printf("depend single-shot matrix: %zu rows fired and recovered\n",
              fired);
}

TEST(DependFaultMatrix, PersistentFaultsQuarantineCleanly) {
  InjectorGuard guard;
  DependConfig cfg;
  cfg.supervisor.seed = test_seed(0xD3F40002ull);
  cfg.supervisor.backoff_base_ms = 0.5;
  cfg.service_max_attempts = 3;  // exhaust quickly

  for (const ArcRow& row : kArcRows) {
    const FaultSite site = row.site;
    const std::string ctx = "persistent " + row_name(row);
    SCOPED_TRACE(ctx);
    // A storm pinned to one site at rate 1.0: every service attempt opens a
    // window, every window fires — the retry ladder cannot win.
    FaultStorm storm;
    storm.rate[static_cast<std::size_t>(site)] = 1.0;
    // The activation site has exactly 3 probes per admission — a deeper
    // trigger would let a rate-1.0 window slip through unfired.
    storm.max_trigger_depth = site == FaultSite::kMigrateActivate ? 3 : 4;
    storm.seed = cfg.supervisor.seed;
    core::fault_injector().arm_storm(storm);
    Landing landing;
    const ArcReport r = run_arc_for_site(site, cfg, row.evacuate, &landing);
    core::fault_injector().stop_storm();

    EXPECT_EQ(r.gate_failures(), std::vector<std::string>{}) << ctx;
    EXPECT_FALSE(r.success) << ctx << ": a rate-1.0 storm cannot succeed";
    EXPECT_TRUE(r.quarantined) << ctx;
    EXPECT_GE(r.faults, cfg.service_max_attempts) << ctx;
    if (site == FaultSite::kRestoreApply) {
      // The restore-specific promise: never a half-restored machine — the
      // undo image was re-applied and verified before quarantining.
      EXPECT_TRUE(r.rolled_back) << ctx;
      EXPECT_TRUE(r.verified) << ctx << ": undo image failed verification";
    }
    if (site == FaultSite::kMigrateStream ||
        site == FaultSite::kMigrateActivate) {
      // Every attempt unwound inside LiveMigration; the source was rolled
      // back and both nodes came home.
      EXPECT_TRUE(r.rolled_back) << ctx;
      EXPECT_TRUE(landing.both_native) << ctx;
      EXPECT_FALSE(landing.os_on_dst) << ctx;
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(DependFaultMatrix, UniformStormUpholdsTheDichotomy) {
  InjectorGuard guard;
  const std::uint64_t base = test_seed(0xD3F40003ull);
  for (int i = 0; i < 2; ++i) {
    const std::uint64_t seed = base + static_cast<std::uint64_t>(i) * 977;
    const std::string ctx = "storm seed=" + std::to_string(seed);
    SCOPED_TRACE(ctx);
    DependConfig cfg;
    cfg.supervisor.seed = seed;
    cfg.supervisor.backoff_base_ms = 0.5;
    cfg.supervisor.backoff_cap_ms = 8.0;

    core::fault_injector().arm_storm(FaultStorm::uniform(0.05, seed));
    for (const FaultSite site : kServiceSites) {
      const ArcReport r = run_arc_for_site(site, cfg);
      EXPECT_EQ(r.gate_failures(), std::vector<std::string>{})
          << ctx << " " << core::fault_site_name(site) << " (" << r.service
          << ")";
      if (::testing::Test::HasFatalFailure()) {
        core::fault_injector().stop_storm();
        return;
      }
    }
    core::fault_injector().stop_storm();
  }
}

// --- attach-time quarantine ---------------------------------------------------
//
// A storm that fails every rendezvous means no switch ever commits, so each
// arc quarantines at its first attach, before its service begins. That is
// a clean abandonment: zero service attempts, a postmortem written, every
// node still native, and no gate failed (only a *successful* arc must have
// made a service attempt).
//
// One known defect stays visible here: the migrate arc times its window on
// the source's clock, and its receiver attaches first, on its own clock. A
// receiver that never attaches leaves the source's clock where it was, so
// the window reads zero and the empty-window gate refuses the arc. The gate
// is right; the window needs the receiver's time, and the fix that adds it
// empties `known` below.

TEST(DependFaultMatrix, AttachThatNeverCommitsQuarantinesBeforeTheService) {
  InjectorGuard guard;
  DependConfig cfg;
  cfg.supervisor.seed = test_seed(0xD3F40004ull);
  cfg.supervisor.backoff_base_ms = 0.5;
  using Arc = std::function<ArcReport(cluster::Node&, cluster::Node&)>;
  const std::pair<std::string, Arc> rows[] = {
      {"live-update",
       [&](cluster::Node& n, cluster::Node&) {
         cluster::KernelPatch patch;
         patch.apply_fn = [](kernel::Kernel&) {};
         return cluster::live_update_arc(n, patch, cfg);
       }},
      {"self-heal",
       [&](cluster::Node& n, cluster::Node&) {
         return cluster::self_heal_arc(n, cfg);
       }},
      {"checkpoint-restart",
       [&](cluster::Node& n, cluster::Node&) {
         return cluster::checkpoint_restart_arc(n, cfg);
       }},
      {"migrate",
       [&](cluster::Node& src, cluster::Node& dst) {
         return cluster::migrate_arc(src, dst, cfg);
       }},
  };
  for (const auto& [service, arc] : rows) {
    SCOPED_TRACE(service);
    cluster::Fabric f;
    cluster::Node& a = f.add_node("a", small_node_config());
    cluster::Node& b = f.add_node("b", small_node_config());
    f.connect(a, b);
    spawn_dirtier(a);
    FaultStorm storm;
    storm.rate[static_cast<std::size_t>(FaultSite::kRendezvous)] = 1.0;
    storm.max_trigger_depth = 1;
    storm.seed = cfg.supervisor.seed;
    core::fault_injector().arm_storm(storm);
    const ArcReport r = arc(a, b);
    core::fault_injector().stop_storm();

    const std::vector<std::string> known =
        service == "migrate"
            ? std::vector<std::string>{"empty dependability window"}
            : std::vector<std::string>{};
    EXPECT_EQ(r.service, service);
    // The gates also hold a quarantined arc to its postmortem.
    EXPECT_EQ(r.gate_failures(), known);
    EXPECT_TRUE(r.quarantined);
    EXPECT_EQ(r.attempts, 0u) << "the service began";
    EXPECT_EQ(a.mercury().mode(), ExecMode::kNative);
    EXPECT_EQ(b.mercury().mode(), ExecMode::kNative);
  }
}

// --- deep triggers inside the service copy loops ----------------------------
//
// Capture, restore and the migration stream run every stretch of frames no
// fault can interrupt as one bulk run (core::probed_runs) and take
// only the firing visit per frame. These rows fire deep inside such a run
// and check it is exact: the fault lands on the trigger-th visit, with the
// clock the per-frame loop would have had there, after exactly trigger-1
// frames. Of the service domain's 6144 frames only the last 64, one
// backing chunk, were ever written. Trigger 65 fires on the first frame
// past one chunk's worth of zero pages, 3000 deep among them, and 6144 on
// the domain's last frame, after a run that crosses from zero pages into
// the resident chunk.

constexpr std::size_t kServiceFrames = 24 * 1024 / 4;  // small_node_config
constexpr std::size_t kChunkFrames = 64;

struct DeepRow {
  std::uint64_t trigger;
  FaultKind kind;
  hw::Cycles latency;
};

std::vector<DeepRow> deep_rows() {
  std::vector<DeepRow> rows;
  for (const std::uint64_t trigger :
       {std::uint64_t{65}, std::uint64_t{3000}, std::uint64_t{kServiceFrames}}) {
    rows.push_back({trigger, FaultKind::kFail, 0});
    rows.push_back({trigger, FaultKind::kTimeout, hw::us_to_cycles(100.0)});
  }
  return rows;
}

std::string deep_ctx(FaultSite site, const DeepRow& row) {
  return std::string(core::fault_site_name(site)) + " " +
         core::fault_kind_name(row.kind) +
         " trigger=" + std::to_string(row.trigger);
}

void arm_deep(FaultSite site, const DeepRow& row) {
  FaultPlan plan;
  plan.site = site;
  plan.trigger_count = row.trigger;
  plan.kind = row.kind;
  plan.latency = row.latency;
  core::fault_injector().arm(plan);
}

/// The layout the trigger depths are chosen for: the domain's last 64
/// frames are resident, and no earlier frame was ever written.
void expect_one_resident_chunk(const hw::PhysicalMemory& mem, hw::Pfn first,
                               std::size_t count) {
  ASSERT_EQ(count, kServiceFrames);
  std::vector<std::size_t> resident;
  for (std::size_t i = 0; i < count; ++i)
    if (mem.frame_bytes(first + static_cast<hw::Pfn>(i)) != nullptr)
      resident.push_back(i);
  ASSERT_EQ(resident.size(), kChunkFrames) << "frames resident in the domain";
  EXPECT_EQ(resident.front(), count - kChunkFrames);
  EXPECT_EQ(resident.back(), count - 1);
}

/// The armed plan fired on visit `row.trigger` of `site`, and the clock at
/// the fault, `at_fault`, is the per-frame loop's: `t0` plus trigger-1
/// frames of `per_frame` work plus the fault's latency. In obs-on builds
/// the fault.hit event carries the same ordinal and clock.
void expect_exact_fault(FaultSite site, const DeepRow& row, hw::Cycles t0,
                        hw::Cycles at_fault, hw::Cycles per_frame,
                        const std::string& ctx) {
  EXPECT_EQ(core::fault_injector().visits(site), row.trigger)
      << ctx << ": visit ordinal";
  EXPECT_EQ(at_fault, t0 + (row.trigger - 1) * per_frame + row.latency)
      << ctx << ": clock at the fault";
#if MERCURY_OBS_ENABLED
  const std::vector<obs::FlightEvent> events = obs::flight_recorder().events();
  const auto hit = std::find_if(
      events.rbegin(), events.rend(), [&](const obs::FlightEvent& e) {
        return e.type == obs::FlightType::kFaultHit &&
               e.arg0 == static_cast<std::uint64_t>(site);
      });
  ASSERT_NE(hit, events.rend()) << ctx << ": no fault.hit event";
  EXPECT_EQ(hit->arg2, row.trigger) << ctx << ": fault.hit visit ordinal";
  EXPECT_EQ(hit->at, at_fault) << ctx << ": fault.hit clock";
#endif
}

/// The flight ring closed the newest `kind` interval as unwound at
/// `at_fault`, having opened it at `begin`.
void expect_unwound_phase(obs::IntervalKind kind, hw::Cycles begin,
                          hw::Cycles at_fault, const std::string& ctx) {
#if MERCURY_OBS_ENABLED
  const std::vector<obs::FlightEvent> events = obs::flight_recorder().events();
  const auto end = std::find_if(
      events.rbegin(), events.rend(), [&](const obs::FlightEvent& e) {
        return e.type == obs::FlightType::kPhaseEnd &&
               e.arg0 == static_cast<std::uint64_t>(kind);
      });
  const char* name = obs::interval_kind_info(kind).name;
  ASSERT_NE(end, events.rend()) << ctx << ": " << name << " never closed";
  EXPECT_EQ(end->arg2, 1u) << ctx << ": " << name << " not closed as unwound";
  EXPECT_EQ(end->at, at_fault) << ctx << ": " << name << " end clock";
  EXPECT_EQ(end->arg1, at_fault - begin) << ctx << ": " << name << " span";
#else
  (void)kind, (void)begin, (void)at_fault, (void)ctx;
#endif
}

/// `count` consecutive frames from `first`.
std::vector<hw::Pfn> frame_range(hw::Pfn first, std::size_t count) {
  std::vector<hw::Pfn> out(count);
  for (std::size_t i = 0; i < count; ++i)
    out[i] = first + static_cast<hw::Pfn>(i);
  return out;
}

/// Whether frame `pfn` holds `want`'s bytes (nullptr: a page of zeros).
bool frame_holds(const hw::PhysicalMemory& mem, hw::Pfn pfn,
                 const std::uint8_t* want) {
  std::vector<std::uint8_t> have(hw::kPageSize);
  mem.read_bytes(hw::addr_of(pfn), have);
  return want == nullptr
             ? std::all_of(have.begin(), have.end(),
                           [](std::uint8_t b) { return b == 0; })
             : std::equal(have.begin(), have.end(), want);
}

/// A fresh checkpoint node with the VMM attached.
struct ServiceNode {
  cluster::Fabric fabric;
  cluster::Node& node = fabric.add_node("ckpt", small_node_config());
  hw::Cpu& cpu = node.machine().cpu(0);
  vmm::Hypervisor& hv = node.mercury().hypervisor();
  hw::PhysicalMemory& mem = node.machine().memory();

  ServiceNode() { spawn_dirtier(node); }
  vmm::DomainId dom() { return node.mercury().driver_vo().dom(); }
};

TEST(DependFaultMatrix, DeepTriggerInsideCaptureRun) {
  InjectorGuard guard;
  for (const DeepRow& row : deep_rows()) {
    const std::string ctx = deep_ctx(FaultSite::kCheckpointCapture, row);
    SCOPED_TRACE(ctx);
    ServiceNode s;
    ASSERT_TRUE(s.node.mercury().switch_to(ExecMode::kPartialVirtual));
    const vmm::Domain& d = s.hv.domain(s.dom());
    expect_one_resident_chunk(s.mem, d.first_frame(), d.frame_count());
    if (::testing::Test::HasFatalFailure()) return;

    RecordingSink sink(s.mem);
    arm_deep(FaultSite::kCheckpointCapture, row);
    const hw::Cycles t0 = s.cpu.now();
    obs::PauseLedger ledger;
    {
      const obs::PauseLedgerScope scope(ledger);
      EXPECT_THROW(vmm::Checkpointer::take(s.cpu, s.hv, s.dom()),
                   FaultInjected)
          << ctx;
    }
    core::fault_injector().disarm();
    expect_exact_fault(FaultSite::kCheckpointCapture, row, t0, s.cpu.now(),
                       hw::costs::kPageCopy, ctx);
    expect_unwound_phase(obs::IntervalKind::kCheckpointCapture, t0,
                         s.cpu.now(), ctx);
    EXPECT_EQ(ledger.count(obs::PauseCause::kCheckpointCopy), 1u) << ctx;
    EXPECT_EQ(ledger.total(obs::PauseCause::kCheckpointCopy), s.cpu.now() - t0)
        << ctx << ": the capture's stop runs to the fault";
    EXPECT_TRUE(sink.noted.empty()) << ctx << ": a capture stores nothing";
    const vmm::Snapshot retry = vmm::Checkpointer::take(s.cpu, s.hv, s.dom());
    EXPECT_TRUE(vmm::Checkpointer::matches(s.hv, retry)) << ctx;
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(DependFaultMatrix, DeepTriggerInsideRestoreRun) {
  InjectorGuard guard;
  for (const DeepRow& row : deep_rows()) {
    const std::string ctx = deep_ctx(FaultSite::kRestoreApply, row);
    SCOPED_TRACE(ctx);
    ServiceNode s;
    ASSERT_TRUE(s.node.mercury().switch_to(ExecMode::kPartialVirtual));
    const vmm::Snapshot snap = vmm::Checkpointer::take(s.cpu, s.hv, s.dom());
    expect_one_resident_chunk(s.mem, snap.first_frame, snap.frame_count);
    if (::testing::Test::HasFatalFailure()) return;

    // Diverge: the dirtier runs on, and three frames get a marker: the
    // last frame the faulted restore reaches, the first it does not, and
    // the domain's last frame.
    s.node.mercury().kernel().run_for(2 * hw::kCyclesPerMillisecond);
    const std::size_t reached = row.trigger - 1;
    for (const std::size_t i : {reached - 1, reached, snap.frame_count - 1})
      s.mem.write_u32(hw::addr_of(snap.first_frame + static_cast<hw::Pfn>(i)),
                      0xD1F00000u + static_cast<std::uint32_t>(i));
    const vmm::Snapshot diverged =
        vmm::Checkpointer::take(s.cpu, s.hv, s.dom());

    RecordingSink sink(s.mem);
    arm_deep(FaultSite::kRestoreApply, row);
    const hw::Cycles t0 = s.cpu.now();
    obs::PauseLedger ledger;
    {
      const obs::PauseLedgerScope scope(ledger);
      EXPECT_THROW(vmm::Checkpointer::restore(s.cpu, s.hv, snap),
                   FaultInjected)
          << ctx;
    }
    core::fault_injector().disarm();
    expect_exact_fault(FaultSite::kRestoreApply, row, t0, s.cpu.now(),
                       hw::costs::kPageCopy, ctx);
    expect_unwound_phase(obs::IntervalKind::kRestoreApply, t0, s.cpu.now(),
                         ctx);
    EXPECT_EQ(ledger.count(obs::PauseCause::kCheckpointCopy), 1u) << ctx;
    EXPECT_EQ(ledger.total(obs::PauseCause::kCheckpointCopy), s.cpu.now() - t0)
        << ctx << ": the restore's stop runs to the fault";
    EXPECT_EQ(sink.noted, frame_range(snap.first_frame, reached))
        << ctx << ": frames restored before the fault";
    std::size_t wrong = 0;
    for (std::size_t i = 0; i < snap.frame_count; ++i) {
      const hw::Pfn pfn = snap.first_frame + static_cast<hw::Pfn>(i);
      const std::uint8_t* want = i < reached ? snap.frame(i) : diverged.frame(i);
      if (!frame_holds(s.mem, pfn, want) && ++wrong <= 4)
        ADD_FAILURE() << ctx << ": frame " << i << " holds neither the "
                      << (i < reached ? "restored" : "diverged") << " bytes";
    }
    EXPECT_EQ(wrong, 0u) << ctx;
    EXPECT_EQ(s.mem.read_u32(hw::addr_of(snap.first_frame +
                                         static_cast<hw::Pfn>(reached))),
              0xD1F00000u + reached)
        << ctx << ": the first frame past the fault lost its marker";

    vmm::Checkpointer::restore(s.cpu, s.hv, snap);  // clean retry
    EXPECT_TRUE(vmm::Checkpointer::matches(s.hv, snap)) << ctx;
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(DependFaultMatrix, DeepTriggerInsideMigrateStreamRun) {
  InjectorGuard guard;
  const vmm::MigrationConfig mig;
  const hw::Cycles per_page = hw::costs::kPageCopy +
                              pv::costs::kGrantMapPerPage / 2 +
                              mig.wire_cycles_per_page;
  for (const DeepRow& row : deep_rows()) {
    const std::string ctx = deep_ctx(FaultSite::kMigrateStream, row);
    SCOPED_TRACE(ctx);
    cluster::Fabric f;
    cluster::Node& src = f.add_node("src", small_node_config());
    cluster::Node& dst = f.add_node("dst", small_node_config());
    f.connect(src, dst);
    spawn_dirtier(src);
    ASSERT_TRUE(dst.mercury().switch_to(ExecMode::kPartialVirtual));
    ASSERT_TRUE(src.mercury().switch_to(ExecMode::kFullVirtual));
    vmm::Hypervisor& shv = src.mercury().hypervisor();
    const vmm::DomainId dom = src.mercury().guest_vo().dom();
    expect_one_resident_chunk(src.machine().memory(),
                              shv.domain(dom).first_frame(),
                              shv.domain(dom).frame_count());
    if (::testing::Test::HasFatalFailure()) return;

    hw::Cpu& scpu = src.machine().cpu(0);
    RecordingSink sink(dst.machine().memory());
    hw::DirtySink* const src_sink = src.machine().memory().dirty_sink();
    arm_deep(FaultSite::kMigrateStream, row);
    const hw::Cycles t0 = scpu.now();
    EXPECT_THROW(
        vmm::LiveMigration::run(shv, dom, dst.mercury().hypervisor(), mig),
        FaultInjected)
        << ctx;
    core::fault_injector().disarm();
    EXPECT_EQ(src.machine().memory().dirty_sink(), src_sink)
        << ctx << ": the abort restores the source memory's dirty sink";
    expect_exact_fault(FaultSite::kMigrateStream, row, t0, scpu.now(),
                       per_page, ctx);
    expect_unwound_phase(obs::IntervalKind::kMigratePrecopy, t0, scpu.now(),
                         ctx);
    const std::size_t sent = row.trigger - 1;
    ASSERT_FALSE(sink.noted.empty()) << ctx;
    EXPECT_EQ(sink.noted, frame_range(sink.noted.front(), sent))
        << ctx << ": pages sent before the fault";
#if MERCURY_OBS_ENABLED
    const std::vector<obs::FlightEvent> events =
        obs::flight_recorder().events();
    const auto abort = std::find_if(
        events.rbegin(), events.rend(), [](const obs::FlightEvent& e) {
          return std::string_view(e.name) == "migrate.abort";
        });
    ASSERT_NE(abort, events.rend()) << ctx << ": no migrate.abort event";
    EXPECT_EQ(abort->arg0, sent) << ctx << ": pages_sent at the abort";
#endif
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace mercury::testing
