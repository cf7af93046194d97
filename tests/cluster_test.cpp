// Cluster fabric + the paper's §6 scenarios, run on the dependability
// arcs, as integration tests; and the soak and arc verdict gates.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/availability.hpp"
#include "cluster/depend.hpp"
#include "cluster/fabric.hpp"
#include "cluster/failure.hpp"
#include "cluster/soak.hpp"
#include "kernel/syscalls.hpp"

namespace mercury::testing {
namespace {

using cluster::AvailabilityTracker;
using cluster::Fabric;
using cluster::FailureInjector;
using cluster::Node;
using kernel::Sub;
using kernel::Sys;

TEST(AvailabilityTrackerTest, AccountsDowntimeAndMtti) {
  AvailabilityTracker t;
  const hw::Cycles sec = hw::kCyclesPerMicrosecond * 1'000'000ull;
  t.service_down(0, "maintenance");
  t.service_up(2 * sec);
  t.service_down(50 * sec, "failure");
  t.service_up(53 * sec);
  t.finish(100 * sec);
  EXPECT_EQ(t.interruptions().size(), 2u);
  EXPECT_EQ(t.total_downtime(), 5 * sec);
  EXPECT_NEAR(t.availability(), 0.95, 0.001);
  EXPECT_NEAR(t.mtti_seconds(), 50.0, 0.5);
}

TEST(AvailabilityTrackerTest, FinishClosesOpenInterruption) {
  AvailabilityTracker t;
  t.service_down(0, "crash");
  t.finish(1000);
  EXPECT_FALSE(t.is_down());
  EXPECT_EQ(t.interruptions().size(), 1u);
}

TEST(FabricTest, NodesGetDistinctAddresses) {
  Fabric f;
  auto& a = f.add_node("a");
  auto& b = f.add_node("b");
  EXPECT_NE(a.machine().nic().address(), b.machine().nic().address());
  EXPECT_EQ(f.size(), 2u);
  EXPECT_EQ(f.link_between(a, b), nullptr);
  f.connect(a, b);
  EXPECT_NE(f.link_between(a, b), nullptr);
}

TEST(FabricTest, CoStepDrivesAllNodes) {
  Fabric f;
  auto& a = f.add_node("a");
  auto& b = f.add_node("b");
  f.connect(a, b);
  bool a_done = false, b_done = false;
  a.active().spawn("wa", [&](Sys& s) -> Sub<void> {
    co_await s.compute_us(2000.0);
    a_done = true;
  });
  b.active().spawn("wb", [&](Sys& s) -> Sub<void> {
    co_await s.compute_us(2000.0);
    b_done = true;
  });
  EXPECT_TRUE(f.co_step([&] { return a_done && b_done; },
                        100 * hw::kCyclesPerMillisecond));
}

TEST(ScenarioTest, OnlineMaintenancePreservesWorkload) {
  Fabric f;
  auto& a = f.add_node("a");
  auto& b = f.add_node("b");
  f.connect(a, b);
  long counter = 0;
  a.mercury().kernel().spawn("svc", [&](Sys& s) -> Sub<void> {
    for (;;) {
      co_await s.compute_us(400.0);
      ++counter;
    }
  });
  a.mercury().kernel().run_for(5 * hw::kCyclesPerMillisecond);
  const long before = counter;
  bool maintained = false;
  const cluster::ArcReport report =
      cluster::migrate_arc(a, b, {}, [&](hw::Machine& machine) {
        // The technician works on a's machine while its OS is away.
        maintained = &machine == &a.machine() && a.hosts_foreign_guest();
      });
  ASSERT_TRUE(report.success);
  EXPECT_TRUE(maintained);
  EXPECT_EQ(a.mercury().mode(), core::ExecMode::kNative);
  EXPECT_EQ(b.mercury().mode(), core::ExecMode::kNative);
  EXPECT_LT(report.downtime_cycles, report.window_cycles / 100)
      << "downtime is two stop-and-copy windows, not the whole procedure";
  a.mercury().kernel().run_for(5 * hw::kCyclesPerMillisecond);
  EXPECT_GT(counter, before);
}

TEST(ScenarioTest, SensorPredictionTriggersEvacuation) {
  Fabric f;
  auto& a = f.add_node("a");
  auto& b = f.add_node("b");
  f.connect(a, b);
  bool predicted = false;
  a.mercury().kernel().spawn("healthd", [&](Sys& s) -> Sub<void> {
    for (;;) {
      co_await s.sleep_us(1000.0);
      if (hw::HealthSensors::predicts_failure(s.read_sensors())) {
        predicted = true;
        co_return;
      }
    }
  });
  FailureInjector::schedule_overheat(a, a.machine().cpu(0).now() +
                                            5 * hw::kCyclesPerMillisecond);
  ASSERT_TRUE(a.mercury().kernel().run_until([&] { return predicted; },
                                             100 * hw::kCyclesPerMillisecond));
  const cluster::ArcReport ev = cluster::evacuate_arc(a, b);
  ASSERT_TRUE(ev.success);
  EXPECT_TRUE(b.hosts_foreign_guest());
  EXPECT_GT(ev.window_cycles, 0u);
}

TEST(ScenarioTest, LiveUpdatePatchesWithoutRestartAndDetaches) {
  Fabric f;
  auto& n = f.add_node("n");
  core::Mercury& m = n.mercury();
  m.kernel().set_selector_fixup_enabled(false);
  cluster::KernelPatch patch;
  patch.description = "re-enable fixup";
  patch.apply_fn = [](kernel::Kernel& k) {
    k.set_selector_fixup_enabled(true);
  };
  const cluster::ArcReport report = cluster::live_update_arc(n, patch);
  ASSERT_TRUE(report.success);
  EXPECT_TRUE(m.kernel().selector_fixup_enabled());
  EXPECT_EQ(m.mode(), core::ExecMode::kNative);
  EXPECT_GT(report.attach_cycles, 0u);
  EXPECT_GT(report.detach_cycles, 0u);
  EXPECT_GE(report.window_cycles, report.attach_cycles +
                                      report.service_cycles +
                                      report.detach_cycles);
}

TEST(ScenarioTest, SelfHealRepairsInjectedCorruption) {
  Fabric f;
  auto& n = f.add_node("n");
  core::Mercury& m = n.mercury();
  bool alive = false;
  const kernel::Pid pid = m.kernel().spawn("victim", [&](Sys& s) -> Sub<void> {
    const auto va = s.mmap(8 * hw::kPageSize, true);
    s.touch_pages(va, 8, true);
    for (;;) {
      co_await s.sleep_us(2000.0);
      s.touch_pages(va, 8, true);
      alive = true;
    }
  });
  m.kernel().run_for(5 * hw::kCyclesPerMillisecond);
  ASSERT_TRUE(cluster::inject_pte_corruption(m, pid));
  const std::uint64_t healed_before = m.hypervisor().stats().entries_healed;
  const cluster::ArcReport report = cluster::self_heal_arc(n);
  EXPECT_TRUE(report.success);
  EXPECT_TRUE(report.verified);
  EXPECT_EQ(report.gate_failures(), std::vector<std::string>{});
  EXPECT_GE(m.hypervisor().stats().entries_healed - healed_before, 1u);
  EXPECT_EQ(m.hypervisor().stats().domains_crashed, 0u);
  alive = false;
  m.kernel().run_for(10 * hw::kCyclesPerMillisecond);
  EXPECT_TRUE(alive) << "the victim keeps running after the repair";
  EXPECT_EQ(m.mode(), core::ExecMode::kNative);
}

TEST(ScenarioTest, WithoutHealingTheCorruptionCrashesTheAttach) {
  Fabric f;
  auto& n = f.add_node("n");
  core::Mercury& m = n.mercury();
  const kernel::Pid pid = m.kernel().spawn("victim", [](Sys& s) -> Sub<void> {
    const auto va = s.mmap(8 * hw::kPageSize, true);
    s.touch_pages(va, 8, true);
    for (;;) co_await s.sleep_us(2000.0);
  });
  m.kernel().run_for(5 * hw::kCyclesPerMillisecond);
  ASSERT_TRUE(cluster::inject_pte_corruption(m, pid));
  // A plain attach (no heal mode) must detect the taint and crash the
  // domain rather than enforce isolation on a corrupt table.
  ASSERT_TRUE(m.switch_to(core::ExecMode::kPartialVirtual));
  EXPECT_GE(m.hypervisor().stats().domains_crashed, 1u);
}

TEST(ScenarioTest, CheckpointThenRestoreRecoversAppValue) {
  Fabric f;
  auto& n = f.add_node("n");
  core::Mercury& m = n.mercury();
  hw::Mmu& mmu = n.machine().mmu();
  hw::VirtAddr page = 0;
  bool scribbled = false;
  const kernel::Pid pid = m.kernel().spawn("stateful", [&](Sys& s) -> Sub<void> {
    page = s.mmap(hw::kPageSize, true);
    s.touch_pages(page, 1, true);
    mmu.write_u32(s.cpu(), page, 0x600DF00D);
    // The failure the restore undoes: once the VMM is attached and the
    // capture is behind it, the task scribbles over its own state.
    while (m.mode() == core::ExecMode::kNative) co_await s.sleep_us(500.0);
    co_await s.sleep_us(1000.0);
    mmu.write_u32(s.cpu(), page, 0xDEAD0000);
    scribbled = true;
    for (;;) co_await s.sleep_us(10'000.0);
  });
  m.kernel().run_for(3 * hw::kCyclesPerMillisecond);

  const cluster::ArcReport r = cluster::checkpoint_restart_arc(n);
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(r.verified);
  EXPECT_TRUE(scribbled) << "the scribble must land inside the arc";
  kernel::Task* t = m.kernel().find_task(pid);
  hw::Cpu& cpu = n.machine().cpu(0);
  cpu.set_cpl(hw::Ring::kRing0);
  cpu.write_cr3(t->aspace->page_directory());
  cpu.tlb().flush_global();
  EXPECT_EQ(mmu.read_u32(cpu, page), 0x600DF00Du);
}

TEST(FailureInjectorTest, LinkLossDegradesDelivery) {
  Fabric f;
  auto& a = f.add_node("a");
  auto& b = f.add_node("b");
  f.connect(a, b);
  FailureInjector::set_link_loss(f, a, b, 1.0);
  hw::Packet pkt;
  (void)a.machine().nic().send(pkt, a.machine().cpu(0).now());
  EXPECT_EQ(f.link_between(a, b)->packets_dropped(), 1u);
}

// --- verdict gates -------------------------------------------------------------
//
// The soak and arc verdicts are written once, in SoakReport::gate_failures()
// and ArcReport::gate_failures(). Each row feeds one gate, alone, the bad
// input of the JSON fixture that used to check it after the run, and names
// the one line it must fail with.

cluster::SoakReport passing_soak() {
  cluster::SoakReport r;
  r.availability = 0.958;
  r.converged = true;
  r.nodes.resize(2);
  r.nodes[0].name = "n0";
  r.nodes[0].availability = 0.99;
  r.nodes[1].name = "n1";
  r.nodes[1].availability = 1.0;
  return r;
}

TEST(SoakGates, APassingSoakHasNoFailures) {
  EXPECT_EQ(passing_soak().gate_failures(), std::vector<std::string>{});
  // A supervisor that quarantined and came to rest native converged too.
  cluster::SoakReport r = passing_soak();
  r.final_health = "quarantined";
  r.nodes.clear();  // a single-machine verdict
  EXPECT_EQ(r.gate_failures(), std::vector<std::string>{});
}

/// `base` with `change` applied.
template <typename Report, typename Change>
Report with(Report base, Change change) {
  change(base);
  return base;
}

TEST(SoakGates, EachGateFailsAloneWithItsLine) {
  using S = cluster::SoakReport;
  const struct {
    const char* fault;
    S report;
    const char* line;
  } rows[] = {
      {"stranded", with(passing_soak(), [](S& r) { r.unresolved = 3; }),
       "3 unresolved request(s): a request was stranded"},
      {"invariants",
       with(passing_soak(), [](S& r) { r.invariant_violations = 1; }),
       "1 invariant violation(s)"},
      {"corruption",
       with(passing_soak(), [](S& r) { r.workload_corruptions = 2; }),
       "2 workload corruption(s)"},
      {"not converged", with(passing_soak(), [](S& r) { r.converged = false; }),
       "the run did not converge"},
      {"availability above 1",
       with(passing_soak(), [](S& r) { r.availability = 1.2; }),
       "availability outside [0, 1]"},
      {"availability below 0",
       with(passing_soak(), [](S& r) { r.availability = -0.1; }),
       "availability outside [0, 1]"},
      {"node availability below 0",
       with(passing_soak(), [](S& r) { r.nodes[0].availability = -0.8; }),
       "n0: availability outside [0, 1]"},
      {"node availability above 1",
       with(passing_soak(), [](S& r) { r.nodes[1].availability = 1.5; }),
       "n1: availability outside [0, 1]"},
  };
  for (const auto& row : rows)
    EXPECT_EQ(row.report.gate_failures(), std::vector<std::string>{row.line})
        << row.fault;
}

cluster::ArcReport passing_arc() {
  cluster::ArcReport a;
  a.service = "migrate";
  a.success = true;
  a.verified = true;
  a.attempts = 2;
  a.window_cycles = 511321040;
  a.downtime_cycles = 120000;
  a.pages_sent = 17000;
  a.pages_total = 16384;
  return a;
}

cluster::ArcReport clean_quarantine() {
  cluster::ArcReport a = passing_arc();
  a.success = false;
  a.verified = false;
  a.quarantined = true;
  a.postmortem_path = "mercury-postmortem-1-0.json";
  return a;
}

TEST(ArcGates, SuccessAndCleanQuarantineBothPass) {
  EXPECT_EQ(passing_arc().gate_failures(), std::vector<std::string>{});
  EXPECT_TRUE(passing_arc().completed_cleanly());
  EXPECT_EQ(clean_quarantine().gate_failures(), std::vector<std::string>{});
  // Quarantined at its attach, before the service began: no attempt, no
  // page stream, and still clean.
  cluster::ArcReport a = clean_quarantine();
  a.attempts = 0;
  a.pages_sent = a.pages_total = 0;
  EXPECT_EQ(a.gate_failures(), std::vector<std::string>{});
}

TEST(ArcGates, EachGateFailsAloneWithItsLine) {
  using A = cluster::ArcReport;
  const struct {
    const char* fault;
    A arc;
    const char* line;
  } rows[] = {
      {"neither", with(passing_arc(), [](A& a) { a.success = false; }),
       "neither succeeded nor quarantined"},
      {"both", with(clean_quarantine(), [](A& a) { a.success = true; }),
       "both succeeded and quarantined"},
      {"no postmortem",
       with(clean_quarantine(), [](A& a) { a.postmortem_path.clear(); }),
       "quarantined without a postmortem"},
      {"stranded", with(passing_arc(), [](A& a) { a.stranded_requests = 3; }),
       "stranded a supervised request"},
      {"invariants",
       with(passing_arc(), [](A& a) { a.invariant_violations = 1; }),
       "broke a machine invariant"},
      {"no attempt", with(passing_arc(), [](A& a) { a.attempts = 0; }),
       "succeeded with zero service attempts"},
      {"empty window",
       with(passing_arc(),
            [](A& a) { a.window_cycles = a.downtime_cycles = 0; }),
       "empty dependability window"},
      {"downtime past window",
       with(passing_arc(),
            [](A& a) { a.downtime_cycles = a.window_cycles + 1; }),
       "downtime exceeds its window"},
      {"short page stream",
       with(passing_arc(), [](A& a) { a.pages_sent = a.pages_total - 1; }),
       "sent fewer pages than the domain holds"},
  };
  for (const auto& row : rows) {
    EXPECT_EQ(row.arc.gate_failures(), std::vector<std::string>{row.line})
        << row.fault;
    EXPECT_FALSE(row.arc.completed_cleanly()) << row.fault;
  }
}

TEST(DependGates, RunVerdictPrefixesArcsAndHoldsCleanRunsToSuccess) {
  cluster::DependReport run;
  EXPECT_EQ(run.gate_failures(), std::vector<std::string>{"no arc ran"});

  cluster::ArcReport stranded = passing_arc();
  stranded.stranded_requests = 1;
  run.storm_rate = 0.05;
  run.arcs = {passing_arc(), clean_quarantine(), stranded};
  EXPECT_EQ(run.gate_failures(),
            std::vector<std::string>{"migrate: stranded a supervised request"});

  // Without a storm every service must land, not just quarantine cleanly.
  run.storm_rate = 0.0;
  run.arcs = {passing_arc(), clean_quarantine()};
  EXPECT_EQ(run.gate_failures(),
            std::vector<std::string>{
                "migrate: a clean run did not land the service"});
}

}  // namespace
}  // namespace mercury::testing
