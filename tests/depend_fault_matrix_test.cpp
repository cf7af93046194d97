// Fault matrix for the dependability arcs: the four service-side injection
// sites (checkpoint.capture, restore.apply, migrate.stream,
// migrate.activate) × fault kind × trigger depth, driven through the full
// supervised arcs. Every row must uphold the completion dichotomy — the
// service is rendered and verified, or abandoned *cleanly* (state rolled
// back or left consistent, postmortem written) — with zero stranded
// requests and zero invariant violations either way.
//
// Three regimes per site:
//   single-shot   the plan fires once mid-service; the arc's retry ladder
//                 must recover and the arc must still succeed
//   persistent    a pinned storm fires on every service attempt; the arc
//                 must exhaust its budget and quarantine cleanly (restore
//                 rows additionally roll back to the undo image)
//   uniform 5%    the acceptance storm over every site at once, seeded —
//                 the dichotomy must hold for all three arcs
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "cluster/depend.hpp"
#include "cluster/fabric.hpp"
#include "core/fault_inject.hpp"
#include "kernel/syscalls.hpp"
#include "obs/postmortem.hpp"
#include "tests/test_seed.hpp"

namespace mercury::testing {
namespace {

using cluster::ArcReport;
using cluster::DependConfig;
using core::FaultInjector;
using core::FaultKind;
using core::FaultPlan;
using core::FaultSite;
using core::FaultStorm;
using kernel::Sub;
using kernel::Sys;

/// Disarm (and stop any storm) on scope exit, and route postmortem bundles
/// into the test temp dir — same contract as fault_matrix_test's guard.
struct InjectorGuard {
  InjectorGuard() { obs::set_postmortem_dir(::testing::TempDir()); }
  ~InjectorGuard() {
    core::fault_injector().disarm();
    core::fault_injector().stop_storm();
    if (!::testing::Test::HasFailure()) obs::remove_own_postmortems();
    obs::set_postmortem_dir("");
  }
};

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

/// Run the arc that exercises `site` on fresh nodes (an arc is one
/// maintenance window; rows must not inherit each other's state).
ArcReport run_arc_for_site(FaultSite site, const DependConfig& cfg) {
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
  return cluster::migrate_arc(src, dst, cfg);
}

void expect_dichotomy(const ArcReport& r, const std::string& ctx) {
  EXPECT_TRUE(r.completed_cleanly())
      << ctx << ": neither success nor clean quarantine (success="
      << r.success << " quarantined=" << r.quarantined << " stranded="
      << r.stranded_requests << " violations=" << r.invariant_violations
      << ")";
  EXPECT_EQ(r.stranded_requests, 0u) << ctx;
  EXPECT_EQ(r.invariant_violations, 0u) << ctx;
  if (r.quarantined) {
    EXPECT_FALSE(r.postmortem_path.empty())
        << ctx << ": quarantine wrote no postmortem";
  }
}

const FaultSite kServiceSites[] = {
    FaultSite::kCheckpointCapture,
    FaultSite::kRestoreApply,
    FaultSite::kMigrateStream,
    FaultSite::kMigrateActivate,
};

TEST(DependFaultMatrix, SingleShotFaultsRecoverByRetry) {
  InjectorGuard guard;
  FaultInjector& fi = core::fault_injector();
  DependConfig cfg;
  cfg.supervisor.seed = test_seed(0xD3F40001ull);
  cfg.supervisor.backoff_base_ms = 0.5;
  std::size_t fired = 0;

  for (const FaultSite site : kServiceSites) {
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
        const std::string ctx = std::string(core::fault_site_name(site)) +
                                " " + core::fault_kind_name(kind) +
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
        const ArcReport r = run_arc_for_site(site, cfg);
        fi.disarm();

        ASSERT_TRUE(fi.injected() > injected_before)
            << ctx << ": the plan never fired — the row asserts nothing";
        ++fired;
        expect_dichotomy(r, ctx);
        // Single-shot: the plan disarms on firing, so the very next retry
        // is clean and the service must land.
        EXPECT_TRUE(r.success) << ctx << ": retry did not recover";
        EXPECT_GE(r.faults, 1u) << ctx;
        EXPECT_GE(r.retries, 1u)
            << ctx << ": a fired fault must cost at least one retry";
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

  for (const FaultSite site : kServiceSites) {
    const std::string ctx =
        std::string("persistent ") + core::fault_site_name(site);
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
    const ArcReport r = run_arc_for_site(site, cfg);
    core::fault_injector().stop_storm();

    expect_dichotomy(r, ctx);
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
      expect_dichotomy(
          r, ctx + " " + core::fault_site_name(site) + " (" + r.service + ")");
      if (::testing::Test::HasFatalFailure()) {
        core::fault_injector().stop_storm();
        return;
      }
    }
    core::fault_injector().stop_storm();
  }
}

}  // namespace
}  // namespace mercury::testing
