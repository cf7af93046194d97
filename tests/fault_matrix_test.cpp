// Deterministic fault matrix for the mode-switch path: every injection site
// × switch direction × trigger depth either commits cleanly (the site was
// never reached) or rolls back to the pre-switch mode — and in both cases
// the machine-state invariant checker finds nothing and the OS keeps
// running. A clean retry after every rollback must then commit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/fault_inject.hpp"
#include "core/invariants.hpp"
#include "core/mercury.hpp"
#include "core/switch_supervisor.hpp"
#include "kernel/syscalls.hpp"
#include "obs/obs.hpp"
#include "obs/postmortem.hpp"
#include "pv/costs.hpp"
#include "tests/json_checker.hpp"
#include "vmm/page_info.hpp"

namespace mercury::testing {
namespace {

using core::ExecMode;
using core::FaultInjector;
using core::FaultKind;
using core::FaultPlan;
using core::FaultSite;
using core::Mercury;
using kernel::Sub;
using kernel::Sys;

/// Disarm (and stop any storm) on scope exit so one trial can never leak a
/// fault regime into the next. Also routes postmortem bundles into the test
/// temp dir (instead of the working directory) and restores the default on
/// exit — and reports how many plans this scope armed without ever firing:
/// a sweep whose plans all miss is asserting much less than it looks like.
struct InjectorGuard {
  std::uint64_t arms_before;
  std::uint64_t unfired_before;

  InjectorGuard()
      : arms_before(core::fault_injector().arms()),
        unfired_before(core::fault_injector().unfired_disarms()) {
    obs::set_postmortem_dir(::testing::TempDir());
  }
  ~InjectorGuard() {
    FaultInjector& fi = core::fault_injector();
    fi.disarm();
    fi.stop_storm();
    const std::uint64_t armed = fi.arms() - arms_before;
    const std::uint64_t unfired = fi.unfired_disarms() - unfired_before;
    if (unfired > 0) {
      std::printf("[ INJECTOR ] %llu of %llu armed plan(s) never fired\n",
                  static_cast<unsigned long long>(unfired),
                  static_cast<unsigned long long>(armed));
      ::testing::Test::RecordProperty("unfired_fault_plans",
                                      std::to_string(unfired));
    }
    // A passing test's bundles are no evidence of anything: drop them.
    if (!::testing::Test::HasFailure()) obs::remove_own_postmortems();
    obs::set_postmortem_dir("");
  }
};

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::string content;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) content.append(buf, n);
  std::fclose(f);
  return content;
}

/// Parse the unsigned integer following `key` at/after `from` in raw JSON
/// text; npos-safe. Returns UINT64_MAX when the key is absent.
std::uint64_t json_uint_after(const std::string& json, const std::string& key,
                              std::size_t from = 0) {
  const std::size_t k = json.find(key, from);
  if (k == std::string::npos) return ~0ull;
  return std::stoull(json.substr(k + key.size()));
}

/// Every fired fault must leave a readable black box behind: a well-formed
/// mercury.postmortem.v1 bundle naming the faulting site and — in obs-on
/// builds — whose flight tail ends in the fault.hit event of the executing
/// CPU.
void expect_postmortem_bundle(const core::FaultPlan& plan,
                              const std::string& ctx) {
  const std::string path = obs::last_postmortem_path();
  ASSERT_FALSE(path.empty()) << ctx << ": rollback wrote no postmortem";
  const std::string json = read_file(path);
  ASSERT_FALSE(json.empty()) << ctx << ": cannot read " << path;
  EXPECT_TRUE(JsonChecker(json).ok())
      << ctx << ": bundle is not valid JSON: " << json.substr(0, 300);
  EXPECT_NE(json.find("\"schema\":\"mercury.postmortem.v1\""),
            std::string::npos)
      << ctx;
  EXPECT_NE(json.find("\"reason\":\"fault-rollback\""), std::string::npos)
      << ctx;

  // The fault section names site, kind, and the executing CPU.
  const std::string fault_anchor =
      std::string("\"fault\":{\"site\":\"") + core::fault_site_name(plan.site) +
      "\",\"kind\":\"" + core::fault_kind_name(plan.kind) + "\",\"cpu\":";
  const std::size_t fault_pos = json.find(fault_anchor);
  ASSERT_NE(fault_pos, std::string::npos)
      << ctx << ": fault section missing or wrong: " << fault_anchor;
  const std::uint64_t fault_cpu =
      std::stoull(json.substr(fault_pos + fault_anchor.size()));

#if MERCURY_OBS_ENABLED
  // The flight tail must contain the fault.hit event for this site, emitted
  // by the same CPU the bundle blames. Event layout is fixed
  // ({"seq":..,"cpu":..,...,"type":..,"name":..}), so walk back from the
  // type/name match to this event's own cpu field.
  const std::string hit_anchor = std::string("\"type\":\"fault.hit\",\"name\":\"") +
                                 core::fault_site_name(plan.site) + "\"";
  const std::size_t hit_pos = json.rfind(hit_anchor);
  ASSERT_NE(hit_pos, std::string::npos)
      << ctx << ": flight tail lacks the fault.hit event";
  const std::size_t ev_start = json.rfind("{\"seq\":", hit_pos);
  ASSERT_NE(ev_start, std::string::npos) << ctx;
  EXPECT_EQ(json_uint_after(json, "\"cpu\":", ev_start), fault_cpu)
      << ctx << ": flight event CPU disagrees with the fault section";
  // The unwind itself is on the record too.
  EXPECT_NE(json.find("\"type\":\"rollback.step\""), std::string::npos) << ctx;
#else
  // Obs-off builds still dump bundles; the flight tail is just empty.
  EXPECT_NE(json.find("\"events\":[]"), std::string::npos) << ctx;
  (void)fault_cpu;
#endif
}

struct Box {
  hw::Machine machine;
  Mercury m;
  long progress = 0;

  explicit Box(core::SwitchConfig sc = {}, std::size_t cpus = 1,
               std::size_t kernel_mb = 32, std::size_t mem_mb = 96)
      : machine([&] {
          hw::MachineConfig mc;
          mc.num_cpus = cpus;
          mc.mem_kb = mem_mb * 1024;
          return mc;
        }()),
        m(machine, [&] {
          core::MercuryConfig cfg;
          cfg.kernel_frames = (kernel_mb * 1024 * 1024) / hw::kPageSize;
          cfg.switch_config = sc;
          return cfg;
        }()) {
    // A small workload so the switch path has address spaces to protect,
    // saved contexts to fix up, and something that must survive a rollback.
    for (int i = 0; i < 3; ++i) {
      m.kernel().spawn("load" + std::to_string(i), [this](Sys& s) -> Sub<void> {
        const auto va = s.mmap(8 * hw::kPageSize, true);
        for (;;) {
          s.touch_pages(va, 8, true);
          co_await s.compute_us(40.0);
          ++progress;
        }
      });
    }
    m.kernel().run_for(2 * hw::kCyclesPerMillisecond);
  }

  /// Drive one switch request to quiescence; true if it went idle in budget.
  bool settle(ExecMode target) {
    m.engine().request(target);
    return m.kernel().run_until([&] { return m.engine().idle(); },
                                300 * hw::kCyclesPerMillisecond);
  }

  void expect_consistent(const std::string& ctx) {
    const core::InvariantReport report =
        core::check_machine_invariants(m.engine());
    EXPECT_TRUE(report.ok()) << ctx << ":\n" << report.to_string();
  }

  void expect_os_runs(const std::string& ctx) {
    const long before = progress;
    m.kernel().run_for(3 * hw::kCyclesPerMillisecond);
    EXPECT_GT(progress, before) << ctx << ": workload stopped making progress";
  }
};

/// Arm `plan`, request `from`→`target`, and verify the dichotomy: either the
/// fault fired and the engine rolled back to `from`, or the site was never
/// reached and the switch committed — with zero invariant violations and a
/// live OS either way. Returns true if the fault fired. `on_fired` runs
/// right after a faulted switch settles, before any retry.
bool run_faulted_switch(Box& box, ExecMode from, ExecMode target,
                        const FaultPlan& plan, const std::string& ctx,
                        const std::function<void()>& on_fired = {}) {
  FaultInjector& fi = core::fault_injector();
  EXPECT_EQ(box.m.mode(), from) << ctx;
  const std::uint64_t injected_before = fi.injected();
  const std::uint64_t rollbacks_before = box.m.engine().stats().rollbacks;
  const std::uint64_t bundles_before = obs::postmortem_count();

  fi.arm(plan);
  EXPECT_TRUE(box.settle(target)) << ctx << ": engine never went idle";
  fi.disarm();

  const bool fired = fi.injected() > injected_before;
  if (fired && on_fired) on_fired();
  if (fired) {
    EXPECT_EQ(box.m.mode(), from) << ctx << ": faulted switch changed mode";
    EXPECT_EQ(box.m.engine().stats().rollbacks, rollbacks_before + 1) << ctx;
    EXPECT_GT(obs::postmortem_count(), bundles_before)
        << ctx << ": rollback produced no postmortem bundle";
    expect_postmortem_bundle(plan, ctx);
  } else {
    EXPECT_EQ(obs::postmortem_count(), bundles_before)
        << ctx << ": a clean commit wrote a postmortem bundle";
    EXPECT_EQ(box.m.mode(), target) << ctx << ": unreached site blocked commit";
    EXPECT_EQ(box.m.engine().stats().rollbacks, rollbacks_before) << ctx;
  }
  box.expect_consistent(ctx + (fired ? " post-rollback" : " post-commit"));
  box.expect_os_runs(ctx);

  if (fired) {
    // The dependable-switch promise: a rollback is recoverable, not sticky.
    EXPECT_TRUE(box.settle(target)) << ctx << ": clean retry stuck";
    EXPECT_EQ(box.m.mode(), target) << ctx << ": clean retry did not commit";
    box.expect_consistent(ctx + " post-retry");
  }
  // Return to `from` for the next trial.
  EXPECT_TRUE(box.settle(from)) << ctx;
  EXPECT_EQ(box.m.mode(), from) << ctx;
  box.expect_consistent(ctx + " post-restore");
  return fired;
}

const FaultSite kAllSites[] = {
    FaultSite::kRendezvous,      FaultSite::kShardRebuild,
    FaultSite::kShardProtect,    FaultSite::kStackFixup,
    FaultSite::kTransferBindings, FaultSite::kShardUnprotect,
    FaultSite::kReloadHwState,
};

std::string ctx_of(FaultSite site, ExecMode from, ExecMode target,
                   std::uint64_t trigger) {
  return std::string(core::fault_site_name(site)) + " " +
         core::exec_mode_name(from) + "->" + core::exec_mode_name(target) +
         " trigger=" + std::to_string(trigger);
}

void sweep(Box& box, ExecMode virt_mode, std::size_t* fired_count) {
  for (const FaultSite site : kAllSites) {
    for (const std::uint64_t trigger : {std::uint64_t{1}, std::uint64_t{3}}) {
      FaultPlan plan;
      plan.site = site;
      plan.trigger_count = trigger;
      plan.kind = site == FaultSite::kStackFixup ? FaultKind::kCorruptFrame
                                                 : FaultKind::kFail;
      {
        // Attach direction (native -> virtual).
        const std::string ctx =
            ctx_of(site, ExecMode::kNative, virt_mode, trigger);
        SCOPED_TRACE(ctx);
        if (run_faulted_switch(box, ExecMode::kNative, virt_mode, plan, ctx))
          ++*fired_count;
        if (::testing::Test::HasFatalFailure()) return;
      }
      {
        // Detach direction (virtual -> native): enter virtual cleanly first.
        ASSERT_TRUE(box.settle(virt_mode));
        const std::string ctx =
            ctx_of(site, virt_mode, ExecMode::kNative, trigger);
        SCOPED_TRACE(ctx);
        if (run_faulted_switch(box, virt_mode, ExecMode::kNative, plan, ctx))
          ++*fired_count;
        if (::testing::Test::HasFatalFailure()) return;
        // run_faulted_switch left the box in `from` (virtual); the next
        // attach trial starts from native.
        ASSERT_TRUE(box.settle(ExecMode::kNative));
      }
    }
  }
}

TEST(FaultMatrix, LazyTrackingPartialVirtual) {
  InjectorGuard guard;
  Box box;
  std::size_t fired = 0;
  sweep(box, ExecMode::kPartialVirtual, &fired);
  // Lazy attach reaches rebuild/protect/bindings/reload; detach reaches
  // unprotect/bindings/reload; rendezvous fires in both directions.
  EXPECT_GE(fired, 8u);
}

TEST(FaultMatrix, LazyTrackingFullVirtual) {
  InjectorGuard guard;
  Box box;
  std::size_t fired = 0;
  sweep(box, ExecMode::kFullVirtual, &fired);
  EXPECT_GE(fired, 8u);
}

TEST(FaultMatrix, EagerTrackingAndEagerFixup) {
  InjectorGuard guard;
  core::SwitchConfig sc;
  sc.eager_page_tracking = true;
  sc.eager_selector_fixup = true;
  Box box(sc);
  std::size_t fired = 0;
  sweep(box, ExecMode::kPartialVirtual, &fired);
  // Eager tracking skips the rebuild but the fixup walk now faults too.
  EXPECT_GE(fired, 8u);
}

TEST(FaultMatrix, SmpRendezvousAndReload) {
  InjectorGuard guard;
  Box box({}, /*cpus=*/2);
  std::size_t fired = 0;
  // On SMP the reload loop has one site visit per CPU: trigger 2 lands on
  // the second CPU, leaving the first already reloaded — the rollback must
  // walk everyone back.
  for (const FaultSite site :
       {FaultSite::kRendezvous, FaultSite::kReloadHwState}) {
    for (const std::uint64_t trigger : {std::uint64_t{1}, std::uint64_t{2}}) {
      FaultPlan plan;
      plan.site = site;
      plan.trigger_count = trigger;
      const std::string ctx =
          ctx_of(site, ExecMode::kNative, ExecMode::kPartialVirtual, trigger);
      SCOPED_TRACE(ctx);
      if (run_faulted_switch(box, ExecMode::kNative, ExecMode::kPartialVirtual,
                             plan, ctx))
        ++fired;
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GE(fired, 3u);
}

TEST(FaultMatrix, CrewWorkerShardFaults) {
  InjectorGuard guard;
  core::SwitchConfig sc;
  sc.crew_workers = 3;
  Box box(sc, /*cpus=*/4);
  std::size_t fired = 0;
  // Worker-side sites of the parallel switch pipeline: the fault fires on a
  // rendezvous-parked crew CPU mid-shard, not on the control processor. Deep
  // triggers land well inside a later shard (possibly a different worker);
  // the crew must abort, join, rethrow on the CP, and the rollback must
  // still converge in both directions.
  for (const FaultSite site :
       {FaultSite::kShardRebuild, FaultSite::kShardProtect,
        FaultSite::kShardUnprotect}) {
    for (const std::uint64_t trigger :
         {std::uint64_t{1}, std::uint64_t{7}, std::uint64_t{1000}}) {
      FaultPlan plan;
      plan.site = site;
      plan.trigger_count = trigger;
      {
        const std::string ctx =
            ctx_of(site, ExecMode::kNative, ExecMode::kPartialVirtual, trigger);
        SCOPED_TRACE(ctx);
        if (run_faulted_switch(box, ExecMode::kNative,
                               ExecMode::kPartialVirtual, plan, ctx))
          ++fired;
        if (::testing::Test::HasFatalFailure()) return;
      }
      {
        ASSERT_TRUE(box.settle(ExecMode::kPartialVirtual));
        const std::string ctx =
            ctx_of(site, ExecMode::kPartialVirtual, ExecMode::kNative, trigger);
        SCOPED_TRACE(ctx);
        if (run_faulted_switch(box, ExecMode::kPartialVirtual,
                               ExecMode::kNative, plan, ctx))
          ++fired;
        if (::testing::Test::HasFatalFailure()) return;
        ASSERT_TRUE(box.settle(ExecMode::kNative));
      }
    }
  }
  // Rebuild shards see one visit per frame (all three triggers fire on
  // attach); protect/unprotect shards see one per page table (~tens, so the
  // deep trigger commits untouched — exercising the unreached branch).
  EXPECT_GE(fired, 7u);
}

TEST(FaultMatrix, WarmReattachDirtyRebuildRows) {
  // kDirtyRebuild rows: fail / timeout / corrupt-frame, both directions.
  // The site lives on the warm-attach dirty-reconstruction loop, so the
  // attach direction must fire (the window is primed and dirtied before
  // every row) and roll back with the retained table intact — the clean
  // retry inside run_faulted_switch must go warm again, not degrade to a
  // cold rebuild. The detach direction never reaches the site; those rows
  // pin down the unreached half of the dichotomy.
  InjectorGuard guard;
  core::SwitchConfig sc;
  sc.warm_reattach = true;
  Box box(sc);
  // Prime: first (cold) attach, then a retaining detach opens the window.
  ASSERT_TRUE(box.settle(ExecMode::kPartialVirtual));
  ASSERT_TRUE(box.settle(ExecMode::kNative));
  std::size_t fired = 0;
  for (const FaultKind kind :
       {FaultKind::kFail, FaultKind::kTimeout, FaultKind::kCorruptFrame}) {
    for (const std::uint64_t trigger : {std::uint64_t{1}, std::uint64_t{5}}) {
      // Let the workload dirty the open window so the per-frame site has
      // visits to spend.
      box.m.kernel().run_for(2 * hw::kCyclesPerMillisecond);
      FaultPlan plan;
      plan.site = FaultSite::kDirtyRebuild;
      plan.kind = kind;
      plan.trigger_count = trigger;
      if (kind == FaultKind::kTimeout) plan.latency = hw::us_to_cycles(100.0);
      {
        const std::string ctx =
            std::string(core::fault_kind_name(kind)) + " " +
            ctx_of(plan.site, ExecMode::kNative, ExecMode::kPartialVirtual,
                   trigger);
        SCOPED_TRACE(ctx);
        const std::uint64_t warm_before = box.m.engine().stats().warm_attaches;
        const std::uint64_t cold_falls = box.m.engine().stats().warm_fallbacks;
        if (run_faulted_switch(box, ExecMode::kNative,
                               ExecMode::kPartialVirtual, plan, ctx)) {
          ++fired;
          // Faulted warm attempt + warm retry: the rollback preserved the
          // retained table and the armed tracker.
          EXPECT_EQ(box.m.engine().stats().warm_attaches, warm_before + 2)
              << ctx << ": retry after rollback did not go warm";
          EXPECT_EQ(box.m.engine().stats().warm_fallbacks, cold_falls)
              << ctx << ": rollback degraded the retained table to cold";
        }
        if (::testing::Test::HasFatalFailure()) return;
      }
      {
        // Detach direction: the site is attach-only, so the row must
        // commit untouched (and the retaining detach reopens the window).
        ASSERT_TRUE(box.settle(ExecMode::kPartialVirtual));
        const std::string ctx =
            std::string(core::fault_kind_name(kind)) + " " +
            ctx_of(plan.site, ExecMode::kPartialVirtual, ExecMode::kNative,
                   trigger);
        SCOPED_TRACE(ctx);
        EXPECT_FALSE(run_faulted_switch(box, ExecMode::kPartialVirtual,
                                        ExecMode::kNative, plan, ctx))
            << ctx << ": kDirtyRebuild fired on a detach";
        if (::testing::Test::HasFatalFailure()) return;
        ASSERT_TRUE(box.settle(ExecMode::kNative));
      }
    }
  }
  // Every attach-direction row must have fired: the window is dirty and
  // the triggers are shallow.
  EXPECT_EQ(fired, 6u);
}

TEST(FaultMatrix, WarmReattachCrewShardFaults) {
  // The same site fired from inside a crew worker's dirty_rebuild shard:
  // the crew must abort, join, rethrow on the CP, and the rollback +
  // warm retry must converge exactly as with the CP alone.
  InjectorGuard guard;
  core::SwitchConfig sc;
  sc.warm_reattach = true;
  sc.crew_workers = 3;
  Box box(sc, /*cpus=*/4);
  ASSERT_TRUE(box.settle(ExecMode::kPartialVirtual));
  ASSERT_TRUE(box.settle(ExecMode::kNative));
  std::size_t fired = 0;
  for (const std::uint64_t trigger : {std::uint64_t{1}, std::uint64_t{7}}) {
    box.m.kernel().run_for(2 * hw::kCyclesPerMillisecond);
    FaultPlan plan;
    plan.site = FaultSite::kDirtyRebuild;
    plan.trigger_count = trigger;
    const std::string ctx = "crew " + ctx_of(plan.site, ExecMode::kNative,
                                             ExecMode::kPartialVirtual,
                                             trigger);
    SCOPED_TRACE(ctx);
    const std::uint64_t warm_before = box.m.engine().stats().warm_attaches;
    if (run_faulted_switch(box, ExecMode::kNative, ExecMode::kPartialVirtual,
                           plan, ctx)) {
      ++fired;
      EXPECT_EQ(box.m.engine().stats().warm_attaches, warm_before + 2) << ctx;
    }
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_TRUE(box.settle(ExecMode::kNative));
  }
  EXPECT_EQ(fired, 2u);
}

// --- deep triggers inside a probed run ---------------------------------------
//
// The page-info rebuild loops run every stretch no fault can interrupt in
// one piece and take only the firing visit per item. These rows fire deep
// inside such a stretch and check it is exact: the fault lands on the
// trigger-th visit, with the clock the per-item loop would have had there.

struct DeepRow {
  FaultSite site;
  std::uint64_t trigger;
  FaultKind kind;
  hw::Cycles latency;
  const char* range_name;  // the shard.range event that opens the run
};

/// Called right after the faulted switch. The rollback saw exactly the
/// trigger-1 frames rebuilt before the firing visit; in obs-on builds the
/// fault.hit event names the trigger as its visit ordinal, and its clock is
/// the run's opening shard.range clock plus trigger-1 frames of rebuild
/// plus the latency.
void expect_fault_deep_in_run(Box& box, const DeepRow& row,
                              const std::string& ctx) {
  EXPECT_EQ(box.m.hypervisor().page_info().rebuilt_total(), row.trigger - 1)
      << ctx << ": frames rebuilt before the fault";
#if MERCURY_OBS_ENABLED
  const std::vector<obs::FlightEvent> events = obs::flight_recorder().events();
  const auto hit = std::find_if(
      events.rbegin(), events.rend(), [&](const obs::FlightEvent& e) {
        return e.type == obs::FlightType::kFaultHit &&
               e.arg0 == static_cast<std::uint64_t>(row.site);
      });
  ASSERT_NE(hit, events.rend()) << ctx << ": no fault.hit event";
  const auto range = std::find_if(hit, events.rend(), [&](const obs::FlightEvent& e) {
    return e.type == obs::FlightType::kShardRange && e.cpu == hit->cpu &&
           std::string_view(e.name) == row.range_name;
  });
  ASSERT_NE(range, events.rend())
      << ctx << ": no " << row.range_name << " before the fault";
  EXPECT_EQ(hit->arg2, row.trigger) << ctx << ": visit ordinal";
  EXPECT_GE(range->arg0, row.trigger) << ctx << ": fault outside the run";
  EXPECT_EQ(hit->at - range->at,
            (row.trigger - 1) * pv::costs::kPerFrameInfoRebuild + row.latency)
      << ctx << ": clock at the fault";
#endif
}

/// Run `row` as an attach from native, with the standard dichotomy checks.
/// `then` runs after the deep-run checks, still before the retry.
void run_deep_row(Box& box, const DeepRow& row,
                  const std::function<void()>& then = {}) {
  FaultPlan plan;
  plan.site = row.site;
  plan.trigger_count = row.trigger;
  plan.kind = row.kind;
  plan.latency = row.latency;
  const std::string ctx = std::string(core::fault_kind_name(row.kind)) + " " +
                          ctx_of(row.site, ExecMode::kNative,
                                 ExecMode::kPartialVirtual, row.trigger);
  SCOPED_TRACE(ctx);
  EXPECT_TRUE(run_faulted_switch(box, ExecMode::kNative,
                                 ExecMode::kPartialVirtual, plan, ctx, [&] {
                                   expect_fault_deep_in_run(box, row, ctx);
                                   if (then) then();
                                 }))
      << ctx << ": the deep trigger never fired";
}

TEST(FaultMatrix, DeepTriggerInsideCrewOfOneRebuildRun) {
  InjectorGuard guard;
  core::SwitchConfig sc;
  sc.crew_workers = 0;
  Box box(sc);
  for (const FaultKind kind : {FaultKind::kFail, FaultKind::kTimeout}) {
    const hw::Cycles latency =
        kind == FaultKind::kTimeout ? hw::us_to_cycles(100.0) : 0;
    run_deep_row(box, {FaultSite::kShardRebuild, 3000, kind, latency,
                       "vmm.adopt_rebuild_shard"});
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(FaultMatrix, DeepTriggerCrossesAPageInfoShard) {
  // One crew worker on a 160 MB kernel: 8 crew shards of 5120 frames, so
  // these triggers fire inside the first crew shard. Visit 4097 fires on
  // the first frame past a full 4096-frame page-info shard; visit 5000
  // ends a run that spans two page-info shards. Each shard must count
  // exactly its part of the run.
  InjectorGuard guard;
  core::SwitchConfig sc;
  sc.crew_workers = 1;
  Box box(sc, /*cpus=*/2, /*kernel_mb=*/160, /*mem_mb=*/256);
  const vmm::PageInfoTable& table = box.m.hypervisor().page_info();
  const hw::Pfn first = box.m.kernel().pool().owned().front();
  constexpr std::size_t kShard = vmm::PageInfoTable::kFramesPerShard;
  const std::size_t shard = first / kShard;
  const std::uint64_t room = kShard - first % kShard;  // run frames in `shard`
  const hw::Cycles timeout = hw::us_to_cycles(100.0);
  for (const DeepRow& row :
       {DeepRow{FaultSite::kShardRebuild, 4097, FaultKind::kFail, 0,
                "vmm.adopt_rebuild_shard"},
        DeepRow{FaultSite::kShardRebuild, 4097, FaultKind::kTimeout, timeout,
                "vmm.adopt_rebuild_shard"},
        DeepRow{FaultSite::kShardRebuild, 5000, FaultKind::kFail, 0,
                "vmm.adopt_rebuild_shard"}}) {
    const std::uint64_t run = row.trigger - 1;
    ASSERT_GE(run, room) << "the fire must land past the first page-info shard";
    run_deep_row(box, row, [&] {
      EXPECT_EQ(table.shard_counters(shard).rebuilt, room);
      EXPECT_EQ(table.shard_counters(shard + 1).rebuilt, run - room);
    });
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// Allocate, write and free `n` free kernel frames — the frame-pool churn of
/// a busy kernel — so each lands in the warm dirty set. Freed in reverse,
/// the free list ends in its original order.
void recycle_frames(Box& box, std::size_t n) {
  kernel::FramePool& pool = box.m.kernel().pool();
  std::vector<hw::Pfn> frames(n);
  for (hw::Pfn& pfn : frames) ASSERT_TRUE(pool.alloc(pfn));
  for (const hw::Pfn pfn : frames)
    box.machine.memory().write_u32(hw::addr_of(pfn), 0xD1D1D1D1u);
  for (auto it = frames.rbegin(); it != frames.rend(); ++it) pool.free(*it);
}

TEST(FaultMatrix, DeepTriggerInsideDirtyRebuildRun) {
  InjectorGuard guard;
  core::SwitchConfig sc;
  sc.warm_reattach = true;
  Box box(sc);
  ASSERT_TRUE(box.settle(ExecMode::kPartialVirtual));
  ASSERT_TRUE(box.settle(ExecMode::kNative));
  for (const FaultKind kind : {FaultKind::kFail, FaultKind::kTimeout}) {
    // 64 recycled frames put the dirty set well past the trigger.
    recycle_frames(box, 64);
    if (::testing::Test::HasFatalFailure()) return;
    const hw::Cycles latency =
        kind == FaultKind::kTimeout ? hw::us_to_cycles(100.0) : 0;
    run_deep_row(box, {FaultSite::kDirtyRebuild, 40, kind, latency,
                       "vmm.adopt_dirty_rebuild_shard"});
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(FaultMatrix, SupervisedWarmSweepNeverStrandsARequest) {
  // kDirtyRebuild under the supervisor: a single-shot fault of any kind on
  // the warm path must end committed-after-retry, with every request
  // terminal and the machine consistent — the warm path composes with
  // retry/backoff exactly like the cold sites.
  InjectorGuard guard;
  core::SwitchConfig sc;
  sc.warm_reattach = true;
  Box box(sc);
  core::SupervisorConfig scfg;
  scfg.backoff_base_ms = 0.5;
  scfg.quarantine_after = 100;
  core::SwitchSupervisor sup(box.m.engine(), scfg);
  FaultInjector& fi = core::fault_injector();
  std::size_t fired = 0;

  ASSERT_TRUE(sup.switch_now(ExecMode::kPartialVirtual,
                             500 * hw::kCyclesPerMillisecond));
  ASSERT_TRUE(sup.switch_now(ExecMode::kNative,
                             500 * hw::kCyclesPerMillisecond));
  for (const FaultKind kind :
       {FaultKind::kFail, FaultKind::kTimeout, FaultKind::kCorruptFrame}) {
    for (const std::uint64_t trigger : {std::uint64_t{1}, std::uint64_t{5}}) {
      box.m.kernel().run_for(2 * hw::kCyclesPerMillisecond);
      FaultPlan plan;
      plan.site = FaultSite::kDirtyRebuild;
      plan.kind = kind;
      plan.trigger_count = trigger;
      if (kind == FaultKind::kTimeout) plan.latency = hw::us_to_cycles(100.0);
      const std::string ctx =
          std::string("supervised warm ") + core::fault_kind_name(kind) +
          " trigger=" + std::to_string(trigger);
      SCOPED_TRACE(ctx);
      const std::uint64_t injected_before = fi.injected();
      fi.arm(plan);
      EXPECT_TRUE(sup.switch_now(ExecMode::kPartialVirtual,
                                 500 * hw::kCyclesPerMillisecond))
          << ctx << ": supervised warm switch did not commit";
      fi.disarm();
      if (fi.injected() > injected_before) ++fired;
      for (const core::SupervisedRequest& r : sup.requests())
        EXPECT_TRUE(core::request_state_terminal(r.state))
            << ctx << ": request " << r.id << " stranded in state "
            << core::request_state_name(r.state);
      box.expect_consistent(ctx);
      box.expect_os_runs(ctx);
      ASSERT_TRUE(sup.switch_now(ExecMode::kNative,
                                 500 * hw::kCyclesPerMillisecond));
    }
  }
  EXPECT_EQ(fired, 6u);
  EXPECT_EQ(sup.health(), core::SupervisorHealth::kHealthy);
  EXPECT_GT(box.m.engine().stats().warm_attaches, 0u);
}

TEST(FaultMatrix, SupervisedSweepNeverStrandsARequest) {
  // The whole fault matrix again, but driven through the switch
  // supervisor: a single-shot fault at any site, in either direction, must
  // end as committed-after-retry (the plan disarms on firing, so the backoff
  // retry is clean) — and no request may ever be left non-terminal.
  InjectorGuard guard;
  Box box;
  core::SupervisorConfig scfg;
  scfg.backoff_base_ms = 0.5;
  scfg.quarantine_after = 100;  // isolated single-shot faults never quarantine
  core::SwitchSupervisor sup(box.m.engine(), scfg);
  FaultInjector& fi = core::fault_injector();
  std::size_t fired = 0;

  const auto supervised_trial = [&](ExecMode target, const FaultPlan& plan,
                                    const std::string& ctx) {
    const std::uint64_t injected_before = fi.injected();
    fi.arm(plan);
    EXPECT_TRUE(
        sup.switch_now(target, 500 * hw::kCyclesPerMillisecond))
        << ctx << ": supervised switch did not commit";
    fi.disarm();
    EXPECT_EQ(box.m.mode(), target) << ctx;
    const core::SupervisedRequest* req = sup.find(sup.requests().size());
    ASSERT_NE(req, nullptr) << ctx;
    if (fi.injected() > injected_before) {
      ++fired;
      EXPECT_GE(req->attempts, 2u)
          << ctx << ": a fired fault must cost at least one retry";
    } else {
      EXPECT_EQ(req->attempts, 1u) << ctx;
    }
    for (const core::SupervisedRequest& r : sup.requests())
      EXPECT_TRUE(core::request_state_terminal(r.state))
          << ctx << ": request " << r.id << " stranded in state "
          << core::request_state_name(r.state);
    box.expect_consistent(ctx);
    box.expect_os_runs(ctx);
  };

  for (const FaultSite site : kAllSites) {
    for (const std::uint64_t trigger : {std::uint64_t{1}, std::uint64_t{3}}) {
      FaultPlan plan;
      plan.site = site;
      plan.trigger_count = trigger;
      plan.kind = site == FaultSite::kStackFixup ? FaultKind::kCorruptFrame
                                                 : FaultKind::kFail;
      {
        const std::string ctx = "supervised " +
            ctx_of(site, ExecMode::kNative, ExecMode::kPartialVirtual, trigger);
        SCOPED_TRACE(ctx);
        supervised_trial(ExecMode::kPartialVirtual, plan, ctx);
        if (::testing::Test::HasFatalFailure()) return;
      }
      {
        const std::string ctx = "supervised " +
            ctx_of(site, ExecMode::kPartialVirtual, ExecMode::kNative, trigger);
        SCOPED_TRACE(ctx);
        supervised_trial(ExecMode::kNative, plan, ctx);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GE(fired, 8u);
  EXPECT_EQ(sup.stats().committed, sup.stats().submitted)
      << "single-shot faults under supervision must all end committed";
  EXPECT_EQ(sup.health(), core::SupervisorHealth::kHealthy);
}

TEST(FaultMatrix, SupervisedPersistentStormQuarantinesWithPostmortem) {
  // When the faults never stop, the supervisor must degrade instead of
  // grinding: quarantine, fail the pending virtual-target request via its
  // callback, stay native, and leave a quarantine postmortem bundle behind.
  InjectorGuard guard;
  Box box;
  core::SupervisorConfig scfg;
  scfg.backoff_base_ms = 0.5;
  scfg.degraded_after = 2;
  scfg.quarantine_after = 3;
  scfg.probe_interval_ms = 0;
  core::SwitchSupervisor sup(box.m.engine(), scfg);

  const std::uint64_t bundles_before = obs::postmortem_count();
  core::fault_injector().arm_storm(core::FaultStorm::uniform(1.0, 11));
  EXPECT_FALSE(sup.switch_now(ExecMode::kPartialVirtual));
  core::fault_injector().stop_storm();

  EXPECT_EQ(sup.health(), core::SupervisorHealth::kQuarantined);
  EXPECT_EQ(box.m.mode(), ExecMode::kNative);
  for (const core::SupervisedRequest& r : sup.requests())
    EXPECT_TRUE(core::request_state_terminal(r.state));
  EXPECT_GT(obs::postmortem_count(), bundles_before);
  const std::string bundle = read_file(obs::last_postmortem_path());
  EXPECT_NE(bundle.find("\"reason\":\"quarantine\""), std::string::npos);
  box.expect_consistent("post-quarantine");
  box.expect_os_runs("post-quarantine");
}

TEST(FaultMatrix, TimeoutFaultChargesLatency) {
  InjectorGuard guard;
  Box box;
  FaultPlan plan;
  plan.site = FaultSite::kTransferBindings;
  plan.kind = FaultKind::kTimeout;
  plan.latency = hw::us_to_cycles(200.0);

  core::fault_injector().arm(plan);
  const hw::Cycles before = box.machine.cpu(0).now();
  ASSERT_TRUE(box.settle(ExecMode::kPartialVirtual));
  core::fault_injector().disarm();

  EXPECT_EQ(box.m.mode(), ExecMode::kNative);
  EXPECT_EQ(box.m.engine().stats().rollbacks, 1u);
  // The wedged transfer burned at least its timeout before failing.
  EXPECT_GE(box.machine.cpu(0).now() - before, plan.latency);
  box.expect_consistent("timeout rollback");
}

#if MERCURY_OBS_ENABLED
TEST(FaultMatrix, RollbackAndInjectionMetricsAreExported) {
  InjectorGuard guard;
  Box box;
  FaultPlan plan;
  plan.site = FaultSite::kShardProtect;
  core::fault_injector().arm(plan);
  ASSERT_TRUE(box.settle(ExecMode::kPartialVirtual));
  ASSERT_EQ(box.m.mode(), ExecMode::kNative);

  const obs::Snapshot snap = obs::snapshot();
  const obs::InstrumentSample* rollbacks =
      snap.find("switch.rollbacks", box.m.engine().obs_label());
  ASSERT_NE(rollbacks, nullptr);
  EXPECT_GE(rollbacks->value, 1.0);
  ASSERT_NE(snap.find("fault.injected"), nullptr);

  const std::string json = obs::to_json(snap);
  EXPECT_NE(json.find("switch.rollbacks"), std::string::npos);
  EXPECT_NE(json.find("fault.injected"), std::string::npos);
  EXPECT_NE(json.find("vmm.adopt_rollbacks"), std::string::npos);
}
#endif

}  // namespace
}  // namespace mercury::testing
