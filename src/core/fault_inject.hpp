// Deterministic fault injection for the mode-switch path (dependability
// tooling, paper §8's failure-resistant switch made testable).
//
// A FaultPlan names one injection site threaded through the switch engine,
// the rendezvous, the state-transfer phases, the stack fixup, the VMM's
// adopt/release loops and its checkpoint and migration services, plus a
// trigger count: the plan fires on the Nth visit to that site after arming,
// then disarms itself (single-shot, so recovery code that re-traverses the
// same sites cannot re-fault). Firing
// throws FaultInjected; SwitchEngine catches it at the commit level and
// rolls the machine back to its pre-switch mode.
//
// Beyond single-shot plans, a FaultStorm keeps faulting: every commit
// attempt opens a *window* (FaultInjector::begin_window), each window rolls
// one seeded Bernoulli trial per site, and a won trial fires at a random
// visit depth inside that window. Storms support burst lengths (a hit makes
// the next N windows fire too) and rate decay (each fire multiplies the
// site's rate), so a soak run can model both transient glitches and failure
// cascades that eventually die down — or never do.
//
// Everything is deterministic: the simulator is single-threaded, site
// visits are a pure function of the workload, and both `random_fault_plan`
// and storm scheduling derive from caller-supplied seeds — a failing soak
// seed replays exactly.
#pragma once

#include <cstdint>
#include <string>

#include "hw/cpu.hpp"
#include "util/rng.hpp"

namespace mercury::core {

/// Named injection sites. The enum and its name table stay append-only:
/// FaultInjector::begin_window rolls one storm trial per site in enum
/// order, so removing an enumerator would re-draw every seeded storm. That
/// is why kReleaseUnprotect stays although nothing visits it any more.
enum class FaultSite : std::uint8_t {
  kRendezvous,        // §5.4 barrier entry (both directions, reroles too)
  kAdoptRebuild,      // whole-range page-info rebuild, per frame (migration
                      // admission, eager priming, detach rollback)
  kAdoptProtect,      // whole-range PT typing + write-protection, per table
                      // (same callers as kAdoptRebuild)
  kStackFixup,        // eager selector-fixup walk, per task (both)
  kTransferBindings,  // trap/descriptor-table rebinding (both)
  kReleaseUnprotect,  // unvisited: the switch's unprotect is kShardUnprotect
  kReloadHwState,     // per-CPU control-state reload (both)
  // The switch's bulk loops, run as crew shards on the rendezvous-parked
  // CPUs (on the control processor alone when the crew has no helper). A
  // fire here aborts the shard mid-flight on the CPU running it; the crew
  // joins and the control processor's rollback must still converge.
  kShardRebuild,      // crew shard of the page-info rebuild (attach)
  kShardProtect,      // crew shard of type-and-protect (attach)
  kShardUnprotect,    // crew shard of the writability restore (detach)
  kDirtyRebuild,      // warm re-attach dirty-set rebuild, per frame (attach)
  // Service sites: the dependability arcs (checkpoint/restart, live
  // migration) that run while the VMM is attached. A fire here aborts the
  // service step; the supervising arc retries, rolls back, or quarantines.
  kCheckpointCapture,  // checkpoint frame/vcpu capture, per frame
  kRestoreApply,       // checkpoint restore write-back, per frame
  kMigrateStream,      // pre-copy page stream, per page sent
  kMigrateActivate,    // destination admission: rebind/rewire steps
  kNumSites,
};

inline constexpr std::size_t kNumFaultSites =
    static_cast<std::size_t>(FaultSite::kNumSites);

/// The one site↔name table. Every stringification (injector logs,
/// postmortems, JSON artifacts, the fault.hit flight events) derives from
/// here — adding a site means adding exactly one row.
inline constexpr const char* kFaultSiteNames[kNumFaultSites] = {
    "rendezvous",         // kRendezvous
    "adopt.rebuild",      // kAdoptRebuild
    "adopt.protect",      // kAdoptProtect
    "stack.fixup",        // kStackFixup
    "transfer.bindings",  // kTransferBindings
    "release.unprotect",  // kReleaseUnprotect
    "reload.hw_state",    // kReloadHwState
    "shard.rebuild",      // kShardRebuild
    "shard.protect",      // kShardProtect
    "shard.unprotect",    // kShardUnprotect
    "dirty.rebuild",      // kDirtyRebuild
    "checkpoint.capture", // kCheckpointCapture
    "restore.apply",      // kRestoreApply
    "migrate.stream",     // kMigrateStream
    "migrate.activate",   // kMigrateActivate
};

const char* fault_site_name(FaultSite s);

enum class FaultKind : std::uint8_t {
  kFail,          // the step reports a clean failure
  kTimeout,       // the step hangs for `latency` cycles, then fails
  kCorruptFrame,  // stack fixup walked into a malformed saved frame
};

const char* fault_kind_name(FaultKind k);

/// One planned fault: fire `kind` on the `trigger_count`-th visit to `site`
/// (1-based, counted from arming).
struct FaultPlan {
  FaultSite site = FaultSite::kRendezvous;
  std::uint64_t trigger_count = 1;
  FaultKind kind = FaultKind::kFail;
  /// Simulated cycles the faulting step burns before failing (a rendezvous
  /// timeout, a wedged transfer). Charged to the CPU at the site, if known.
  hw::Cycles latency = 0;

  std::string describe() const;
};

/// Thrown at a site when the armed plan fires. Carries the id of the CPU
/// that was executing the faulted step (the crew member running a shard, or
/// the control processor outside one) so rollback postmortems can name it.
struct FaultInjected {
  FaultSite site;
  FaultKind kind;
  std::uint32_t cpu = 0;
};

/// A seeded multi-shot fault regime for soak runs. One window = one commit
/// attempt (the switch engine calls begin_window); per window each site
/// with rate > 0 rolls an independent Bernoulli trial, and a won trial
/// fires on a uniformly chosen visit in [1, max_trigger_depth] to that
/// site within the window. Every storm fire is a kFail.
struct FaultStorm {
  /// Per-window fire probability, indexed by FaultSite.
  double rate[kNumFaultSites] = {};
  /// A won trial fires at visit 1..max_trigger_depth within the window
  /// (bulk sites see thousands of visits per switch; shallow depths keep
  /// the fire reachable at every site).
  std::uint64_t max_trigger_depth = 8;
  /// After a fire, the same site keeps firing for this many consecutive
  /// windows in total (1 = no burst).
  std::uint32_t burst_windows = 1;
  /// Each fire multiplies the firing site's rate by this factor: < 1.0
  /// models storms that blow over, 1.0 a stationary fault rate.
  double decay = 1.0;
  /// Stop the storm after this many fires (0 = unlimited).
  std::uint64_t max_fires = 0;
  std::uint64_t seed = 1;

  /// Every site at the same per-window rate.
  static FaultStorm uniform(double rate, std::uint64_t seed);
};

/// The process-global injector every site reports to. Disarmed it is a
/// handful of loads per visit; tests arm exactly one single-shot plan or
/// one storm (they compose: the plan is checked first).
class FaultInjector {
 public:
  /// Arm `plan` and zero the per-arm counters. Arming over a live plan is
  /// an invariant violation (MERC_CHECK): silent replacement made fault
  /// sweeps pass vacuously. disarm() first, or use replace().
  void arm(const FaultPlan& plan);
  /// Explicitly swap the armed plan (counts the old one as unfired).
  void replace(const FaultPlan& plan);
  void disarm() {
    if (armed_) ++unfired_disarms_;
    armed_ = false;
  }
  bool armed() const { return armed_; }
  const FaultPlan& plan() const { return plan_; }

  /// Arm a multi-shot storm. Runs until stop_storm(), or until `max_fires`
  /// is reached. Replacing a live storm is allowed (storms are regimes,
  /// not one-shot assertions).
  void arm_storm(const FaultStorm& storm);
  void stop_storm() { storm_active_ = false; }
  bool storm_active() const { return storm_active_; }
  /// The *live* storm state: fire_* mutates per-site rates by `decay`, so
  /// this drifts from the armed regime as fires land.
  const FaultStorm& storm() const { return storm_; }
  /// The storm exactly as armed (pre-decay) — reports quote this one.
  const FaultStorm& storm_config() const { return storm_config_; }
  /// Fires attributed to the storm since it was armed.
  std::uint64_t storm_fires() const { return storm_fires_; }
  /// Windows opened since the storm was armed.
  std::uint64_t storm_windows() const { return storm_windows_; }

  /// Open a scheduling window (the switch engine calls this at the start
  /// of every commit attempt). Rolls the storm's per-site trials; no-op
  /// without an active storm.
  void begin_window();

  /// Suppress firing (visits still counted). The switch engine pauses the
  /// injector across a rollback so a storm cannot fault the fault handler.
  void set_paused(bool p) { paused_ = p; }
  bool paused() const { return paused_; }
  class PauseGuard {
   public:
    PauseGuard();
    ~PauseGuard();
    PauseGuard(const PauseGuard&) = delete;
    PauseGuard& operator=(const PauseGuard&) = delete;

   private:
    bool was_paused_;
  };

  /// Total faults fired since process start (plans + storms).
  std::uint64_t injected() const { return injected_; }
  /// Visits to `site` since the last arm.
  std::uint64_t visits(FaultSite s) const {
    return visits_[static_cast<std::size_t>(s)];
  }
  /// Plans armed / disarmed without ever firing, since process start.
  /// Tests report a nonzero unfired delta at scope exit: a plan that never
  /// fired usually means the sweep asserted nothing.
  std::uint64_t arms() const { return arms_; }
  std::uint64_t unfired_disarms() const { return unfired_disarms_; }

  /// Report a visit to `site`. Throws FaultInjected (after charging the
  /// fault's latency to `cpu`, when given) if the armed plan or the storm
  /// fires; a firing plan disarms first so unwind/rollback code revisiting
  /// sites is safe, and storms are suppressed while paused.
  void on_site(FaultSite site, hw::Cpu* cpu = nullptr);

  /// Bulk form of on_site for per-item loops: count up to `n` visits to
  /// `site` that cannot fire — exactly as that many on_site calls would
  /// count them (plan, storm window, paused) — and return how many were
  /// counted. A return below `n` means the next visit fires: the caller
  /// must report it through on_site. O(1), never throws.
  std::uint64_t pass(FaultSite site, std::uint64_t n);

  /// True when any site visit could fire (keeps the fault_point fast path
  /// a couple of loads).
  bool live() const { return armed_ || storm_active_; }

 private:
  void fire_plan(FaultSite site, hw::Cpu* cpu, std::uint64_t visit);
  void fire_storm(FaultSite site, hw::Cpu* cpu, std::uint64_t visit);

  bool armed_ = false;
  bool paused_ = false;
  FaultPlan plan_{};
  std::uint64_t visits_[kNumFaultSites] = {};
  std::uint64_t injected_ = 0;
  std::uint64_t arms_ = 0;
  std::uint64_t unfired_disarms_ = 0;

  bool storm_active_ = false;
  FaultStorm storm_{};         // live state: rates decay as fires land
  FaultStorm storm_config_{};  // the regime as armed, never mutated
  util::Rng storm_rng_{1};
  std::uint64_t storm_fires_ = 0;
  std::uint64_t storm_windows_ = 0;
  std::uint32_t burst_left_ = 0;
  FaultSite burst_site_ = FaultSite::kRendezvous;
  /// Visit ordinal (within the current window) at which each site fires;
  /// 0 = quiet this window.
  std::uint64_t window_trigger_[kNumFaultSites] = {};
  std::uint64_t window_visits_[kNumFaultSites] = {};
};

FaultInjector& fault_injector();

/// Site marker used by the switch path. Cheap when disarmed.
inline void fault_point(FaultSite site, hw::Cpu* cpu = nullptr) {
  FaultInjector& fi = fault_injector();
  if (fi.live()) fi.on_site(site, cpu);
}

/// Bulk marker: the visits `n` fault_point calls would make, up to (not
/// including) one that fires. Returns how many were passed; that many items
/// may run without a per-item fault_point.
inline std::uint64_t fault_pass(FaultSite site, std::uint64_t n) {
  FaultInjector& fi = fault_injector();
  return fi.live() ? fi.pass(site, n) : n;
}

/// Drive a probed per-item loop over `n` items on `cpu`: one visit to
/// `site` before each item, with the same visit ordinals, the same item
/// on which a fault fires, and the same clock at the fault as the loop
/// `for (i) { fault_point(site, &cpu); body(i); }`. Stretches no fault can
/// interrupt go to `run(first, count)` whole; the visit that fires is
/// taken per item, so a per-item loop is just a run of length one.
template <typename Run>
void probed_runs(hw::Cpu& cpu, FaultSite site, std::size_t n, Run&& run) {
  for (std::size_t i = 0; i < n;) {
    std::size_t len = static_cast<std::size_t>(fault_pass(site, n - i));
    if (len == 0) {
      // The next visit fires: take it per item, before its item, as the
      // per-item loop would.
      fault_point(site, &cpu);
      len = 1;
    }
    run(i, len);
    i += len;
  }
}

/// Derive a plan from a seeded Rng (the fuzzer's source of variety): any
/// site, trigger counts spanning first-hit to deep-in-the-loop, all kinds.
FaultPlan random_fault_plan(util::Rng& rng);

}  // namespace mercury::core
