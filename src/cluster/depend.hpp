// Dependability arcs: the paper's §6 services driven end-to-end as
// *supervised* native → attach → service → detach → native stories, every
// failure mode survivable. This is the one implementation of each service;
// the examples, the benches and the tests all run on it.
//
// Five arcs:
//
//   live-update         attach, quiesce + patch the kernel, detach (§6.4)
//   self-heal           attach in heal mode, so table validation repairs
//                       tainted entries instead of crashing, detach (§6.2)
//   checkpoint-restart  attach, snapshot, diverge, restore, verify, detach
//                       (§6.1) — the restore path is a first-class fault
//                       surface: a fault mid-write-back triggers supervised
//                       retry → undo-snapshot rollback → quarantine, never
//                       a half-restored machine
//   migrate             two fabric nodes; the loaded OS goes full-virtual,
//                       live-migrates out over iterative pre-copy (riding
//                       the warm-reattach DirtyFrameTracker for
//                       content-dirty frames), serves on the destination
//                       with reconnected split-I/O frontends while an
//                       optional maintenance step runs on the emptied
//                       source, migrates home, and both nodes return to
//                       native (§6.3). A mid-stream fault aborts the
//                       transfer and rolls the source back; the arc retries
//                       the whole leg.
//   evacuate            the migrate arc's outbound leg alone: the OS leaves
//                       a node predicted to fail and stays on the healthy
//                       one (§6.5)
//
// Every mode switch goes through a scoped SwitchSupervisor (retry/backoff/
// quarantine), every service step runs under its own retry → rollback →
// quarantine ladder catching core::FaultInjected, and the whole arc is
// measured as a *dependability window*: total cycles native-to-native,
// decomposed via the ambient pause ledger into service phases. bench_depend
// serializes the result as mercury.depend.v1 and CI gates it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cluster/node.hpp"
#include "core/switch_supervisor.hpp"
#include "obs/pause_ledger.hpp"
#include "vmm/migrate.hpp"

namespace mercury::cluster {

struct KernelPatch {
  std::string description;
  std::function<void(kernel::Kernel&)> apply_fn;
  hw::Cycles patch_work = 150 * hw::kCyclesPerMicrosecond;  // redirection setup
};

struct DependConfig {
  /// Supervisor settings for the arc-scoped switch supervisors.
  core::SupervisorConfig supervisor;
  /// Migration tuning for the migration arcs (harvest_content_dirty is
  /// wired by the arc itself; anything set here is overridden).
  vmm::MigrationConfig migration;
  /// Retry budget for the service step (capture, restore, one migration
  /// leg). Exhaustion escalates to rollback + quarantine.
  std::uint32_t service_max_attempts = 4;
  /// Run the machine invariant checker at the arc's verification points.
  bool check_invariants = true;
};

/// One arc's verdict and window decomposition. The dichotomy the fault
/// matrix asserts: a completed arc has success (service rendered, machine
/// verified) or quarantined (service abandoned *cleanly*: state rolled
/// back or left consistent, postmortem written) — never neither.
struct ArcReport {
  std::string service;  // "live-update" | "self-heal" |
                        // "checkpoint-restart" | "migrate" | "evacuate"
  bool success = false;
  bool quarantined = false;
  bool rolled_back = false;  // the undo path ran (restore undo / source abort)
  bool verified = false;     // post-service integrity check passed
  std::uint64_t attempts = 0;  // service-step attempts (1 = clean first try)
  std::uint64_t retries = 0;   // attempts beyond the first
  std::uint64_t faults = 0;    // FaultInjected caught by the arc
  std::uint64_t switch_attempts = 0;  // supervisor commit attempts, all sups
  std::uint64_t switch_retries = 0;
  std::uint64_t stranded_requests = 0;    // non-terminal supervised requests
  std::uint64_t invariant_violations = 0;
  std::string postmortem_path;  // written on quarantine

  // The dependability window, native-to-native.
  hw::Cycles window_cycles = 0;
  hw::Cycles attach_cycles = 0;   // last attach of the workload-bearing node
  hw::Cycles service_cycles = 0;  // service phase (attach..detach interior)
  hw::Cycles detach_cycles = 0;
  /// Guest-frozen downtime inside the window: stop-and-copy for migrate,
  /// capture+restore copy windows for checkpoint, rendezvous parking for
  /// live-update.
  hw::Cycles downtime_cycles = 0;

  /// Every stop recorded inside the window; the pause_* fields below
  /// summarize it (cycles per cause).
  obs::PauseLedger pauses;
  std::uint64_t pause_intervals = 0;
  std::uint64_t pause_unattributed = 0;
  hw::Cycles pause_rendezvous_cycles = 0;
  hw::Cycles pause_stopcopy_cycles = 0;
  hw::Cycles pause_checkpoint_cycles = 0;
  hw::Cycles pause_backoff_cycles = 0;
  hw::Cycles pause_rollback_cycles = 0;

  // Migration-arc specifics (zero elsewhere).
  std::uint64_t pages_sent = 0;
  std::uint64_t pages_total = 0;
  std::uint64_t precopy_rounds = 0;

  /// The completion dichotomy: rendered-and-verified, or cleanly abandoned.
  bool completed_cleanly() const {
    return (success || quarantined) && stranded_requests == 0 &&
           invariant_violations == 0;
  }
};

/// §6.4: attach → quiesce + apply `patch` → detach, supervised.
ArcReport live_update_arc(Node& node, const KernelPatch& patch,
                          const DependConfig& cfg = {});

/// §6.2: attach with the hypervisor in heal mode, so validating the page
/// tables repairs tainted entries instead of crashing the domain, then
/// detach. `verified` means no domain crashed; the repairs are counted in
/// the hypervisor's entries_healed.
ArcReport self_heal_arc(Node& node, const DependConfig& cfg = {});

/// Test/demo hook: corrupt one present user PTE of `pid` so it points at a
/// hypervisor-owned frame (the kind of kernel-state taint §6.2 targets).
/// Returns true if an entry was corrupted.
bool inject_pte_corruption(core::Mercury& mercury, kernel::Pid pid);

/// §6.1: attach → capture → diverge → restore (fault surface) → verify
/// bit-exactness + invariants → detach. A restore that cannot complete
/// within the retry budget is rolled back to an undo snapshot taken
/// immediately before the first attempt.
ArcReport checkpoint_restart_arc(Node& node, const DependConfig& cfg = {});

/// §6.3: round-trip live migration between two fabric nodes. dst goes
/// partial-virtual (backend/driver-domain split-I/O host), src goes
/// full-virtual, the OS migrates out, `maintenance` runs on the emptied
/// src machine while the OS serves on dst, the OS migrates home, and both
/// nodes return native. Mid-stream faults abort a leg (source rolled back
/// by LiveMigration's unwind) and the arc retries the leg.
ArcReport migrate_arc(
    Node& src, Node& dst, const DependConfig& cfg = {},
    const std::function<void(hw::Machine&)>& maintenance = {});

/// §6.5: the migrate arc's outbound leg alone. On success the OS runs on
/// dst and stays there (src full-virtual and empty, dst partial-virtual);
/// if the leg keeps failing, the source is rolled back and both nodes
/// return native.
ArcReport evacuate_arc(Node& src, Node& dst, const DependConfig& cfg = {});

/// The bench_depend document: one run = the three arcs under one fault
/// regime (rate 0 = clean).
struct DependReport {
  std::uint64_t seed = 0;
  double storm_rate = 0.0;
  std::uint64_t storm_fires = 0;
  std::vector<ArcReport> arcs;

  bool all_completed_cleanly() const {
    if (arcs.empty()) return false;
    for (const ArcReport& a : arcs)
      if (!a.completed_cleanly()) return false;
    return true;
  }
};

/// Serialize as mercury.depend.v1 (see scripts/check_bench_json.py).
std::string depend_report_json(const DependReport& r);
/// Write the document; false on I/O failure.
bool write_depend_report(const DependReport& r, const std::string& path);

}  // namespace mercury::cluster
