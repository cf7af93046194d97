// The mode-switch engine: interrupt-driven attach/detach of the pre-cached
// VMM beneath the running OS (paper §4, §5.1).
//
// A switch request raises the self-virtualization interrupt on the control
// processor. The handler refuses to commit while any VO reference is live
// (re-arming a 10 ms kernel timer, §5.1.1), parks all CPUs at the
// rendezvous (§5.4), runs the state transfer (§5.1.2) as crew phases while
// they stay parked, reloads hardware control state in interrupt context —
// including the patched return privilege level (§5.1.3) — swaps the
// kernel's VO pointer, and only then releases the barrier.
#pragma once

#include <cstdint>

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/dirty_tracker.hpp"
#include "core/native_vo.hpp"
#include "core/rendezvous.hpp"
#include "core/virtual_vo.hpp"
#include "kernel/kernel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "vmm/hypervisor.hpp"

namespace mercury::core {

struct FaultInjected;
class SwitchCrew;

enum class ExecMode : std::uint8_t {
  kNative,         // bare hardware, full speed
  kPartialVirtual, // VMM attached, OS is the driver domain (can host domUs)
  kFullVirtual,    // VMM attached, OS is an unprivileged guest (migratable)
};

const char* exec_mode_name(ExecMode m);

/// How the most recent commit attempt (or cancellation) resolved. A caller
/// that saw switch_now() return false can distinguish "never committed"
/// (kCancelled — the engine revoked the stale request) from a rollback or
/// validation abort that resolved before the budget ran out.
enum class SwitchOutcome : std::uint8_t {
  kNone,             // no request has resolved yet
  kCommitted,        // the mode changed
  kNoOp,             // target equalled the current mode at commit time
  kValidationAbort,  // §8 pre-commit validation refused the switch
  kRolledBack,       // a mid-switch fault unwound the transition
  kCancelled,        // the request was revoked before it could commit
};

struct SwitchConfig {
  bool eager_page_tracking = false;  // §5.1.2 alternative 1
  bool eager_selector_fixup = false; // walk tasks at switch time vs resume stub
  bool validate_before_commit = false;  // failure-resistant switch (§8)
  /// Number of rendezvous-parked CPUs recruited as shard workers for the
  /// bulk switch phases (page-info rebuild, type-and-protect, validation,
  /// eager fixup, release-time unprotect), besides the control processor,
  /// which always works. Clamped to the machine's other CPUs. With 0 the CP
  /// runs every phase alone while the other CPUs stay parked (§5.4).
  std::size_t crew_workers = 0;
  /// Run the machine-state invariant checker after every commit attempt
  /// (committed or rolled back) and abort the simulation on a violation.
  /// Test-only: the checks are free of simulated cost but not of host cost.
  bool paranoid_invariants = false;
  /// Warm re-attach: retain the page-info table across detach and, on the
  /// next attach, reconstruct only the frames the DirtyFrameTracker saw
  /// change while native (pre-copy applied to self-virtualization). Falls
  /// back to the full rebuild on the first attach, on tracker overflow, and
  /// whenever retention was poisoned by an ownership change. Mutually
  /// exclusive with eager_page_tracking (which keeps the table live instead
  /// of stale); when both are set, eager wins and warm is ignored.
  bool warm_reattach = false;
  /// Dirty-set bound before the warm path falls back to a full rebuild
  /// (0 = total_frames / 8; see DirtyFrameTracker).
  std::size_t warm_dirty_capacity = 0;
};

/// Cycles of the state-transfer phases of the last attach or detach
/// (paper §5.1.2). Three classes of state move between representations:
/// page-table pages (writable <-> read-only + typed), the kernel segment
/// privilege in every suspended thread's saved frame, and the interrupt
/// bindings (kernel IDT on hardware <-> hypervisor IDT with the kernel's
/// table registered as the guest trap table).
struct TransferStats {
  hw::Cycles page_info_cycles = 0;   // owner/type/count rebuild + typing
  hw::Cycles protection_cycles = 0;  // PT writability restore (detach)
  hw::Cycles fixup_cycles = 0;       // eager selector fixups (if enabled)
  hw::Cycles binding_cycles = 0;     // trap/descriptor table rebinding
};

/// Per-engine switch telemetry. This struct is the single storage for these
/// values; when telemetry is compiled in, the engine exposes every field
/// through the central obs registry as callback gauges labeled
/// "engine=<id>" (obs::snapshot() reads them live — no parallel counting),
/// and additionally feeds the unlabeled per-phase cycle histograms
/// (`switch.attach.*_cycles` / `switch.detach.*_cycles`) that benches dump
/// with --metrics-json.
struct SwitchStats {
  std::uint64_t attaches = 0;
  std::uint64_t detaches = 0;
  std::uint64_t reroles = 0;         // partial <-> full transitions
  std::uint64_t deferrals = 0;       // refcount non-zero at request time
  std::uint64_t validation_aborts = 0;
  std::uint64_t rollbacks = 0;       // mid-switch faults unwound (§8)
  std::uint64_t cancels = 0;         // pending requests revoked via cancel()
  std::uint64_t warm_attaches = 0;   // attaches that took the dirty-set path
  std::uint64_t warm_fallbacks = 0;  // warm-eligible attaches forced cold
                                     // (overflow or poisoned retention)
  std::uint64_t last_dirty_frames = 0;     // dirty set of the last warm attach
  std::uint64_t last_frames_retained = 0;  // carried over, not reconstructed
  hw::Cycles last_attach_cycles = 0;
  hw::Cycles last_detach_cycles = 0;
  hw::Cycles last_rendezvous_cycles = 0;
  /// Longest per-CPU unavailability window of the last commit. Computed
  /// with plain arithmetic in Rendezvous::release() on obs-on and obs-off
  /// builds alike (the cycle-identity probe prints it).
  hw::Cycles last_max_pause_cycles = 0;
  hw::Cycles last_defer_wait_cycles = 0;  // request -> commit-start (§5.1.1)
  TransferStats last_transfer{};
};

class SwitchEngine {
 public:
  SwitchEngine(kernel::Kernel& k, vmm::Hypervisor& hv, NativeVo& native_vo,
               VirtualVo& driver_vo, VirtualVo& guest_vo,
               SwitchConfig config = {});
  ~SwitchEngine();

  ExecMode mode() const { return mode_; }
  const SwitchConfig& config() const { return config_; }
  SwitchStats& stats() { return stats_; }

  /// Toggle warm re-attach at runtime (chaos tiers randomize it per cycle).
  /// Disabling disarms the tracker, so a window that was only partially
  /// observed can never feed a warm rebuild; re-enabling takes effect at
  /// the next detach (the next attach stays cold).
  void set_warm_reattach(bool on);
  /// The dirty-frame tracker, if one has been created (tests).
  DirtyFrameTracker* dirty_tracker() { return dirty_tracker_.get(); }

  /// Asynchronous request: triggers the self-virtualization interrupt on
  /// the control processor; the switch commits from interrupt context.
  void request(ExecMode target);

  /// Causal context the *next* request's commit spans should link under
  /// (e.g. the fabric-message span of a cluster-wide switch wave). The
  /// request path is asynchronous — submit, interrupt, deferral timers —
  /// so the ambient obs::SpanContext at submit time is gone by commit
  /// time; the supervisor captures it and re-installs it through here.
  void set_request_context(const obs::SpanContext& ctx) { pending_ctx_ = ctx; }

  /// True once no request is in flight.
  bool idle() const { return !pending_; }

  /// Revoke the in-flight request, if any: the armed deferral timers and
  /// interrupts become no-ops and the switch can no longer commit behind
  /// the caller's back. No-op when idle. Does not fire the completion hook
  /// (the canceller already knows).
  void cancel();

  /// How the most recent request resolved (kCancelled after cancel()).
  SwitchOutcome last_outcome() const { return last_outcome_; }

  /// One observer (the switch supervisor) notified after every request
  /// resolution — commit, no-op, validation abort, or rollback — with the
  /// engine already in its settled state. The hook runs on the host only
  /// (it must never charge simulated cycles) and may submit a new request.
  using CompletionHook = std::function<void(ExecMode target, SwitchOutcome)>;
  void set_completion_hook(CompletionHook hook) { on_complete_ = std::move(hook); }

  /// Interrupt entry point (wired into the kernel's dispatch).
  void on_interrupt(hw::Cpu& cpu, std::uint8_t vector, std::uint32_t payload);

  /// Synchronous convenience: request + drive the kernel until committed.
  /// Returns false if the switch did not commit within `budget` cycles.
  bool switch_now(ExecMode target,
                  hw::Cycles budget = 500 * hw::kCyclesPerMillisecond);

  NativeVo& native_vo() { return native_vo_; }
  VirtualVo& driver_vo() { return driver_vo_; }
  VirtualVo& guest_vo() { return guest_vo_; }
  VirtObject& current_vo();
  kernel::Kernel& kernel() { return kernel_; }
  vmm::Hypervisor& hypervisor() { return hv_; }

  /// The registry label ("engine=<n>") this engine's stats appear under.
  const std::string& obs_label() const { return obs_label_; }

 private:
  void try_commit(hw::Cpu& cpu);
  void commit(hw::Cpu& cpu, ExecMode target);
  /// Record the outcome and notify the completion hook (if installed).
  void resolve(ExecMode target, SwitchOutcome outcome);
  void register_obs_instruments();
  /// Native <-> virtual with every CPU parked: the bulk phases run as
  /// shards across `crew` (the CP alone when it has no helper).
  void attach(hw::Cpu& cpu, SwitchCrew& crew, ExecMode target);
  void detach(hw::Cpu& cpu, SwitchCrew& crew);
  /// The eager selector-fixup phase (§5.1.3): move every suspended task's
  /// saved kernel selectors to `target` as crew shards; returns its cycles.
  hw::Cycles eager_fixup(hw::Cpu& cpu, SwitchCrew& crew, hw::Ring target);
  /// partial <-> full transition: re-role the virtual VO in place.
  void rerole(hw::Cpu& cpu, ExecMode target);
  bool validate_for_switch(hw::Cpu& cpu, ExecMode target);
  void reload_all_cpus(VirtObject& vo);
  /// Warm re-attach plumbing. `warm_retention_enabled` gates the detach
  /// side (retain the table + arm the tracker); `warm_dirty_set` decides
  /// the attach side — nullopt means cold (first attach, disabled, tracker
  /// overflow, or poisoned retention; the latter two count as fallbacks) —
  /// and returns the dirty set filtered to kernel-owned frames otherwise.
  bool warm_retention_enabled() const;
  void ensure_tracker();
  void begin_warm_retention();
  std::optional<WarmSet> warm_dirty_set();
  /// Record a warm attach's telemetry (stats, gauges, flight event).
  void note_warm_attach(hw::Cpu& cpu, std::size_t dirty_frames);
  /// Unwind a partially applied `from`→`target` transition after an injected
  /// fault, returning the machine to `from` (paper §8: dependable switch).
  void rollback(hw::Cpu& cpu, ExecMode from, ExecMode target,
                const FaultInjected& fault);
  /// Capture a mercury.postmortem.v1 bundle for a rolled-back switch.
  void dump_rollback_postmortem(ExecMode from, ExecMode target,
                                const FaultInjected& fault);

  kernel::Kernel& kernel_;
  vmm::Hypervisor& hv_;
  NativeVo& native_vo_;
  VirtualVo& driver_vo_;
  VirtualVo& guest_vo_;
  SwitchConfig config_;

  ExecMode mode_ = ExecMode::kNative;
  bool pending_ = false;
  SwitchOutcome last_outcome_ = SwitchOutcome::kNone;
  CompletionHook on_complete_;
  ExecMode pending_target_ = ExecMode::kNative;
  obs::SpanContext pending_ctx_{};  // causal parent of the next commit
  hw::Cycles request_time_ = 0;  // CP clock when the live request was made
  SwitchStats stats_;
  /// Created lazily on the first retaining detach; once installed it stays
  /// registered as the machine's and frame pool's dirty sink (the armed
  /// flag gates recording, so a disarmed tracker costs one predictable
  /// branch per store). The destructor deregisters it.
  std::unique_ptr<DirtyFrameTracker> dirty_tracker_;
  std::string obs_label_;
  obs::CallbackGuard obs_callbacks_;  // unregisters when the engine dies
};

}  // namespace mercury::core
