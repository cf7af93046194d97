#include "core/switch_engine.hpp"

#include <algorithm>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "core/fault_inject.hpp"
#include "core/invariants.hpp"
#include "core/stack_fixup.hpp"
#include "core/switch_crew.hpp"
#include "hw/interrupts.hpp"
#include "obs/obs.hpp"
#include "obs/postmortem.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace mercury::core {

namespace {

/// §5.1.1: a switch deferred by in-flight sensitive code retries after
/// this timer interval.
constexpr hw::Cycles kDeferRetry = 10 * hw::kCyclesPerMillisecond;

/// The injection site behind each hypervisor probe point, indexed by
/// HvFaultPoint. Both halves of the probe (per-visit and bulk) map here.
constexpr FaultSite kHvFaultSites[] = {
    FaultSite::kAdoptRebuild,       // kAdoptRebuild
    FaultSite::kAdoptProtect,       // kAdoptProtect
    FaultSite::kShardRebuild,       // kShardRebuild
    FaultSite::kShardProtect,       // kShardProtect
    FaultSite::kShardUnprotect,     // kShardUnprotect
    FaultSite::kDirtyRebuild,       // kDirtyRebuild
    FaultSite::kCheckpointCapture,  // kCheckpointCapture
    FaultSite::kRestoreApply,       // kRestoreApply
    FaultSite::kMigrateStream,      // kMigrateStream
    FaultSite::kMigrateActivate,    // kMigrateActivate
};
static_assert(std::size(kHvFaultSites) ==
              static_cast<std::size_t>(vmm::HvFaultPoint::kNumPoints));

FaultSite site_of(vmm::HvFaultPoint p) {
  return kHvFaultSites[static_cast<std::size_t>(p)];
}

}  // namespace

const char* exec_mode_name(ExecMode m) {
  switch (m) {
    case ExecMode::kNative: return "native";
    case ExecMode::kPartialVirtual: return "partial-virtual";
    case ExecMode::kFullVirtual: return "full-virtual";
  }
  return "?";
}

const char* switch_outcome_name(SwitchOutcome o) {
  switch (o) {
    case SwitchOutcome::kNone: return "none";
    case SwitchOutcome::kCommitted: return "committed";
    case SwitchOutcome::kNoOp: return "no-op";
    case SwitchOutcome::kValidationAbort: return "validation-abort";
    case SwitchOutcome::kRolledBack: return "rolled-back";
    case SwitchOutcome::kCancelled: return "cancelled";
  }
  return "?";
}

SwitchEngine::SwitchEngine(kernel::Kernel& k, vmm::Hypervisor& hv,
                           NativeVo& native_vo, VirtualVo& driver_vo,
                           VirtualVo& guest_vo, SwitchConfig config)
    : kernel_(k),
      hv_(hv),
      native_vo_(native_vo),
      driver_vo_(driver_vo),
      guest_vo_(guest_vo),
      config_(config) {
  kernel_.set_selfvirt_handler(
      [this](hw::Cpu& cpu, std::uint8_t vector, std::uint32_t payload) {
        on_interrupt(cpu, vector, payload);
      });
  // The hypervisor links below core/ and cannot name the fault injector;
  // bridge its probe points to the engine's injection sites. The hypervisor
  // reports the CPU executing the probed loop — the crew member running the
  // shard, or the control processor outside one — so injected latency
  // charges the clock that was actually running.
  hv_.set_fault_probe(vmm::FaultProbe{
      [this](vmm::HvFaultPoint p, hw::Cpu* cpu) {
        fault_point(site_of(p),
                    cpu != nullptr ? cpu : &kernel_.machine().cpu(0));
      },
      [](vmm::HvFaultPoint p, std::size_t n) {
        return static_cast<std::size_t>(fault_pass(site_of(p), n));
      }});
  // Black box: a failed MERC_CHECK anywhere in the simulator should leave a
  // postmortem bundle behind once a switch engine exists. Idempotent.
  obs::install_assert_postmortem_hook();
  register_obs_instruments();
}

SwitchEngine::~SwitchEngine() {
  if (dirty_tracker_) {
    // The machine and pool outlive this engine; the sink must not dangle.
    hw::PhysicalMemory& mem = kernel_.machine().memory();
    if (mem.dirty_sink() == dirty_tracker_.get()) mem.set_dirty_sink(nullptr);
    kernel_.pool().set_dirty_sink(nullptr);
  }
}

void SwitchEngine::register_obs_instruments() {
#if MERCURY_OBS_ENABLED
  // SwitchStats is the storage; the registry views it live through callback
  // gauges so per-engine numbers appear in obs::snapshot() without a second
  // set of counters to keep in sync.
  static std::uint64_t next_engine_id = 0;
  obs_label_ = "engine=" + std::to_string(next_engine_id++);
  const auto expose = [this](const char* name, auto getter) {
    obs_callbacks_.add(name, obs_label_, [this, getter] {
      return static_cast<double>(getter(stats_));
    });
  };
  expose("switch.attaches", [](const SwitchStats& s) { return s.attaches; });
  expose("switch.detaches", [](const SwitchStats& s) { return s.detaches; });
  expose("switch.reroles", [](const SwitchStats& s) { return s.reroles; });
  expose("switch.deferrals", [](const SwitchStats& s) { return s.deferrals; });
  expose("switch.validation_aborts",
         [](const SwitchStats& s) { return s.validation_aborts; });
  expose("switch.rollbacks", [](const SwitchStats& s) { return s.rollbacks; });
  expose("switch.cancels", [](const SwitchStats& s) { return s.cancels; });
  expose("switch.last_attach_cycles",
         [](const SwitchStats& s) { return s.last_attach_cycles; });
  expose("switch.last_detach_cycles",
         [](const SwitchStats& s) { return s.last_detach_cycles; });
  expose("switch.last_rendezvous_cycles",
         [](const SwitchStats& s) { return s.last_rendezvous_cycles; });
  expose("switch.last_max_pause_cycles",
         [](const SwitchStats& s) { return s.last_max_pause_cycles; });
  expose("switch.last_defer_wait_cycles",
         [](const SwitchStats& s) { return s.last_defer_wait_cycles; });
  expose("switch.attach.warm_attaches",
         [](const SwitchStats& s) { return s.warm_attaches; });
  expose("switch.attach.warm_fallbacks",
         [](const SwitchStats& s) { return s.warm_fallbacks; });
  expose("switch.attach.last_dirty_frames",
         [](const SwitchStats& s) { return s.last_dirty_frames; });
  expose("vmm.page_info.last_frames_retained",
         [](const SwitchStats& s) { return s.last_frames_retained; });
#endif
}

VirtObject& SwitchEngine::current_vo() {
  switch (mode_) {
    case ExecMode::kNative: return native_vo_;
    case ExecMode::kPartialVirtual: return driver_vo_;
    case ExecMode::kFullVirtual: return guest_vo_;
  }
  return native_vo_;
}

void SwitchEngine::request(ExecMode target) {
  if (target == mode_ && !pending_) return;
  pending_ = true;
  pending_target_ = target;
  request_time_ = kernel_.machine().cpu(0).now();
  MERC_FLIGHT(kernel_.machine().cpu(0), kSwitchRequest, "switch.request",
              static_cast<std::uint64_t>(mode_),
              static_cast<std::uint64_t>(target));
  const std::uint8_t vector = target == ExecMode::kNative
                                  ? hw::kVecSelfVirtDetach
                                  : hw::kVecSelfVirtAttach;
  hw::Machine& m = kernel_.machine();
  m.interrupts().raise(/*cpu=*/0, vector, m.cpu(0).now());
}

void SwitchEngine::on_interrupt(hw::Cpu& cpu, std::uint8_t vector,
                                std::uint32_t payload) {
  (void)vector;
  (void)payload;
  if (!pending_) return;  // stale deferral timer or duplicate interrupt
  cpu.charge(pv::costs::kSwitchInterruptOverhead);
  try_commit(cpu);
}

void SwitchEngine::try_commit(hw::Cpu& cpu) {
  // §5.1.1: never switch while sensitive code is in flight.
  if (current_vo().active_refs() != 0) {
    ++stats_.deferrals;
    MERC_COUNT("switch.deferrals");
    MERC_FLIGHT(cpu, kRefcountRetry, "switch.refcount_retry",
                current_vo().active_refs(), stats_.deferrals);
    kernel_.add_timer(
        cpu.now() + kDeferRetry,
        [this] {
          if (!pending_) return;
          hw::Machine& m = kernel_.machine();
          if (current_vo().active_refs() == 0) {
            commit(m.cpu(0), pending_target_);
          } else {
            // Still busy: re-arm through the interrupt path.
            ++stats_.deferrals;
            MERC_COUNT("switch.deferrals");
            MERC_FLIGHT(m.cpu(0), kRefcountRetry, "switch.refcount_retry",
                        current_vo().active_refs(), stats_.deferrals);
            m.interrupts().raise(0,
                                 pending_target_ == ExecMode::kNative
                                     ? hw::kVecSelfVirtDetach
                                     : hw::kVecSelfVirtAttach,
                                 m.cpu(0).now() + kDeferRetry);
          }
        });
    return;
  }
  commit(cpu, pending_target_);
}

bool SwitchEngine::validate_for_switch(hw::Cpu& cpu, ExecMode target) {
  // Failure-resistant switch (paper §8 future work): sanity-check that the
  // OS is in a state a switch can survive, abort (leaving the current mode
  // untouched) otherwise.
  cpu.charge(4000);  // validation scan
  if (target != ExecMode::kNative) {
    // The kernel's page-table forest must be self-consistent before the VMM
    // starts enforcing types: spot-check that every task's PD exists and is
    // inside the kernel's frame range.
    bool ok = true;
    kernel_.for_each_task([&](kernel::Task& t) {
      if (!t.aspace) return;
      const hw::Pfn pd = t.aspace->page_directory();
      if (pd < kernel_.base_pfn() ||
          pd >= kernel_.base_pfn() + kernel_.pool().owned_count())
        ok = false;
    });
    return ok;
  }
  return true;
}

void SwitchEngine::resolve(ExecMode target, SwitchOutcome outcome) {
  // The captured causal context covered exactly one request; drop it so an
  // unrelated later request (e.g. a direct switch_now) roots a fresh trace.
  pending_ctx_ = obs::SpanContext{};
  last_outcome_ = outcome;
  if (on_complete_) on_complete_(target, outcome);
}

void SwitchEngine::commit(hw::Cpu& cpu, ExecMode target) {
  MERC_CHECK(pending_);
  if (target == mode_) {
    pending_ = false;
    resolve(target, SwitchOutcome::kNoOp);
    return;
  }
  if (config_.validate_before_commit && !validate_for_switch(cpu, target)) {
    ++stats_.validation_aborts;
    MERC_COUNT("switch.validation_aborts");
    pending_ = false;
    util::log_warn("mercury", "mode switch aborted by pre-commit validation");
    resolve(target, SwitchOutcome::kValidationAbort);
    return;
  }
  // One commit attempt = one fault-storm scheduling window.
  fault_injector().begin_window();

  // Deferral wait (§5.1.1): simulated time between the switch request and
  // this commit attempt — dominated by the 10 ms retry timer when the VO
  // refcount gated the switch.
  stats_.last_defer_wait_cycles =
      cpu.now() >= request_time_ ? cpu.now() - request_time_ : 0;

#if MERCURY_OBS_ENABLED
  // Re-join the causal trace captured at submit time (a supervisor attempt,
  // a cluster fabric message): the commit span — and every crew-phase span
  // nested in it — becomes a child of that remote context instead of an
  // orphan root, so one switch wave reads as one tree in the Chrome export.
  obs::SpanContextScope request_scope(
      pending_ctx_.valid() ? pending_ctx_ : obs::current_span_context());
#endif
  const obs::IntervalKind commit_kind =
      mode_ == ExecMode::kNative   ? obs::IntervalKind::kSwitchAttach
      : target == ExecMode::kNative ? obs::IntervalKind::kSwitchDetach
                                    : obs::IntervalKind::kSwitchRerole;
  obs::Interval commit_interval(cpu, commit_kind,
                                static_cast<std::uint64_t>(mode_),
                                static_cast<std::uint64_t>(target));
  MERC_PROF_SCOPE("switch.commit", &cpu);

  const ExecMode from = mode_;
  const hw::Cycles t0 = cpu.now();
  bool committed = true;
  hw::Cycles rendezvous_cycles = 0;
  try {
    // §5.4: park every CPU at the barrier, run the transfer as crew phases
    // on the parked cores (the CP alone when the crew has no helper), and
    // release only when the transfer is done.
    Rendezvous rv(kernel_.machine(), cpu, RendezvousProtocol::kIpiSharedVar);
    SwitchCrew crew(kernel_.machine(), cpu, config_.crew_workers);
    try {
      rv.park();
      // Shard dispatch must not begin before the §5.1.1 commit point: the
      // crew mutates state that a live VO reference could be touching.
      MERC_CHECK_MSG(current_vo().active_refs() == 0,
                     "crew dispatch before the VO refcount-zero commit point");
      if (mode_ == ExecMode::kNative) {
        attach(cpu, crew, target);
      } else if (target == ExecMode::kNative) {
        detach(cpu, crew);
      } else {
        rerole(cpu, target);
      }
    } catch (...) {
      // The barrier must never stay held: release the parked CPUs before
      // the fault unwinds into the rollback, which runs on the CP alone.
      if (rv.parked()) rv.release();
      throw;
    }
    const RendezvousStats rvs = rv.release();
    stats_.last_rendezvous_cycles = rv.coordination_cycles();
    rendezvous_cycles = rv.coordination_cycles();
    stats_.last_max_pause_cycles = rvs.max_pause_cycles;
    MERC_GAUGE_SET("switch.crew.workers", crew.workers());
    MERC_GAUGE_SET("switch.crew.utilization", crew.utilization());
  } catch (const FaultInjected& fault) {
    // A fault fired at one of the pre-commit injection sites: unwind the
    // partial transition instead of crashing mid-switch (paper §8), then
    // leave the black-box evidence behind. An active fault storm is paused
    // for the duration — a storm re-faulting the fault handler would turn
    // every rollback into a crash, which is not the failure model (§8
    // assumes the recovery path itself is sound).
    committed = false;
    commit_interval.mark_unwound();
    FaultInjector::PauseGuard storm_pause;
    rollback(cpu, from, target, fault);
    dump_rollback_postmortem(from, target, fault);
  }
  const hw::Cycles elapsed = cpu.now() - t0;
  if (committed) {
    MERC_FLIGHT(cpu, kSwitchCommit, obs::interval_kind_info(commit_kind).name,
                static_cast<std::uint64_t>(from),
                static_cast<std::uint64_t>(target), elapsed);
  }
  if (!committed) {
    // Stay in `from`; the caller sees the request resolve without a mode
    // change and may re-request.
  } else if (from == ExecMode::kNative) {
    stats_.last_attach_cycles = elapsed;
    ++stats_.attaches;
    MERC_COUNT("switch.attaches");
    MERC_HIST("switch.attach.defer_cycles", stats_.last_defer_wait_cycles);
    MERC_HIST("switch.attach.rendezvous_cycles", rendezvous_cycles);
    MERC_HIST("switch.attach.transfer_cycles",
              stats_.last_transfer.page_info_cycles +
                  stats_.last_transfer.protection_cycles +
                  stats_.last_transfer.binding_cycles);
    MERC_HIST("switch.attach.fixup_cycles", stats_.last_transfer.fixup_cycles);
  } else if (mode_ == ExecMode::kNative) {
    stats_.last_detach_cycles = elapsed;
    ++stats_.detaches;
    MERC_COUNT("switch.detaches");
    MERC_HIST("switch.detach.defer_cycles", stats_.last_defer_wait_cycles);
    MERC_HIST("switch.detach.rendezvous_cycles", rendezvous_cycles);
    MERC_HIST("switch.detach.transfer_cycles",
              stats_.last_transfer.page_info_cycles +
                  stats_.last_transfer.protection_cycles +
                  stats_.last_transfer.binding_cycles);
    MERC_HIST("switch.detach.fixup_cycles", stats_.last_transfer.fixup_cycles);
  } else {
    // partial <-> full re-roles are neither attaches nor detaches.
    ++stats_.reroles;
    MERC_COUNT("switch.reroles");
  }
  pending_ = false;

  // §5.1.3: the handler returns to the *new* kernel privilege level — the
  // interrupt frame's saved CPL is patched before IRET. (The stepper's
  // between-tasks convention is ring 0; task dispatch re-derives the
  // correct ring from the active VO on every entry.)
  cpu.set_trap_return_cpl(mode_ == ExecMode::kNative ? hw::Ring::kRing0
                                                     : hw::Ring::kRing1);
  hw::Machine& m = kernel_.machine();
  for (std::size_t i = 0; i < m.num_cpus(); ++i)
    m.cpu(i).set_cpl(hw::Ring::kRing0);

  if (config_.paranoid_invariants) {
    // check_machine_invariants dumps an "invariant-failure" bundle itself
    // when it finds violations; the MERC_CHECK then aborts the simulation.
    const InvariantReport report = check_machine_invariants(*this);
    MERC_CHECK_MSG(report.ok(), report.to_string());
  }

  // Last: the hook observes the fully settled engine and may immediately
  // submit the next request (the supervisor's retry path).
  resolve(target,
          committed ? SwitchOutcome::kCommitted : SwitchOutcome::kRolledBack);
}

void SwitchEngine::cancel() {
  if (!pending_) return;
  pending_ = false;
  last_outcome_ = SwitchOutcome::kCancelled;
  ++stats_.cancels;
  MERC_COUNT("switch.cancels");
  MERC_FLIGHT(kernel_.machine().cpu(0), kSwitchCancel, "switch.cancel",
              static_cast<std::uint64_t>(mode_),
              static_cast<std::uint64_t>(pending_target_));
}

void SwitchEngine::dump_rollback_postmortem(ExecMode from, ExecMode target,
                                            const FaultInjected& fault) {
  obs::PostmortemContext ctx;
  ctx.reason = "fault-rollback";
  ctx.detail = std::string("mode switch ") + exec_mode_name(from) + " -> " +
               exec_mode_name(target) + " faulted at " +
               fault_site_name(fault.site) + " (" +
               fault_kind_name(fault.kind) + ") on cpu " +
               std::to_string(fault.cpu) + ", rolled back";
  ctx.switch_from = exec_mode_name(from);
  ctx.switch_target = exec_mode_name(target);
  ctx.has_fault = true;
  ctx.fault_site = fault_site_name(fault.site);
  ctx.fault_kind = fault_kind_name(fault.kind);
  ctx.fault_cpu = fault.cpu;
  ctx.active_refs = static_cast<std::int64_t>(current_vo().active_refs());
  hw::Machine& m = kernel_.machine();
  for (std::size_t i = 0; i < m.num_cpus(); ++i)
    ctx.cpu_clocks.emplace_back(m.cpu(i).id(), m.cpu(i).now());
  const vmm::PageInfoTable& pit = hv_.page_info();
  ctx.extra.emplace_back("page_info.shard_count", pit.shard_count());
  ctx.extra.emplace_back("page_info.rebuilt_total", pit.rebuilt_total());
  ctx.extra.emplace_back("page_info.typed_total", pit.typed_total());
  ctx.extra.emplace_back("switch.rollbacks", stats_.rollbacks);
  ctx.extra.emplace_back("switch.deferrals", stats_.deferrals);
  ctx.extra.emplace_back("fault.injected_total", fault_injector().injected());
  ctx.extra.emplace_back("pause.last_max_cycles",
                         stats_.last_max_pause_cycles);
  const obs::PauseLedger& pl = obs::pause_ledger();
  ctx.extra.emplace_back("pause.intervals", pl.intervals());
  ctx.extra.emplace_back("pause.worst_cycles",
                         pl.worst().valid ? pl.worst().span() : 0);
  obs::write_postmortem(ctx);
}

void SwitchEngine::rerole(hw::Cpu& cpu, ExecMode target) {
  // partial <-> full: re-role the virtual VO without detaching the VMM.
  const vmm::DomainId dom =
      (mode_ == ExecMode::kPartialVirtual ? driver_vo_ : guest_vo_).dom();
  VirtualVo& next = target == ExecMode::kPartialVirtual ? driver_vo_ : guest_vo_;
  next.bind(dom);
  if (target == ExecMode::kFullVirtual) {
    hv_.blk_backend().connect_frontend(dom);
    hv_.net_backend().connect_frontend(dom);
  } else {
    hv_.blk_backend().disconnect_frontend(cpu);
    hv_.net_backend().disconnect_frontend();
  }
  kernel_.set_ops(next);
  mode_ = target;
}

void SwitchEngine::reload_all_cpus(VirtObject& vo) {
  hw::Machine& m = kernel_.machine();
  for (std::size_t i = 0; i < m.num_cpus(); ++i) {
    fault_point(FaultSite::kReloadHwState, &m.cpu(i));
    vo.reload_hw_state(m.cpu(i), kernel_);
  }
}

bool SwitchEngine::warm_retention_enabled() const {
  // Eager tracking keeps the table *live* across detach; retention keeps it
  // *stale*. They are different contracts — eager wins when both are set.
  return config_.warm_reattach && !config_.eager_page_tracking;
}

void SwitchEngine::ensure_tracker() {
  if (dirty_tracker_) return;
  hw::PhysicalMemory& mem = kernel_.machine().memory();
  dirty_tracker_ = std::make_unique<DirtyFrameTracker>(
      mem.total_frames(), config_.warm_dirty_capacity);
  mem.set_dirty_sink(dirty_tracker_.get());
  kernel_.pool().set_dirty_sink(&dirty_tracker_->mapping_sink());
}

void SwitchEngine::begin_warm_retention() {
  ensure_tracker();
  dirty_tracker_->arm();
  // Frames still typed/protected at this detach (the page-table forest,
  // plus anything a guest left pinned) carry stale type/pin state in the
  // retained table. Fold them into the rebuild set up front so the next
  // warm rebuild re-canonicalizes them — O(#page tables), not O(memory).
  // The fold is accounting-only (note_mapping): the frames' bytes are
  // untouched, so a table that stays unwritten through the native window
  // keeps its pre-detach validation. The release's own unprotect flips are
  // real stores and land in the content set too (the tracker is armed
  // before the release runs), which is harmless: rebuilding or revalidating
  // a frame that ends up identical produces exactly the cold result.
  for (const hw::Pfn pfn : hv_.protected_frames_snapshot())
    dirty_tracker_->note_mapping(pfn);
}

std::optional<WarmSet> SwitchEngine::warm_dirty_set() {
  if (!warm_retention_enabled()) return std::nullopt;
  // First attach (or warm was toggled on while native): nothing recorded,
  // and that is not a fallback — there was never a window to track.
  if (!dirty_tracker_ || !dirty_tracker_->armed()) return std::nullopt;
  const char* fallback = nullptr;
  if (!hv_.page_info().retained())
    fallback = "retention-poisoned";
  else if (dirty_tracker_->overflowed())
    fallback = "tracker-overflow";
  if (fallback != nullptr) {
    ++stats_.warm_fallbacks;
    MERC_COUNT("switch.attach.warm_fallbacks");
    MERC_FLIGHT(kernel_.machine().cpu(0), kMarker,
                "switch.attach.warm_fallback", dirty_tracker_->dirty_count());
    util::log_info("mercury", "warm re-attach falling back to cold rebuild (",
                   fallback, ")");
    return std::nullopt;
  }
  WarmSet warm;
  warm.rebuild = dirty_tracker_->collect();
  warm.content = dirty_tracker_->collect_content();
  // Only kernel-owned frames are reconstructed: the reserved region is
  // re-canonicalized by init_reserved_page_info either way, and frames
  // outside both ranges are untouched garbage in cold and warm tables
  // alike (nothing ever initialized them). Same filter for the content set
  // — page tables are always kernel-owned frames.
  const hw::Pfn base = kernel_.base_pfn();
  const hw::Pfn end =
      base + static_cast<hw::Pfn>(kernel_.pool().owned_count());
  const auto outside = [&](const hw::Pfn p) { return p < base || p >= end; };
  std::erase_if(warm.rebuild, outside);
  std::erase_if(warm.content, outside);
  return warm;
}

void SwitchEngine::note_warm_attach(hw::Cpu& cpu, std::size_t dirty_frames) {
  ++stats_.warm_attaches;
  stats_.last_dirty_frames = dirty_frames;
  stats_.last_frames_retained = kernel_.pool().owned_count() - dirty_frames;
  MERC_COUNT("switch.attach.warm_attaches_total");
  MERC_GAUGE_SET("switch.attach.dirty_frames",
                 static_cast<double>(dirty_frames));
  MERC_GAUGE_SET("vmm.page_info.frames_retained",
                 static_cast<double>(stats_.last_frames_retained));
  MERC_FLIGHT(cpu, kMarker, "switch.attach.warm", dirty_frames,
              stats_.last_frames_retained);
}

void SwitchEngine::set_warm_reattach(bool on) {
  config_.warm_reattach = on;
  // Disabling mid-window disarms the tracker: a partially observed native
  // window must never feed a warm rebuild. Re-enabling does not re-arm —
  // the next attach goes cold, and the detach after it starts a fresh
  // (fully observed) window.
  if (!on && dirty_tracker_) dirty_tracker_->disarm();
}

void SwitchEngine::attach(hw::Cpu& cpu, SwitchCrew& crew, ExecMode target) {
  VirtualVo& vo = target == ExecMode::kPartialVirtual ? driver_vo_ : guest_vo_;
  TransferStats transfer;
  const std::optional<WarmSet> warm = warm_dirty_set();
  if (warm) note_warm_attach(cpu, warm->rebuild.size());

  hw::Cycles t0 = cpu.now();
  {
    const obs::Interval phase(cpu, obs::IntervalKind::kPageInfoRebuild);
    const vmm::DomainId dom = hv_.begin_adopt(kernel_);
    if (warm) {
      // Warm re-attach, sharded: only the dirty set is reconstructed; the
      // rest of the retained table carries over untouched.
      MERC_CHECK_MSG(hv_.page_info().retained(),
                     "warm crew attach without a retained page-info table");
      hv_.init_reserved_page_info();
      const std::span<const hw::Pfn> dirty(warm->rebuild);
      crew.run_phase("switch.crew.dirty_rebuild", dirty.size(),
                     [&](hw::Cpu& w, std::size_t b, std::size_t e) {
                       hv_.adopt_dirty_rebuild_shard(w, dom,
                                                     dirty.subspan(b, e - b));
                     });
      MERC_COUNT_N("vmm.page_info.frames_reconstructed", dirty.size());
    } else if (!config_.eager_page_tracking) {
      // The paper's dominant attach cost, sharded across the parked CPUs:
      // each shard rebuilds owner/type/count for a disjoint frame range.
      hv_.init_reserved_page_info();
      const std::vector<hw::Pfn>& frames = kernel_.pool().owned();
      const std::span<const hw::Pfn> all(frames);
      crew.run_phase("switch.crew.rebuild", frames.size(),
                     [&](hw::Cpu& w, std::size_t b, std::size_t e) {
                       hv_.adopt_rebuild_shard(w, dom, all.subspan(b, e - b));
                     });
      MERC_COUNT_N("vmm.page_info.frames_reconstructed", frames.size());
    } else {
      MERC_CHECK_MSG(hv_.page_info().valid(),
                     "eager attach without a primed page-info table");
      crew.run_phase("switch.crew.sweep", kernel_.pool().owned_count(),
                     [&](hw::Cpu& w, std::size_t b, std::size_t e) {
                       hv_.adopt_trusted_sweep_shard(w, e - b);
                     });
    }

    // Type-and-protect, then validation. Protection of *every* table must
    // precede validation of *any* L1 ("no writable mapping of a PT frame"),
    // and all L1 typing must precede L2 validation — hence three phases
    // with crew joins between them, not one. On the warm path protection
    // still covers every table (it also re-canonicalizes the type/pin
    // fields the dirty rebuild reset), but only content-dirty tables are
    // revalidated: PTE writes while attached are trapped and checked
    // inline, and any write while detached — kernel PTE update, MMU A/D
    // write-back, or tampering — lands the frame in the content set, so an
    // unwritten table still holds the entries verified before the detach.
    const auto tables = hv_.collect_tables(kernel_);
    std::vector<std::pair<hw::Pfn, vmm::PageType>> l1s, l2s;
    for (const auto& t : tables) {
      if (warm && !std::binary_search(warm->content.begin(),
                                      warm->content.end(), t.first))
        continue;
      (t.second == vmm::PageType::kL1 ? l1s : l2s).push_back(t);
    }
    if (warm) {
      MERC_COUNT_N("vmm.page_info.tables_revalidated", l1s.size() + l2s.size());
      MERC_COUNT_N("vmm.page_info.table_validations_skipped",
                   tables.size() - l1s.size() - l2s.size());
    }
    const std::span<const std::pair<hw::Pfn, vmm::PageType>> all_tables(tables);
    const std::span<const std::pair<hw::Pfn, vmm::PageType>> l1_span(l1s);
    const std::span<const std::pair<hw::Pfn, vmm::PageType>> l2_span(l2s);
    crew.run_phase("switch.crew.protect", tables.size(),
                   [&](hw::Cpu& w, std::size_t b, std::size_t e) {
                     hv_.adopt_protect_shard(w, dom, kernel_,
                                             all_tables.subspan(b, e - b));
                   });
    // The phase join is the batch boundary: one shootdown makes every
    // shard's flips globally effective before validation checks them.
    if (!tables.empty()) hv_.tlb_shootdown_all(cpu);
    crew.run_phase("switch.crew.validate_l1", l1s.size(),
                   [&](hw::Cpu& w, std::size_t b, std::size_t e) {
                     hv_.adopt_validate_shard(w, dom, l1_span.subspan(b, e - b),
                                              vmm::PageType::kL1);
                   });
    crew.run_phase("switch.crew.validate_l2", l2s.size(),
                   [&](hw::Cpu& w, std::size_t b, std::size_t e) {
                     hv_.adopt_validate_shard(w, dom, l2_span.subspan(b, e - b),
                                              vmm::PageType::kL2);
                   });
    hv_.finish_adopt(dom, kernel_);
    vo.bind(dom);
  }
  transfer.page_info_cycles = cpu.now() - t0;

  if (config_.eager_selector_fixup)
    transfer.fixup_cycles = eager_fixup(cpu, crew, hw::Ring::kRing1);

  t0 = cpu.now();
  {
    fault_point(FaultSite::kTransferBindings, &cpu);
    const obs::Interval phase(cpu, obs::IntervalKind::kRebindTraps);
    vo.state_transfer_in(cpu, kernel_);  // CP-only: one IDT/GDT rebind
  }
  transfer.binding_cycles = cpu.now() - t0;
  stats_.last_transfer = transfer;

  if (target == ExecMode::kFullVirtual) {
    hv_.blk_backend().connect_frontend(vo.dom());
    hv_.net_backend().connect_frontend(vo.dom());
  }
  const obs::Interval reload(cpu, obs::IntervalKind::kReloadHwState);
  reload_all_cpus(vo);
  kernel_.set_ops(vo);
  mode_ = target;
  // The attach succeeded (warm or cold): the table is fresh, the tracked
  // window is consumed. A fault above unwinds past this point, leaving the
  // tracker armed so a supervised retry can still go warm.
  if (dirty_tracker_) dirty_tracker_->disarm();
}

hw::Cycles SwitchEngine::eager_fixup(hw::Cpu& cpu, SwitchCrew& crew,
                                     hw::Ring target) {
  const hw::Cycles t0 = cpu.now();
  const obs::Interval phase(cpu, obs::IntervalKind::kEagerFixup);
  std::vector<kernel::Task*> tasks;
  kernel_.for_each_task([&](kernel::Task& t) { tasks.push_back(&t); });
  const std::span<kernel::Task* const> all_tasks(tasks);
  FixupStats fs;
  crew.run_phase("switch.crew.fixup", tasks.size(),
                 [&](hw::Cpu& w, std::size_t b, std::size_t e) {
                   fix_saved_contexts_range(w, all_tasks.subspan(b, e - b),
                                            target, fs);
                 });
  MERC_COUNT_N("fixup.tasks_scanned", fs.tasks_scanned);
  MERC_COUNT_N("fixup.selectors_fixed", fs.selectors_fixed);
  return cpu.now() - t0;
}

void SwitchEngine::detach(hw::Cpu& cpu, SwitchCrew& crew) {
  VirtualVo& vo = mode_ == ExecMode::kPartialVirtual ? driver_vo_ : guest_vo_;
  if (mode_ == ExecMode::kFullVirtual) {
    hv_.blk_backend().disconnect_frontend(cpu);
    hv_.net_backend().disconnect_frontend();
  }
  MERC_CHECK_MSG(vo.dom() != vmm::kDomInvalid,
                 "detach without an adopted domain");
  TransferStats transfer;
  // Arm before the unprotect shards run: the typed-at-detach fold must see
  // the protected set intact, and the unprotect PTE writes themselves must
  // land in the dirty window.
  const bool retain = warm_retention_enabled();
  if (retain) begin_warm_retention();

  hw::Cycles t0 = cpu.now();
  {
    const obs::Interval phase(cpu, obs::IntervalKind::kUnprotectTables);
    hv_.begin_release(vo.dom());
    const std::vector<hw::Pfn> frames = hv_.protected_frames_snapshot();
    const std::span<const hw::Pfn> all(frames);
    crew.run_phase("switch.crew.unprotect", frames.size(),
                   [&](hw::Cpu& w, std::size_t b, std::size_t e) {
                     hv_.release_unprotect_shard(w, kernel_,
                                                 all.subspan(b, e - b));
                   });
    if (!frames.empty()) hv_.tlb_shootdown_all(cpu);
    hv_.finish_release(retain);
  }
  transfer.protection_cycles = cpu.now() - t0;

  if (config_.eager_selector_fixup)
    transfer.fixup_cycles = eager_fixup(cpu, crew, hw::Ring::kRing0);

  t0 = cpu.now();
  {
    fault_point(FaultSite::kTransferBindings, &cpu);
    const obs::Interval phase(cpu, obs::IntervalKind::kRebindTraps);
    // Interrupt bindings return to the kernel: it becomes the trap owner.
    kernel_.machine().install_trap_sink(&kernel_);
  }
  transfer.binding_cycles = cpu.now() - t0;
  stats_.last_transfer = transfer;

  if (config_.eager_page_tracking) {
    // The eager tracker keeps maintaining the table through native mode, so
    // it stays authoritative across the detach (§5.1.2 alternative 1).
    hv_.page_info().set_valid(true);
  }
  const obs::Interval reload(cpu, obs::IntervalKind::kReloadHwState);
  reload_all_cpus(native_vo_);
  kernel_.set_ops(native_vo_);
  mode_ = ExecMode::kNative;
}

void SwitchEngine::rollback(hw::Cpu& cpu, ExecMode from, ExecMode target,
                            const FaultInjected& fault) {
  ++stats_.rollbacks;
  MERC_COUNT("switch.rollbacks");
  // The whole unwind runs serially on the CP with the machine unavailable
  // to guest work: a rollback-unwind stop of its own, so rollback storms
  // show up in the pause tail, not just the mean.
  const obs::Interval unwind(cpu, obs::IntervalKind::kSwitchRollback);
  MERC_PROF_SCOPE("switch.rollback", &cpu);
  MERC_FLIGHT(cpu, kSwitchRollback, "switch.rollback",
              static_cast<std::uint64_t>(from),
              static_cast<std::uint64_t>(target),
              static_cast<std::uint64_t>(fault.site));
  // Each named unwind step lands in the flight ring with an ordinal, so the
  // postmortem tail shows how far the rollback got if *it* dies too.
  std::uint64_t step = 0;
  const auto flight_step = [&](const char* name) {
    ++step;
    MERC_FLIGHT(cpu, kRollbackStep, name, step);
#if !MERCURY_OBS_ENABLED
    (void)name;
#endif
  };
  util::log_warn("mercury",
                 std::string("mode switch ") + exec_mode_name(from) + " -> " +
                     exec_mode_name(target) + " faulted at " +
                     fault_site_name(fault.site) + " (" +
                     fault_kind_name(fault.kind) + "), rolling back");

  // The injector disarmed before throwing, so re-traversing fault sites
  // below cannot re-fire. Every site is pre-commit: mode_ still names the
  // state the machine must return to.
  if (from == ExecMode::kNative) {
    // Aborted attach. The full-virtual frontends connect before the hardware
    // reload, so a late fault may leave them attached.
    flight_step("rollback.disconnect_frontends");
    if (hv_.blk_backend().connected()) hv_.blk_backend().disconnect_frontend(cpu);
    if (hv_.net_backend().connected()) hv_.net_backend().disconnect_frontend();
    // Undo however much of the adoption applied: writability, accounting
    // (kept authoritative under eager tracking), trap ownership, dormancy.
    flight_step("rollback.adopt_unwind");
    hv_.rollback_adopt(cpu, kernel_, config_.eager_page_tracking);
    // The eager walk may already have moved saved selectors to ring 1.
    if (config_.eager_selector_fixup) {
      flight_step("rollback.selector_fixup");
      fix_all_saved_contexts(cpu, kernel_, hw::Ring::kRing0);
    }
    flight_step("rollback.reload_native");
    reload_all_cpus(native_vo_);
    kernel_.set_ops(native_vo_);
  } else if (target == ExecMode::kNative) {
    // Aborted detach: restore the fully attached state. The machine stays
    // virtual, so the retention window opened at the top of the detach is
    // void — the table will be live again (reprotect) or rebuilt from
    // scratch (re-adopt), never warm-reconstructed.
    if (dirty_tracker_) dirty_tracker_->disarm();
    VirtualVo& vo = from == ExecMode::kPartialVirtual ? driver_vo_ : guest_vo_;
    if (hv_.state() == vmm::Hypervisor::State::kActive) {
      // The release never completed — re-protect the unwound tables and
      // re-take the traps in place.
      flight_step("rollback.reprotect_os");
      hv_.reprotect_os(cpu, vo.dom(), kernel_);
    } else {
      // The release committed before the fault (it hit a later phase): the
      // accounting was dropped O(1), so restoring virtual mode pays a full
      // re-adoption — the price asymmetry of the cheap detach (§7.4).
      flight_step("rollback.readopt_os");
      if (config_.eager_page_tracking) hv_.page_info().set_valid(true);
      const vmm::DomainId dom =
          hv_.adopt_running_os(cpu, kernel_, config_.eager_page_tracking);
      vo.bind(dom);
    }
    if (config_.eager_selector_fixup) {
      flight_step("rollback.selector_fixup");
      fix_all_saved_contexts(cpu, kernel_, hw::Ring::kRing1);
    }
    flight_step("rollback.rebind_traps");
    vo.state_transfer_in(cpu, kernel_);  // re-publish guest trap/GDT tokens
    // A rendezvous fault aborts before detach() dropped the frontends, so
    // they may still be attached — reconnecting would leak event channels.
    if (from == ExecMode::kFullVirtual) {
      flight_step("rollback.reconnect_frontends");
      if (!hv_.blk_backend().connected())
        hv_.blk_backend().connect_frontend(vo.dom());
      if (!hv_.net_backend().connected())
        hv_.net_backend().connect_frontend(vo.dom());
    }
    flight_step("rollback.reload_virtual");
    reload_all_cpus(vo);
    kernel_.set_ops(vo);
  } else {
    // partial <-> full re-role: the only reachable site (the rendezvous)
    // precedes any mutation — nothing to unwind.
  }
}

bool SwitchEngine::switch_now(ExecMode target, hw::Cycles budget) {
  request(target);
  const bool ok = kernel_.run_until(
      [&] { return mode_ == target && !pending_; }, budget);
  // Budget exhausted: revoke the request. Without this the deferral timer
  // stays armed and the "failed" switch could still commit later, behind
  // the back of a caller that was told it did not happen.
  if (!ok) cancel();
  return ok;
}

}  // namespace mercury::core
