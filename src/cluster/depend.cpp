#include "cluster/depend.hpp"

#include <cstdio>
#include <sstream>

#include "core/fault_inject.hpp"
#include "core/invariants.hpp"
#include "obs/postmortem.hpp"
#include "util/log.hpp"
#include "vmm/checkpoint.hpp"

namespace mercury::cluster {

using core::ExecMode;

namespace {

/// Budget driving each supervised switch to resolution.
constexpr hw::Cycles kSwitchBudget = 2000 * hw::kCyclesPerMillisecond;
/// Guest execution between checkpoint and restore (the divergence the
/// restore must undo), and on the migration destination (the service the
/// migrated OS renders before coming home).
constexpr hw::Cycles kServiceRun = 10 * hw::kCyclesPerMillisecond;

/// The service-step retry ladder. `step` returns true on success and may
/// throw core::FaultInjected (an injected service fault aborts the step
/// mid-flight; the step's own unwind has already restored a retryable
/// state). Returns false when `step` reports a hard failure or the attempt
/// budget runs out — the caller escalates to rollback + quarantine.
template <typename Step>
bool run_service_step(ArcReport& r, const DependConfig& cfg, const char* label,
                      Step&& step, core::FaultInjected* last) {
  for (std::uint32_t a = 1; a <= cfg.service_max_attempts; ++a) {
    ++r.attempts;
    if (a > 1) ++r.retries;
    // One service attempt = one fault window, mirroring the engine's
    // per-commit windows: a storm rolls fresh trials for every retry.
    core::fault_injector().begin_window();
    try {
      if (!step()) return false;  // hard failure — retry cannot help
      return true;
    } catch (const core::FaultInjected& f) {
      ++r.faults;
      *last = f;
      util::log_warn("depend", label, " attempt ", a, " faulted at ",
                     core::fault_site_name(f.site));
    }
  }
  return false;
}

/// Declare the service cleanly abandoned: postmortem bundle + quarantine
/// flag. The machine state at this point is consistent (the caller rolled
/// back or left a still-serving configuration first).
void quarantine(ArcReport& r, Node& node, const char* why,
                const core::FaultInjected* last) {
  r.quarantined = true;
  obs::PostmortemContext ctx;
  ctx.reason = "service-quarantine";
  ctx.detail = r.service + ": " + why + " (after " +
               std::to_string(r.attempts) + " service attempts)";
  ctx.switch_from = core::exec_mode_name(node.mercury().engine().mode());
  ctx.switch_target = core::exec_mode_name(ExecMode::kNative);
  if (last != nullptr && r.faults > 0) {
    ctx.has_fault = true;
    ctx.fault_site = core::fault_site_name(last->site);
    ctx.fault_kind = core::fault_kind_name(last->kind);
    ctx.fault_cpu = last->cpu;
  }
  for (std::size_t c = 0; c < node.machine().num_cpus(); ++c)
    ctx.cpu_clocks.emplace_back(static_cast<std::uint32_t>(c),
                                node.machine().cpu(c).now());
  ctx.extra.emplace_back("depend.service_attempts", r.attempts);
  ctx.extra.emplace_back("depend.service_faults", r.faults);
  r.postmortem_path = obs::write_postmortem(ctx);
  util::log_warn("depend", r.service, " quarantined: ", why);
}

void fold_supervisor(ArcReport& r, const core::SwitchSupervisor& sup) {
  r.switch_attempts += sup.stats().attempts;
  r.switch_retries += sup.stats().retries;
  for (const core::SupervisedRequest& req : sup.requests())
    if (!core::request_state_terminal(req.state)) ++r.stranded_requests;
}

void fold_invariants(ArcReport& r, core::SwitchEngine& engine, bool enabled) {
  if (!enabled) return;
  const core::InvariantReport rep = core::check_machine_invariants(engine);
  if (!rep.ok())
    util::log_warn("depend", r.service, " invariants: ", rep.to_string());
  r.invariant_violations += rep.violations.size();
}

void fold_pauses(ArcReport& r) {
  const obs::PauseLedger& ledger = r.pauses;
  r.pause_intervals = ledger.intervals();
  r.pause_unattributed = ledger.unattributed();
  r.pause_rendezvous_cycles = ledger.total(obs::PauseCause::kRendezvousParked);
  r.pause_stopcopy_cycles = ledger.total(obs::PauseCause::kMigrateStopCopy);
  r.pause_checkpoint_cycles = ledger.total(obs::PauseCause::kCheckpointCopy);
  r.pause_backoff_cycles =
      ledger.total(obs::PauseCause::kSupervisorRetryBackoff);
  r.pause_rollback_cycles = ledger.total(obs::PauseCause::kRollbackUnwind);
}

}  // namespace

ArcReport live_update_arc(Node& node, const KernelPatch& patch,
                          const DependConfig& cfg) {
  ArcReport r;
  r.service = "live-update";
  {
    obs::PauseLedgerScope scope(r.pauses);
    core::Mercury& m = node.mercury();
    core::SwitchSupervisor sup(m.engine(), cfg.supervisor);
    hw::Cpu& cpu = node.machine().cpu(0);
    const hw::Cycles t0 = cpu.now();
    core::FaultInjected last{};

    if (!sup.switch_now(ExecMode::kPartialVirtual, kSwitchBudget)) {
      quarantine(r, node, "attach never committed", &last);
    } else {
      r.attach_cycles = m.engine().stats().last_attach_cycles;
      const hw::Cycles s0 = cpu.now();
      const bool ok = run_service_step(
          r, cfg, "live-update.patch",
          [&] {
            cpu.charge(patch.patch_work);
            patch.apply_fn(m.kernel());
            return true;
          },
          &last);
      r.service_cycles = cpu.now() - s0;
      if (ok) {
        r.success = true;
        r.verified = true;
      } else {
        quarantine(r, node, "patch window kept faulting", &last);
      }
      // Native speed is the standing promise: come home even after a
      // quarantined service.
      if (sup.switch_now(ExecMode::kNative, kSwitchBudget)) {
        r.detach_cycles = m.engine().stats().last_detach_cycles;
      } else {
        r.success = false;
        if (!r.quarantined)
          quarantine(r, node, "detach never committed", &last);
      }
    }
    r.window_cycles = cpu.now() - t0;
    fold_supervisor(r, sup);
    fold_invariants(r, m.engine(), cfg.check_invariants);
  }
  fold_pauses(r);
  // The update's guest-frozen time is the rendezvous parking around the
  // quiesced patch window.
  r.downtime_cycles = r.pause_rendezvous_cycles;
  return r;
}

ArcReport self_heal_arc(Node& node, const DependConfig& cfg) {
  ArcReport r;
  r.service = "self-heal";
  {
    obs::PauseLedgerScope scope(r.pauses);
    core::Mercury& m = node.mercury();
    core::SwitchSupervisor sup(m.engine(), cfg.supervisor);
    vmm::Hypervisor& hv = m.hypervisor();
    hw::Cpu& cpu = node.machine().cpu(0);
    const hw::Cycles t0 = cpu.now();
    const std::uint64_t crashed_before = hv.stats().domains_crashed;
    core::FaultInjected last{};

    // The attach validates every page table; in heal mode validation
    // repairs a tainted entry instead of crashing the domain (§6.2: the
    // VMM "repairs the tainted state").
    hv.set_heal_mode(true);
    const bool attached =
        sup.switch_now(ExecMode::kPartialVirtual, kSwitchBudget);
    hv.set_heal_mode(false);
    if (!attached) {
      quarantine(r, node, "attach never committed", &last);
    } else {
      // The heal-mode attach is the service: its validation pass did the
      // repair.
      r.attempts = 1;
      r.attach_cycles = m.engine().stats().last_attach_cycles;
      r.verified = hv.stats().domains_crashed == crashed_before;
      r.success = r.verified;
      if (!r.verified) quarantine(r, node, "a domain crashed", &last);
      if (sup.switch_now(ExecMode::kNative, kSwitchBudget)) {
        r.detach_cycles = m.engine().stats().last_detach_cycles;
      } else {
        r.success = false;
        if (!r.quarantined)
          quarantine(r, node, "detach never committed", &last);
      }
    }
    r.window_cycles = cpu.now() - t0;
    fold_supervisor(r, sup);
    fold_invariants(r, m.engine(), cfg.check_invariants);
  }
  fold_pauses(r);
  r.downtime_cycles = r.pause_rendezvous_cycles;
  return r;
}

bool inject_pte_corruption(core::Mercury& mercury, kernel::Pid pid) {
  kernel::Kernel& k = mercury.kernel();
  kernel::Task* t = k.find_task(pid);
  if (t == nullptr || !t->aspace) return false;
  vmm::Hypervisor& hv = mercury.hypervisor();

  for (const auto& vma : t->aspace->vmas()) {
    for (hw::VirtAddr va = vma.start; va < vma.end; va += hw::kPageSize) {
      const hw::Pfn l1 = t->aspace->l1_for_pde(hw::pde_index(va));
      if (l1 == 0) continue;
      const hw::PhysAddr pte_addr = hw::addr_of(l1) + hw::pte_index(va) * 4;
      hw::Pte pte{k.machine().memory().read_u32(pte_addr)};
      if (!pte.present()) continue;
      // Taint: point the mapping at a hypervisor-owned frame (a fault/bug
      // scribbled over the page table).
      pte.set_pfn(hv.reserved_first());
      k.machine().memory().write_u32(pte_addr, pte.raw);
      for (std::size_t c = 0; c < k.machine().num_cpus(); ++c)
        k.machine().cpu(c).tlb().flush_global();
      return true;
    }
  }
  return false;
}

ArcReport checkpoint_restart_arc(Node& node, const DependConfig& cfg) {
  ArcReport r;
  r.service = "checkpoint-restart";
  {
    obs::PauseLedgerScope scope(r.pauses);
    core::Mercury& m = node.mercury();
    core::SwitchSupervisor sup(m.engine(), cfg.supervisor);
    hw::Cpu& cpu = node.machine().cpu(0);
    const hw::Cycles t0 = cpu.now();
    core::FaultInjected last{};

    if (!sup.switch_now(ExecMode::kPartialVirtual, kSwitchBudget)) {
      quarantine(r, node, "attach never committed", &last);
    } else {
      r.attach_cycles = m.engine().stats().last_attach_cycles;
      const hw::Cycles s0 = cpu.now();
      const vmm::DomainId dom = m.driver_vo().dom();
      vmm::Snapshot snap;
      bool ok = run_service_step(
          r, cfg, "checkpoint.capture",
          [&] {
            // A capture fault discards the partial (caller-local) image;
            // the domain was only read, so retry is trivially safe.
            snap = vmm::Checkpointer::take(cpu, m.hypervisor(), dom);
            return true;
          },
          &last);
      if (!ok) {
        quarantine(r, node, "capture kept faulting", &last);
      } else {
        // Diverge: the OS keeps executing under the attached VMM. The
        // restore below must make all of this unhappen, bit-exactly.
        m.kernel().run_for(kServiceRun);

        // The undo image, taken fault-free immediately before the first
        // restore attempt: rollback must never itself be faultable.
        vmm::Snapshot undo;
        {
          core::FaultInjector::PauseGuard pg;
          undo = vmm::Checkpointer::take(cpu, m.hypervisor(), dom);
        }
        ok = run_service_step(
            r, cfg, "restore.apply",
            [&] {
              vmm::Checkpointer::restore(cpu, m.hypervisor(), snap);
              return true;
            },
            &last);
        if (ok) {
          r.verified = vmm::Checkpointer::matches(m.hypervisor(), snap);
          r.success = r.verified;
          if (!r.verified)
            quarantine(r, node, "restored image failed bit-exact verify",
                       &last);
        } else {
          // Retry budget exhausted mid-write-back. Never leave the
          // half-restored machine: re-apply the undo image under a fault
          // pause, returning to the exact pre-restore state.
          {
            core::FaultInjector::PauseGuard pg;
            vmm::Checkpointer::restore(cpu, m.hypervisor(), undo);
          }
          r.rolled_back = true;
          r.verified = vmm::Checkpointer::matches(m.hypervisor(), undo);
          quarantine(r, node,
                     "restore kept faulting; rolled back to the undo image",
                     &last);
        }
        // The invariant checker runs on the restored (or rolled-back)
        // target, while the VMM is still attached and watching.
        fold_invariants(r, m.engine(), cfg.check_invariants);
      }
      r.service_cycles = cpu.now() - s0;
      if (sup.switch_now(ExecMode::kNative, kSwitchBudget)) {
        r.detach_cycles = m.engine().stats().last_detach_cycles;
      } else {
        r.success = false;
        if (!r.quarantined)
          quarantine(r, node, "detach never committed", &last);
      }
    }
    r.window_cycles = cpu.now() - t0;
    fold_supervisor(r, sup);
  }
  fold_pauses(r);
  r.downtime_cycles = r.pause_checkpoint_cycles;
  return r;
}

namespace {

/// One migration leg: move the OS running on `from` to `to` under the
/// service retry ladder. A mid-stream fault unwinds inside LiveMigration
/// (destination reservation dropped, source untouched and running), so each
/// retry restarts from a clean source. On success the OS is rebound to
/// `to`'s guest VO and the two nodes swap active kernels, which is the
/// whole difference between an outbound and a homeward leg.
bool migrate_leg(ArcReport& r, const DependConfig& cfg, const char* label,
                 Node& from, Node& to, core::FaultInjected* last) {
  core::Mercury& fm = from.mercury();
  core::Mercury& tm = to.mercury();
  vmm::MigrationStats stats;
  const bool ok = run_service_step(
      r, cfg, label,
      [&] {
        stats = vmm::LiveMigration::run(fm.hypervisor(), fm.guest_vo().dom(),
                                        tm.hypervisor(), cfg.migration);
        return stats.success;
      },
      last);
  if (!ok) return false;
  r.pages_sent += stats.pages_sent;
  r.pages_total += stats.pages_total;
  r.precopy_rounds += stats.rounds;
  r.downtime_cycles += stats.downtime_cycles;
  kernel::Kernel& os = from.active();
  tm.guest_vo().bind(stats.new_domain);
  os.set_ops(tm.guest_vo());
  from.set_active(&to.active());
  to.set_active(&os);
  return true;
}

/// The migrate arc, or with `round_trip` false its outbound leg alone (the
/// evacuate arc).
ArcReport migration_arc(Node& src, Node& dst, const DependConfig& cfg,
                        bool round_trip,
                        const std::function<void(hw::Machine&)>& maintenance) {
  ArcReport r;
  r.service = round_trip ? "migrate" : "evacuate";
  {
    obs::PauseLedgerScope scope(r.pauses);
    core::Mercury& sm = src.mercury();
    core::Mercury& dm = dst.mercury();
    core::SupervisorConfig dcfg = cfg.supervisor;
    dcfg.seed = cfg.supervisor.seed * 0x9E3779B97F4A7C15ull + 1;  // own jitter
    core::SwitchSupervisor ssup(sm.engine(), cfg.supervisor);
    core::SwitchSupervisor dsup(dm.engine(), dcfg);
    const hw::Cycles t0 = src.machine().max_cpu_time();
    core::FaultInjected last{};
    // When the OS ends the arc away from home (evacuated, or homeward leg
    // abandoned), the layout is legitimate: skip the native-mode invariant
    // sweep that assumes every kernel is back on its own machine.
    bool guest_home = true;

    // Receiver first: partial-virtual, so its driver domain hosts the
    // split-I/O backends the migrated frontends reconnect to (§5.2).
    if (!dsup.switch_now(ExecMode::kPartialVirtual, kSwitchBudget)) {
      quarantine(r, dst, "receiver attach never committed", &last);
    } else if (!ssup.switch_now(ExecMode::kFullVirtual, kSwitchBudget)) {
      quarantine(r, src, "source attach never committed", &last);
      dsup.switch_now(ExecMode::kNative, kSwitchBudget);
    } else {
      r.attach_cycles = sm.engine().stats().last_attach_cycles;
      const hw::Cycles s0 = src.machine().max_cpu_time();
      if (!migrate_leg(r, cfg, "migrate.out", src, dst, &last)) {
        // Every attempt rolled the source back; both nodes come home.
        r.rolled_back = true;
        r.service_cycles = src.machine().max_cpu_time() - s0;
        ssup.switch_now(ExecMode::kNative, kSwitchBudget);
        dsup.switch_now(ExecMode::kNative, kSwitchBudget);
        quarantine(r, src,
                   "outbound migration kept failing; source rolled back",
                   &last);
      } else if (!round_trip) {
        // Evacuated: the OS now runs on the receiver's machine.
        guest_home = false;
        r.service_cycles = src.machine().max_cpu_time() - s0;
        r.verified = &sm.kernel().machine() == &dst.machine();
        r.success = r.verified;
        if (!r.verified)
          quarantine(r, dst, "evacuated OS is not on the receiver", &last);
      } else {
        // §6.3: the hardware work happens on the emptied source.
        if (maintenance) maintenance(src.machine());
        // Service phase: the OS runs on the receiver, frontends already
        // reconnected by the migration's activation step.
        sm.kernel().run_for(kServiceRun);

        const bool home = migrate_leg(r, cfg, "migrate.back", dst, src, &last);
        r.service_cycles = src.machine().max_cpu_time() - s0;
        if (!home) {
          // The OS stays on the receiver: consistent and serving, but the
          // arc could not bring it home. Clean quarantine; modes stay as
          // they are (the receiver keeps hosting).
          guest_home = false;
          quarantine(r, dst,
                     "homeward migration kept failing; OS remains on the "
                     "receiver",
                     &last);
        } else {
          const bool sn = ssup.switch_now(ExecMode::kNative, kSwitchBudget);
          const bool dn = dsup.switch_now(ExecMode::kNative, kSwitchBudget);
          if (sn) r.detach_cycles = sm.engine().stats().last_detach_cycles;
          if (sn && dn) {
            r.verified = !src.hosts_foreign_guest() &&
                         !dst.hosts_foreign_guest() &&
                         sm.mode() == ExecMode::kNative &&
                         dm.mode() == ExecMode::kNative;
            r.success = r.verified;
            if (!r.verified)
              quarantine(r, src, "round trip left a node mis-homed", &last);
          } else {
            quarantine(r, src, "post-service detach never committed", &last);
          }
        }
      }
    }
    r.window_cycles = src.machine().max_cpu_time() - t0;
    fold_supervisor(r, ssup);
    fold_supervisor(r, dsup);
    if (guest_home) {
      fold_invariants(r, sm.engine(), cfg.check_invariants);
      fold_invariants(r, dm.engine(), cfg.check_invariants);
    }
  }
  fold_pauses(r);
  return r;
}

}  // namespace

ArcReport migrate_arc(Node& src, Node& dst, const DependConfig& cfg,
                      const std::function<void(hw::Machine&)>& maintenance) {
  return migration_arc(src, dst, cfg, true, maintenance);
}

ArcReport evacuate_arc(Node& src, Node& dst, const DependConfig& cfg) {
  return migration_arc(src, dst, cfg, false, {});
}

std::vector<std::string> ArcReport::gate_failures() const {
  std::vector<std::string> out;
  const auto gate = [&out](bool failed, const char* why) {
    if (failed) out.push_back(why);
  };
  gate(!success && !quarantined, "neither succeeded nor quarantined");
  gate(success && quarantined, "both succeeded and quarantined");
  gate(quarantined && postmortem_path.empty(),
       "quarantined without a postmortem");
  gate(stranded_requests != 0, "stranded a supervised request");
  gate(invariant_violations != 0, "broke a machine invariant");
  gate(success && attempts == 0, "succeeded with zero service attempts");
  gate(window_cycles == 0, "empty dependability window");
  gate(downtime_cycles > window_cycles, "downtime exceeds its window");
  gate(pages_sent < pages_total, "sent fewer pages than the domain holds");
  return out;
}

std::vector<std::string> DependReport::gate_failures() const {
  std::vector<std::string> out;
  if (arcs.empty()) out.push_back("no arc ran");
  for (const ArcReport& a : arcs) {
    for (const std::string& why : a.gate_failures())
      out.push_back(a.service + ": " + why);
    if (storm_rate == 0.0 && !a.success)
      out.push_back(a.service + ": a clean run did not land the service");
  }
  return out;
}

namespace {

void arc_json(std::ostringstream& os, const ArcReport& a) {
  const auto b = [](bool v) { return v ? "true" : "false"; };
  os << "    {\n"
     << "      \"service\": \"" << a.service << "\",\n"
     << "      \"success\": " << b(a.success) << ",\n"
     << "      \"quarantined\": " << b(a.quarantined) << ",\n"
     << "      \"rolled_back\": " << b(a.rolled_back) << ",\n"
     << "      \"verified\": " << b(a.verified) << ",\n"
     << "      \"postmortem_written\": " << b(!a.postmortem_path.empty())
     << ",\n"
     << "      \"attempts\": " << a.attempts << ",\n"
     << "      \"retries\": " << a.retries << ",\n"
     << "      \"faults\": " << a.faults << ",\n"
     << "      \"switch_attempts\": " << a.switch_attempts << ",\n"
     << "      \"switch_retries\": " << a.switch_retries << ",\n"
     << "      \"stranded_requests\": " << a.stranded_requests << ",\n"
     << "      \"invariant_violations\": " << a.invariant_violations << ",\n"
     << "      \"window_cycles\": " << a.window_cycles << ",\n"
     << "      \"attach_cycles\": " << a.attach_cycles << ",\n"
     << "      \"service_cycles\": " << a.service_cycles << ",\n"
     << "      \"detach_cycles\": " << a.detach_cycles << ",\n"
     << "      \"downtime_cycles\": " << a.downtime_cycles << ",\n"
     << "      \"pages_sent\": " << a.pages_sent << ",\n"
     << "      \"pages_total\": " << a.pages_total << ",\n"
     << "      \"precopy_rounds\": " << a.precopy_rounds << ",\n"
     << "      \"pause\": {\n"
     << "        \"intervals\": " << a.pause_intervals << ",\n"
     << "        \"unattributed\": " << a.pause_unattributed << ",\n"
     << "        \"rendezvous_cycles\": " << a.pause_rendezvous_cycles
     << ",\n"
     << "        \"stopcopy_cycles\": " << a.pause_stopcopy_cycles << ",\n"
     << "        \"checkpoint_cycles\": " << a.pause_checkpoint_cycles
     << ",\n"
     << "        \"backoff_cycles\": " << a.pause_backoff_cycles << ",\n"
     << "        \"rollback_cycles\": " << a.pause_rollback_cycles << "\n"
     << "      }\n"
     << "    }";
}

}  // namespace

std::string depend_report_json(const DependReport& r) {
  std::ostringstream os;
  os << "{\n"
     << "  \"schema\": \"mercury.depend.v1\",\n"
     << "  \"seed\": " << r.seed << ",\n"
     << "  \"storm_rate\": " << r.storm_rate << ",\n"
     << "  \"storm_fires\": " << r.storm_fires << ",\n"
     << "  \"arcs\": [\n";
  for (std::size_t i = 0; i < r.arcs.size(); ++i) {
    arc_json(os, r.arcs[i]);
    os << (i + 1 < r.arcs.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
  return os.str();
}

bool write_depend_report(const DependReport& r, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = depend_report_json(r);
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace mercury::cluster
