#include "workloads.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "cluster/depend.hpp"
#include "cluster/fabric.hpp"
#include "cluster/soak.hpp"
#include "core/fault_inject.hpp"
#include "core/invariants.hpp"
#include "core/mercury.hpp"
#include "core/switch_supervisor.hpp"
#include "kernel/syscalls.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/pause_ledger.hpp"
#include "obs/profiler.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads/dbench.hpp"

namespace perfbench {
namespace {

using namespace mercury;
using core::ExecMode;

// --- sizes -----------------------------------------------------------------
// Chosen so one iteration takes roughly a second of host time on a 4-core
// x86 box: enough work per iteration for steady host medians, and several
// iterations (each with its own set-up) inside a 30 s run.

constexpr std::size_t kChurnKernelKb = 900'000;  // paper §7.4 scale
constexpr std::size_t kChurnResidents = 4;
constexpr int kChurnRoundTrips = 200;
constexpr double kChurnResidentSleepUs = 60e6;

constexpr std::size_t kSoakKernelKb = 32 * 1024;
constexpr std::uint64_t kSoakRequests = 400;
constexpr std::uint64_t kSoakFaultEvery = 6;  // every 6th request faults once
constexpr int kSoakDbenchClients = 3;
// dbench runs through most of the soak's requests; a Flush every 250 loops
// keeps its log files well inside the 32 MB kernel.
constexpr int kSoakDbenchLoops = 4000;
constexpr int kSoakDbenchFsyncEvery = 250;

constexpr int kArcSets = 15;  // each: live-update, checkpoint-restart, migrate
constexpr std::size_t kArcFlightCapacity = 1 << 15;

// --- helpers ---------------------------------------------------------------

/// SplitMix64: a tiny, fully specified generator, so the same seed draws the
/// same inputs on every platform and standard library.
class SeedRng {
 public:
  SeedRng(std::uint64_t seed, std::uint64_t salt) : s_(seed ^ salt) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

double us_of(std::uint64_t cycles) { return hw::cycles_to_us(cycles); }
double ms_of(std::uint64_t cycles) { return hw::cycles_to_us(cycles) / 1e3; }

std::uint64_t registry_count(const char* name) {
  return obs::registry().counter(name).value();
}

std::unique_ptr<hw::Machine> make_machine(IterationResult& r, std::size_t cpus,
                                          std::size_t mem_kb) {
  hw::MachineConfig mc;
  mc.num_cpus = cpus;
  mc.mem_kb = mem_kb;
  Span span("hw", "hw.Machine");
  const Stopwatch sw;
  auto m = std::make_unique<hw::Machine>(mc);
  r.host["hw.machine.setup_ms"] += sw.ms();
  return m;
}

std::unique_ptr<core::Mercury> make_mercury(IterationResult& r,
                                            hw::Machine& machine,
                                            const core::MercuryConfig& cfg) {
  Span span("core", "core.Mercury");
  const Stopwatch sw;
  auto m = std::make_unique<core::Mercury>(machine, cfg);
  r.host["core.mercury.setup_ms"] += sw.ms();
  return m;
}

void run_for(IterationResult& r, kernel::Kernel& k, hw::Cycles span_cycles) {
  Span span("kernel", "kernel.run_for");
  const Stopwatch sw;
  k.run_for(span_cycles);
  r.host["kernel.run_for.host_ms"] += sw.ms();
}

void check_invariants(IterationResult& r, core::SwitchEngine& engine,
                      const std::string& where) {
  Span span("core", "core.check_machine_invariants");
  const core::InvariantReport rep = core::check_machine_invariants(engine);
  if (!rep.ok())
    r.failures.push_back(where + ": invariant violations: " + rep.to_string());
}

/// A long-lived process holding `pages` touched pages, then sleeping for
/// `sleep_us` at a time: the switch walks its task and page tables.
void spawn_resident(kernel::Kernel& k, std::size_t pages, double sleep_us) {
  Span span("kernel", "kernel.spawn");
  k.spawn("resident", [pages, sleep_us](kernel::Sys& s) -> kernel::Sub<void> {
    const auto va = s.mmap(pages * hw::kPageSize, true);
    s.touch_pages(va, pages, true);
    for (;;) co_await s.sleep_us(sleep_us);
  });
}

/// dbench moves a fixed number of bytes: every chunk written is read back,
/// plus one 48 KB log per fsync. A short read or write changes the total.
std::uint64_t dbench_expected_bytes(const workloads::DbenchParams& p) {
  const std::uint64_t per_loop = 2ull * (p.file_kb / p.chunk_kb) * p.chunk_kb * 1024;
  const std::uint64_t logs =
      p.fsync_every_loops > 0 ? p.loops_per_client / p.fsync_every_loops : 0;
  return static_cast<std::uint64_t>(p.clients) *
         (per_loop * static_cast<std::uint64_t>(p.loops_per_client) +
          logs * 48 * 1024);
}

workloads::DbenchResult run_dbench(IterationResult& r, kernel::Kernel& k,
                                   const workloads::DbenchParams& p,
                                   const char* key) {
  ++r.attempted;
  Span span("workloads", "workloads.Dbench.run");
  const Stopwatch sw;
  const workloads::DbenchResult res = workloads::Dbench::run(k, p);
  r.host[std::string("workloads.") + key + ".host_ms"] += sw.ms();
  if (res.bytes_moved != dbench_expected_bytes(p))
    r.failures.push_back(std::string(key) + ": moved " +
                         std::to_string(res.bytes_moved) + " bytes, expected " +
                         std::to_string(dbench_expected_bytes(p)));
  return res;
}

/// Per-switch log: the phase decomposition plus the host time and crew
/// utilization of each committed switch.
struct SwitchLog {
  std::vector<SwitchSample> samples;
  std::vector<double> crew_utilization;
  std::vector<double> host_ms;
  std::uint64_t warm_attaches = 0;
  std::uint64_t warm_eligible = 0;  // attaches committed with warm re-attach on
  std::vector<double> dirty_frames;
  std::vector<double> frames_retained;
  std::uint64_t seen_attaches = 0;
  std::uint64_t seen_detaches = 0;
  std::uint64_t seen_warm = 0;
  std::uint64_t missed = 0;

  explicit SwitchLog(const core::SwitchStats& s)
      : seen_attaches(s.attaches), seen_detaches(s.detaches),
        seen_warm(s.warm_attaches) {}

  /// Record whatever committed since the last call. Callers observe often
  /// enough that at most one switch commits between two calls; anything
  /// else is counted as missed.
  void observe(core::SwitchEngine& e) {
    const core::SwitchStats& s = e.stats();
    const std::uint64_t da = s.attaches - seen_attaches;
    const std::uint64_t dd = s.detaches - seen_detaches;
    if (da + dd == 1) {
      samples.push_back(sample_switch(s, da == 1));
      if (da == 1 && e.config().warm_reattach) ++warm_eligible;
      crew_utilization.push_back(
          obs::registry().gauge("switch.crew.utilization").value());
      if (s.warm_attaches != seen_warm) {
        ++warm_attaches;
        dirty_frames.push_back(static_cast<double>(s.last_dirty_frames));
        frames_retained.push_back(static_cast<double>(s.last_frames_retained));
      }
    } else if (da + dd > 1) {
      missed += da + dd;
    }
    seen_attaches = s.attaches;
    seen_detaches = s.detaches;
    seen_warm = s.warm_attaches;
  }
};

/// p50 of every named phase and of the residual, per direction.
void put_phase_metrics(IterationResult& r, const SwitchLog& log) {
  struct Acc {
    std::vector<double> defer, rendezvous, page_info, protect, fixup, bindings,
        residual;
  } a, d;
  for (const SwitchSample& s : log.samples) {
    Acc& x = s.attach ? a : d;
    x.defer.push_back(us_of(s.defer));
    x.rendezvous.push_back(us_of(s.rendezvous));
    x.page_info.push_back(us_of(s.page_info));
    x.protect.push_back(us_of(s.protect));
    x.fixup.push_back(us_of(s.fixup));
    x.bindings.push_back(us_of(s.bindings));
    x.residual.push_back(static_cast<double>(s.residual()) /
                         static_cast<double>(hw::kCyclesPerMicrosecond));
  }
  r.sim["core.attach.defer_us"] = median(a.defer);
  r.sim["core.attach.rendezvous_us"] = median(a.rendezvous);
  r.sim["core.attach.page_info_us"] = median(a.page_info);
  r.sim["core.attach.protect_us"] = median(a.protect);
  r.sim["core.attach.fixup_us"] = median(a.fixup);
  r.sim["core.attach.bindings_us"] = median(a.bindings);
  r.sim["core.attach.residual_us"] = median(a.residual);
  r.sim["core.detach.defer_us"] = median(d.defer);
  r.sim["core.detach.rendezvous_us"] = median(d.rendezvous);
  r.sim["core.detach.unprotect_us"] = median(d.protect);
  r.sim["core.detach.bindings_us"] = median(d.bindings);
  r.sim["core.detach.residual_us"] = median(d.residual);
  r.sim["core.crew.utilization"] = median(log.crew_utilization);
  r.sim["core.warm.dirty_frames_p50"] = median(log.dirty_frames);
  r.sim["vmm.page_info.frames_retained"] = median(log.frames_retained);
  if (!log.host_ms.empty()) r.host["core.switch.host_ms"] = median(log.host_ms);
  if (log.missed != 0)
    r.failures.push_back("switch log missed " + std::to_string(log.missed) +
                         " switches");
}

void put_latency(IterationResult& r, const char* dir,
                 const std::vector<double>& samples_us) {
  const std::string d(dir);
  const Tail t = tail(samples_us);
  r.sim[d + "_p50_us"] = median(samples_us);
  r.sim[d + "_tail_us"] = t.value;
  r.sim[d + ".tail_percentile"] = t.percentile;
  r.sim[d + ".samples"] = static_cast<double>(t.samples);
}

/// Requester-visible latency (deferral wait plus commit window) of the
/// logged switches.
void put_switch_latency(IterationResult& r, const SwitchLog& log) {
  std::vector<double> att, det;
  for (const SwitchSample& s : log.samples)
    (s.attach ? att : det).push_back(us_of(s.total()));
  put_latency(r, "attach", att);
  put_latency(r, "detach", det);
}

void put_pause_metrics(IterationResult& r, const obs::PauseLedger& pl) {
  Span span("obs", "obs.pause_ledger.read");
  r.sim["pause_worst_us"] = pl.worst().valid ? us_of(pl.worst().span()) : 0.0;
  for (std::size_t i = 0; i < obs::kPauseCauseCount; ++i) {
    const auto cause = static_cast<obs::PauseCause>(i);
    r.sim[std::string("obs.pause.") + obs::pause_cause_name(cause) + "_us"] =
        us_of(pl.total(cause));
  }
  r.sim["obs.pause.unattributed"] = static_cast<double>(pl.unattributed());
  if (pl.unattributed() != 0)
    r.failures.push_back(std::to_string(pl.unattributed()) +
                         " unattributed pause intervals");
}

/// Registry counters (process-global) read as deltas over one iteration.
struct RegistryDelta {
  std::uint64_t rebuilt0 = registry_count("vmm.page_info.frames_reconstructed");
  std::uint64_t skipped0 =
      registry_count("vmm.page_info.table_validations_skipped");

  void put(IterationResult& r) const {
    Span span("obs", "obs.registry.read");
    r.sim["vmm.page_info.frames_rebuilt"] = static_cast<double>(
        registry_count("vmm.page_info.frames_reconstructed") - rebuilt0);
    r.sim["vmm.validations_skipped"] = static_cast<double>(
        registry_count("vmm.page_info.table_validations_skipped") - skipped0);
  }
};

/// One synchronous switch_to with its host time and phase sample.
bool timed_switch(IterationResult& r, core::Mercury& m, SwitchLog& log,
                  ExecMode target) {
  ++r.attempted;
  bool ok = false;
  {
    Span span("core", "core.Mercury.switch_to");
    const Stopwatch sw;
    ok = m.switch_to(target);
    log.host_ms.push_back(sw.ms());
  }
  log.observe(m.engine());
  if (!ok)
    r.failures.push_back(std::string("switch to ") + core::exec_mode_name(target) +
                         " did not commit");
  return ok;
}

// --- switch-churn ----------------------------------------------------------

IterationResult switch_churn(std::uint64_t seed) {
  IterationResult r;
  SeedRng rng(seed, 0xC4u);
  // Seeded inputs: kernel memory within 0.5% of the paper's 900 000 KB,
  // each resident's working set (one to four page tables' worth), and each
  // round trip's native dwell: under one 100 Hz tick, except for 25 to 27
  // long ones at seeded positions (selection sampling).
  const std::size_t kernel_kb = kChurnKernelKb - 4500 + 4 * rng.below(2251);
  std::vector<std::size_t> ws_pages;
  for (std::size_t i = 0; i < kChurnResidents; ++i)
    ws_pages.push_back(512 + rng.below(3072));
  std::uint64_t long_left = 25 + rng.below(3);
  std::vector<double> dwell_us;
  for (int i = 0; i < kChurnRoundTrips; ++i) {
    const bool long_dwell =
        rng.below(static_cast<std::uint64_t>(kChurnRoundTrips - i)) < long_left;
    if (long_dwell) --long_left;
    dwell_us.push_back((long_dwell ? 13'000.0 : 3000.0) +
                       static_cast<double>(rng.below(400)));
  }

  obs::PauseLedger ledger;
  obs::PauseLedgerScope pause_scope(ledger);
  const RegistryDelta reg;

  const Stopwatch setup;
  auto machine = make_machine(r, 4, kernel_kb + 80 * 1024);
  core::MercuryConfig cfg;
  cfg.kernel_frames = (kernel_kb * 1024) / hw::kPageSize;
  cfg.switch_config.crew_workers = 3;
  cfg.switch_config.warm_reattach = false;
  auto m = make_mercury(r, *machine, cfg);
  // The residents sleep through the whole run: the kernel idles between
  // requests, and no wake-up lands inside a switch.
  for (const std::size_t pages : ws_pages)
    spawn_resident(m->kernel(), pages, kChurnResidentSleepUs);
  // Long enough for the residents to touch their working sets and sleep.
  run_for(r, m->kernel(), 50 * hw::kCyclesPerMillisecond);
  r.setup_s = setup.seconds();

  const Stopwatch run;
  hw::Cpu& cp = machine->cpu(0);
  SwitchLog log(m->engine().stats());
  const hw::Cycles t0 = cp.now();
  hw::Cycles window = 0;
  for (int i = 0; i < kChurnRoundTrips; ++i) {
    const hw::Cycles w0 = cp.now();
    if (!timed_switch(r, *m, log, ExecMode::kPartialVirtual)) break;
    if (i == 0) check_invariants(r, m->engine(), "switch-churn (virtual)");
    if (!timed_switch(r, *m, log, ExecMode::kNative)) break;
    window += cp.now() - w0;
    run_for(r, m->kernel(), hw::us_to_cycles(dwell_us[static_cast<std::size_t>(i)]));
  }
  const hw::Cycles span_cycles = cp.now() - t0;
  r.run_s = run.seconds();

  hw::Cycles downtime = 0;
  for (const SwitchSample& s : log.samples) downtime += s.elapsed;
  r.sim["app_sim_ms"] = ms_of(span_cycles);
  r.sim["window_ms"] = ms_of(window);
  r.sim["downtime_ms"] = ms_of(downtime);
  r.sim["availability"] =
      1.0 - static_cast<double>(downtime) / static_cast<double>(span_cycles);
  r.host["kernel.sim_mcycles_per_host_s"] =
      static_cast<double>(span_cycles) / r.run_s / 1e6;
  put_switch_latency(r, log);
  put_phase_metrics(r, log);
  reg.put(r);
  check_invariants(r, m->engine(), "switch-churn");
  put_pause_metrics(r, ledger);
  return r;
}

// --- supervised-soak -------------------------------------------------------

/// Arms one single-shot FaultPlan on the first attempt of every Nth
/// supervised request, at a site that attempt is certain to visit (the
/// sites both the cold and warm crew paths pass). The plan fires in that
/// very commit, so each injected fault costs one rollback and one retry.
///
/// It runs from the self-virtualization interrupt — host-side, before the
/// engine's own handler — so arming charges no simulated cycles and the
/// switch log sees every commit between two request interrupts.
class FaultSchedule {
 public:
  FaultSchedule(core::SwitchSupervisor& sup, SwitchLog& log,
                std::uint64_t rotation)
      : sup_(sup), log_(log), rotation_(rotation) {}

  void install(kernel::Kernel& k) {
    core::SwitchEngine& engine = sup_.engine();
    k.set_selfvirt_handler([this, &engine](hw::Cpu& cpu, std::uint8_t vector,
                                           std::uint32_t payload) {
      const bool request = vector == hw::kVecSelfVirtAttach ||
                           vector == hw::kVecSelfVirtDetach;
      if (request) {
        log_.observe(engine);
        maybe_arm(vector == hw::kVecSelfVirtAttach);
      }
      engine.on_interrupt(cpu, vector, payload);
      if (request) log_.observe(engine);
    });
  }

  std::uint64_t armed() const { return armed_; }

 private:
  void maybe_arm(bool attach) {
    static constexpr core::FaultSite kAttachSites[] = {
        core::FaultSite::kRendezvous, core::FaultSite::kShardProtect,
        core::FaultSite::kTransferBindings, core::FaultSite::kReloadHwState};
    static constexpr core::FaultSite kDetachSites[] = {
        core::FaultSite::kRendezvous, core::FaultSite::kShardUnprotect,
        core::FaultSite::kTransferBindings, core::FaultSite::kReloadHwState};
    if (sup_.engine().idle()) return;  // stale interrupt
    const std::uint64_t id = sup_.stats().submitted;
    const core::SupervisedRequest* req = sup_.find(id);
    if (req == nullptr || req->attempts != 1 || id % kSoakFaultEvery != 0 ||
        id == last_id_ || core::fault_injector().armed())
      return;
    core::FaultPlan plan;
    plan.site = (attach ? kAttachSites : kDetachSites)[(rotation_ + armed_) % 4];
    plan.trigger_count = 1;
    core::fault_injector().arm(plan);
    last_id_ = id;
    ++armed_;
  }

  core::SwitchSupervisor& sup_;
  SwitchLog& log_;
  std::uint64_t rotation_;
  std::uint64_t armed_ = 0;
  std::uint64_t last_id_ = 0;
};

IterationResult supervised_soak(std::uint64_t seed) {
  IterationResult r;
  SeedRng rng(seed, 0x50A4u);
  workloads::DbenchParams dp;
  dp.clients = kSoakDbenchClients;
  dp.loops_per_client = kSoakDbenchLoops + static_cast<int>(rng.below(40));
  dp.fsync_every_loops = kSoakDbenchFsyncEvery;
  core::SupervisorConfig scfg;
  scfg.backoff_base_ms = 0.5;
  scfg.backoff_cap_ms = 8.0;
  scfg.degraded_after = 3;
  scfg.quarantine_after = 8;
  scfg.probe_interval_ms = 30.0;
  scfg.seed = rng.next();
  cluster::SoakParams sp;
  sp.cycles = kSoakRequests;
  // The pump cadence bounds the idle-CPU clock skew a switch waits for;
  // drawing it from the seed keeps that bound from reading the same in
  // every run.
  sp.request_interval_ms = 3.0 + 0.001 * static_cast<double>(rng.below(10));
  sp.warm_reattach_rate = 0.95;
  sp.warm_seed = rng.next();
  sp.check_invariants = true;
  const std::uint64_t rotation = rng.below(4);
  // A writer touching a seeded number of pages at a seeded period: the
  // dirty set each warm re-attach rebuilds.
  const std::size_t writer_pages = 96 + rng.below(8);
  const double writer_period_us = 700.0 + static_cast<double>(rng.below(10));

  obs::PauseLedger ledger;
  obs::PauseLedgerScope pause_scope(ledger);
  const RegistryDelta reg;
  core::FaultInjector& fi = core::fault_injector();
  const std::uint64_t injected0 = fi.injected();

  const Stopwatch setup;
  auto machine = make_machine(r, 4, 96 * 1024);
  core::MercuryConfig cfg;
  cfg.kernel_frames = (kSoakKernelKb * 1024) / hw::kPageSize;
  cfg.switch_config.crew_workers = 3;
  cfg.switch_config.warm_reattach = true;
  auto m = make_mercury(r, *machine, cfg);
  core::SwitchEngine& engine = m->engine();
  const std::uint64_t rollbacks0 = engine.stats().rollbacks;
  core::SwitchSupervisor sup(engine, scfg);
  cluster::SoakDriver driver(sup, sp);
  SwitchLog log(engine.stats());
  FaultSchedule faults(sup, log, rotation);
  faults.install(m->kernel());
  {
    Span span("kernel", "kernel.spawn");
    m->kernel().spawn(
        "writer",
        [writer_pages, writer_period_us](kernel::Sys& s) -> kernel::Sub<void> {
          const hw::VirtAddr va = s.mmap(writer_pages * hw::kPageSize, true);
          for (;;) {
            s.touch_pages(va, writer_pages, true);
            co_await s.sleep_us(writer_period_us);
          }
        });
  }
  run_for(r, m->kernel(), 5 * hw::kCyclesPerMillisecond);
  r.setup_s = setup.seconds();

  const Stopwatch run;
  hw::Cpu& cp = machine->cpu(0);
  const hw::Cycles t0 = cp.now();
  {
    Span span("cluster", "cluster.SoakDriver.start");
    driver.start();
  }
  const hw::Cycles db0 = cp.now();
  const workloads::DbenchResult db =
      run_dbench(r, m->kernel(), dp, "dbench_under_switches");
  const hw::Cycles db_cycles = cp.now() - db0;
  {
    Span span("cluster", "cluster.SoakDriver.run_to_completion");
    if (!driver.run_to_completion(30'000 * hw::kCyclesPerMillisecond))
      r.failures.push_back("soak did not finish its requests");
  }
  log.observe(engine);
  const hw::Cycles span_cycles = cp.now() - t0;
  r.run_s = run.seconds();

  const cluster::SoakReport rep = driver.report(seed);
  r.attempted += rep.submitted;
  if (driver.failed() != 0 || rep.unresolved != 0)
    r.failures.push_back("soak: " + std::to_string(driver.failed()) +
                         " failed, " + std::to_string(rep.unresolved) +
                         " unresolved requests");
  if (rep.quarantines != 0)
    r.failures.push_back("soak: " + std::to_string(rep.quarantines) +
                         " quarantines");
  if (driver.invariant_violations() != 0)
    r.failures.push_back("soak: " +
                         std::to_string(driver.invariant_violations()) +
                         " invariant violations after resolutions");
  if (fi.armed()) {
    fi.disarm();
    r.failures.push_back("soak: a fault plan was left unfired");
  }
  const std::uint64_t injected = fi.injected() - injected0;
  const std::uint64_t rollbacks = engine.stats().rollbacks - rollbacks0;
  if (injected != faults.armed() || rollbacks != injected)
    r.failures.push_back("soak: armed " + std::to_string(faults.armed()) +
                         " plans, injected " + std::to_string(injected) +
                         ", rolled back " + std::to_string(rollbacks));

  // Native-to-native windows from the soak's availability record: each
  // committed switch books [commit start, commit end].
  hw::Cycles window = 0;
  hw::Cycles attach_began = 0;
  bool open = false;
  for (const cluster::ServiceInterruption& i :
       driver.availability().interruptions()) {
    if (i.cause == "switch.attach") {
      attach_began = i.began;
      open = true;
    } else if (open) {
      window += i.ended - attach_began;
      open = false;
    }
  }
  put_switch_latency(r, log);
  r.sim["availability"] = driver.availability().availability();
  r.sim["downtime_ms"] = ms_of(driver.availability().total_downtime());
  r.sim["window_ms"] = ms_of(window);
  // dbench's own elapsed reads the earliest CPU clock, which an idle CPU
  // can hold back; the control processor's clock spans the run.
  r.sim["app_sim_ms"] = ms_of(db_cycles);
  r.sim["workloads.dbench_under_switches.mb_s"] =
      static_cast<double>(db.bytes_moved) / (1024.0 * 1024.0) /
      (ms_of(db_cycles) / 1e3);
  r.sim["core.faults_injected"] = static_cast<double>(injected);
  r.sim["core.rollbacks"] = static_cast<double>(rollbacks);
  r.sim["core.supervisor.retries"] = static_cast<double>(sup.stats().retries);
  r.sim["core.supervisor.commit_ratio"] =
      sup.stats().attempts
          ? static_cast<double>(sup.stats().committed) /
                static_cast<double>(sup.stats().attempts)
          : 0.0;
  r.sim["core.warm.hit_ratio"] =
      log.warm_eligible ? static_cast<double>(log.warm_attaches) /
                              static_cast<double>(log.warm_eligible)
                        : 0.0;
  r.host["kernel.sim_mcycles_per_host_s"] =
      static_cast<double>(span_cycles) / r.run_s / 1e6;
  put_phase_metrics(r, log);
  reg.put(r);
  check_invariants(r, engine, "supervised-soak");
  if (engine.mode() != ExecMode::kNative)
    r.failures.push_back("soak: did not end native");
  put_pause_metrics(r, ledger);
  return r;
}

// --- depend-arcs -----------------------------------------------------------

/// A background service dirtying `pages` pages per 250 us burst: the pages
/// migration pre-copy resends and the divergence a checkpoint restore undoes.
void spawn_dirtier(kernel::Kernel& k, std::size_t pages) {
  Span span("kernel", "kernel.spawn");
  k.spawn("dirtier", [pages](kernel::Sys& s) -> kernel::Sub<void> {
    const hw::VirtAddr va = s.mmap(pages * hw::kPageSize, true);
    for (;;) {
      s.touch_pages(va, pages, true);
      co_await s.compute_us(250.0);
    }
  });
}

cluster::Node& add_node(IterationResult& r, cluster::Fabric& f,
                        const char* name, std::size_t kernel_kb) {
  cluster::NodeConfig nc;
  nc.cpus = 2;
  nc.mem_kb = 128 * 1024;
  nc.kernel_mem_kb = kernel_kb;
  Span span("cluster", "cluster.Fabric.add_node");
  const Stopwatch sw;
  cluster::Node& n = f.add_node(name, nc);
  r.host["cluster.node.setup_ms"] += sw.ms();
  return n;
}

struct ArcTotals {
  std::vector<double> attach_us, detach_us;
  hw::Cycles window = 0, downtime = 0, service = 0;
  std::map<std::string, std::vector<double>> per_service;  // "<svc>.<field>"
  std::uint64_t pages_sent = 0, pages_total = 0, precopy_rounds = 0;
  // Each arc keeps its pause ledger to itself and exports five per-cause
  // totals; its worst interval is read from the ledger's pause.worst
  // flight-recorder events.
  hw::Cycles pause_worst = 0;
  std::uint64_t pause_unattributed = 0;
  std::map<obs::PauseCause, hw::Cycles> pause_total;
};

void account_arc(IterationResult& r, ArcTotals& t, const cluster::ArcReport& a,
                 double host_ms) {
  ++r.attempted;
  if (!a.completed_cleanly() || !a.success)
    r.failures.push_back(a.service + ": arc did not complete cleanly");
  if (a.service == "checkpoint-restart" && !a.verified)
    r.failures.push_back("checkpoint-restart: restore not verified");
  t.attach_us.push_back(us_of(a.attach_cycles));
  t.detach_us.push_back(us_of(a.detach_cycles));
  t.window += a.window_cycles;
  t.downtime += a.downtime_cycles;
  t.service += a.service_cycles;
  t.pages_sent += a.pages_sent;
  t.pages_total += a.pages_total;
  t.precopy_rounds += a.precopy_rounds;
  const std::string p = a.service + ".";
  t.per_service[p + "attach_ms"].push_back(ms_of(a.attach_cycles));
  t.per_service[p + "service_ms"].push_back(ms_of(a.service_cycles));
  t.per_service[p + "detach_ms"].push_back(ms_of(a.detach_cycles));
  t.per_service[p + "downtime_ms"].push_back(ms_of(a.downtime_cycles));
  t.per_service[p + "host_ms"].push_back(host_ms);
  t.pause_unattributed += a.pause_unattributed;
  t.pause_total[obs::PauseCause::kRendezvousParked] += a.pause_rendezvous_cycles;
  t.pause_total[obs::PauseCause::kMigrateStopCopy] += a.pause_stopcopy_cycles;
  t.pause_total[obs::PauseCause::kCheckpointCopy] += a.pause_checkpoint_cycles;
  t.pause_total[obs::PauseCause::kSupervisorRetryBackoff] +=
      a.pause_backoff_cycles;
  t.pause_total[obs::PauseCause::kRollbackUnwind] += a.pause_rollback_cycles;
}

/// Run one arc call (timed, in its own span) and account its report.
template <typename Fn>
void timed_arc(IterationResult& r, ArcTotals& t, const char* name, Fn&& fn) {
  obs::FlightRecorder& flight = obs::flight_recorder();
  flight.clear();
  const std::uint64_t dropped0 = flight.dropped();
  double host_ms = 0;
  cluster::ArcReport a;
  {
    Span span("cluster", std::string("cluster.") + name);
    const Stopwatch sw;
    a = fn();
    host_ms = sw.ms();
  }
  r.run_s += host_ms / 1e3;
  {
    Span span("obs", "obs.flight_recorder.read");
    for (const obs::FlightEvent& e : flight.events())
      if (e.type == obs::FlightType::kPauseWorst)
        t.pause_worst = std::max<hw::Cycles>(t.pause_worst, e.arg2);
  }
  if (flight.dropped() != dropped0)
    r.failures.push_back(a.service + ": flight recorder overflowed");
  account_arc(r, t, a, host_ms);
}

IterationResult depend_arcs(std::uint64_t seed) {
  IterationResult r;
  SeedRng rng(seed, 0xDE9Eu);
  cluster::DependConfig cfg;
  cfg.supervisor.seed = rng.next();
  cfg.supervisor.backoff_base_ms = 0.5;
  cfg.supervisor.backoff_cap_ms = 8.0;
  // Seeded inputs: the nodes' kernel memory (32 MB plus up to 0.4%) and
  // each arc set's dirty rate.
  const std::size_t kernel_kb = 32 * 1024 + 4 * rng.below(32);
  std::vector<std::size_t> dirty_pages;
  for (int i = 0; i < kArcSets; ++i) dirty_pages.push_back(28 + rng.below(9));

  obs::PauseLedger ledger;
  obs::PauseLedgerScope pause_scope(ledger);
  const RegistryDelta reg;
  // Room for every event of one arc (the ring is cleared before each).
  if (obs::flight_recorder().capacity() < kArcFlightCapacity)
    obs::flight_recorder().set_capacity(kArcFlightCapacity);
  ArcTotals t;
  double setup_s = 0;

  // Arcs run on fresh nodes; set-up (node construction, dirtier warm-up)
  // and the arc calls are timed separately and summed.
  const auto finish = [&](cluster::Node& n) {
    check_invariants(r, n.mercury().engine(), n.name());
    ledger.merge(n.pauses());
  };
  for (int set = 0; set < kArcSets; ++set) {
    const std::size_t pages = dirty_pages[static_cast<std::size_t>(set)];
    {
      cluster::Fabric f;
      const Stopwatch setup;
      cluster::Node& n = add_node(r, f, "svc", kernel_kb);
      spawn_dirtier(n.mercury().kernel(), pages);
      run_for(r, n.mercury().kernel(), 5 * hw::kCyclesPerMillisecond);
      setup_s += setup.seconds();
      cluster::KernelPatch patch;
      patch.description = "benchmark patch";
      patch.apply_fn = [](kernel::Kernel&) {};
      timed_arc(r, t, "live_update_arc",
                [&] { return cluster::live_update_arc(n, patch, cfg); });
      finish(n);
    }
    {
      cluster::Fabric f;
      const Stopwatch setup;
      cluster::Node& n = add_node(r, f, "ckpt", kernel_kb);
      spawn_dirtier(n.mercury().kernel(), pages);
      run_for(r, n.mercury().kernel(), 5 * hw::kCyclesPerMillisecond);
      setup_s += setup.seconds();
      timed_arc(r, t, "checkpoint_restart_arc",
                [&] { return cluster::checkpoint_restart_arc(n, cfg); });
      finish(n);
    }
    {
      cluster::Fabric f;
      const Stopwatch setup;
      cluster::Node& src = add_node(r, f, "src", kernel_kb);
      cluster::Node& dst = add_node(r, f, "dst", kernel_kb);
      f.connect(src, dst);
      spawn_dirtier(src.mercury().kernel(), pages);
      run_for(r, src.mercury().kernel(), 5 * hw::kCyclesPerMillisecond);
      setup_s += setup.seconds();
      timed_arc(r, t, "migrate_arc",
                [&] { return cluster::migrate_arc(src, dst, cfg); });
      finish(src);
      finish(dst);
    }
  }
  r.setup_s = setup_s;

  put_latency(r, "attach", t.attach_us);
  put_latency(r, "detach", t.detach_us);
  r.sim["window_ms"] = ms_of(t.window);
  r.sim["downtime_ms"] = ms_of(t.downtime);
  r.sim["app_sim_ms"] = ms_of(t.service);
  r.sim["availability"] =
      1.0 - static_cast<double>(t.downtime) / static_cast<double>(t.window);
  for (const auto& [key, values] : t.per_service) {
    const double v = median(values);
    if (key.ends_with("host_ms"))
      r.host["cluster." + key] = v;
    else
      r.sim["cluster." + key] = v;
  }
  r.sim["vmm.migrate.pages_sent"] = static_cast<double>(t.pages_sent);
  r.sim["vmm.migrate.precopy_rounds"] = static_cast<double>(t.precopy_rounds);
  r.sim["vmm.migrate.copy_ratio"] =
      t.pages_sent ? static_cast<double>(t.pages_total) /
                         static_cast<double>(t.pages_sent)
                   : 0.0;
  r.host["kernel.sim_mcycles_per_host_s"] =
      static_cast<double>(t.window) / r.run_s / 1e6;
  reg.put(r);
  put_pause_metrics(r, ledger);
  for (const auto& [cause, cycles] : t.pause_total)
    r.sim[std::string("obs.pause.") + obs::pause_cause_name(cause) + "_us"] +=
        us_of(cycles);
  r.sim["pause_worst_us"] =
      std::max(r.sim["pause_worst_us"], us_of(t.pause_worst));
  r.sim["obs.pause.unattributed"] += static_cast<double>(t.pause_unattributed);
  if (t.pause_unattributed != 0)
    r.failures.push_back("arcs: " + std::to_string(t.pause_unattributed) +
                         " unattributed pause intervals");
  return r;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "switch-churn", "supervised-soak", "depend-arcs"};
  return names;
}

IterationResult run_iteration(const std::string& workload, std::uint64_t seed) {
  // Traced iterations also run the engine profiler: its switch.commit
  // bucket gives the host time per commit where the switches are driven
  // from inside the simulation (soak, arcs) rather than by switch_to.
  obs::EngineProfiler& prof = obs::profiler();
  prof.reset();
  prof.set_enabled(tracer().enabled());
  IterationResult r;
  {
    Span span("perfbench", "perfbench.iteration." + workload);
    if (workload == "switch-churn") r = switch_churn(seed);
    else if (workload == "supervised-soak") r = supervised_soak(seed);
    else if (workload == "depend-arcs") r = depend_arcs(seed);
    else throw std::invalid_argument("unknown workload: " + workload);
  }
  if (prof.enabled() && !r.host.count("core.switch.host_ms")) {
    for (const obs::ProfBucket& b : prof.snapshot())
      if (b.name == "switch.commit" && b.count > 0)
        r.host["core.switch.host_ms"] =
            static_cast<double>(b.wall_ns) / static_cast<double>(b.count) / 1e6;
  }
  prof.set_enabled(false);
  return r;
}

}  // namespace perfbench
