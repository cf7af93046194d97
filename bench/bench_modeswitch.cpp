// §7.4 reproduction: mode-switch time. The paper measures ~0.22 ms for
// native -> virtual and ~0.06 ms for virtual -> native on a 3 GHz Xeon with
// 900 000 KB of kernel memory, attach dominated by the page type/count
// recomputation. This bench sweeps memory size, process count and CPU count
// to expose those proportionalities.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/mercury.hpp"
#include "kernel/syscalls.hpp"
#include "util/table.hpp"

namespace {

using mercury::core::ExecMode;
using mercury::core::Mercury;
using mercury::core::MercuryConfig;

struct SwitchTimes {
  double attach_ms = 0;
  double detach_ms = 0;
  // Bulk transfer phases only (page-info rebuild + protect on attach, PT
  // unprotect on detach). On SMP machines the totals above also carry the
  // rendezvous wait — inter-CPU clock skew, whatever the crew width — so the
  // crew speedup is visible here, not in the totals.
  double attach_transfer_ms = 0;
  double detach_transfer_ms = 0;
  // Per-CPU unavailability intervals recorded while this cell ran (scoped
  // per cell, merged into the ambient ledger for the --pause-json artifact).
  mercury::obs::PauseLedger pauses;
};

std::unique_ptr<mercury::hw::Machine> make_machine(std::size_t mem_kb,
                                                   std::size_t cpus) {
  mercury::hw::MachineConfig mc;
  mc.mem_kb = mem_kb + 80 * 1024;  // headroom for VMM reservation + holdback
  mc.num_cpus = cpus;
  return std::make_unique<mercury::hw::Machine>(mc);
}

SwitchTimes measure(std::size_t kernel_mem_kb, std::size_t cpus, int processes,
                    int round_trips = 3, std::size_t crew_workers = 0) {
  auto machine = make_machine(kernel_mem_kb, cpus);
  MercuryConfig cfg;
  cfg.kernel_frames = (kernel_mem_kb * 1024) / mercury::hw::kPageSize;
  cfg.switch_config.crew_workers = crew_workers;
  Mercury mercury(*machine, cfg);

  // Populate with long-lived processes so the switch walks real tasks/PTs.
  for (int i = 0; i < processes; ++i) {
    mercury.kernel().spawn(
        "resident",
        [](mercury::kernel::Sys& s) -> mercury::kernel::Sub<void> {
          const auto va = s.mmap(64 * mercury::hw::kPageSize, true);
          s.touch_pages(va, 64, true);
          for (;;) co_await s.sleep_us(50'000.0);
        });
  }
  mercury.kernel().run_for(5 * mercury::hw::kCyclesPerMillisecond);

  SwitchTimes t;
  mercury::obs::PauseLedgerScope pause_scope(t.pauses);
  for (int i = 0; i < round_trips; ++i) {
    if (!mercury.switch_to(ExecMode::kPartialVirtual)) return t;
    t.attach_ms +=
        mercury::hw::cycles_to_us(mercury.engine().stats().last_attach_cycles) /
        1000.0;
    t.attach_transfer_ms +=
        mercury::hw::cycles_to_us(
            mercury.engine().stats().last_transfer.page_info_cycles) /
        1000.0;
    if (!mercury.switch_to(ExecMode::kNative)) return t;
    t.detach_ms +=
        mercury::hw::cycles_to_us(mercury.engine().stats().last_detach_cycles) /
        1000.0;
    t.detach_transfer_ms +=
        mercury::hw::cycles_to_us(
            mercury.engine().stats().last_transfer.protection_cycles) /
        1000.0;
  }
  t.attach_ms /= round_trips;
  t.detach_ms /= round_trips;
  t.attach_transfer_ms /= round_trips;
  t.detach_transfer_ms /= round_trips;
  return t;
}

struct WarmTimes {
  double cold_attach_ms = 0;  // first attach: full page-info rebuild
  double warm_attach_ms = 0;  // second attach: dirty-set reconstruction
  double dirty_frames = 0;
  double frames_retained = 0;
  mercury::obs::PauseLedger pauses;
};

// Warm re-attach leg: cold first attach, retaining detach, a short native
// dwell that dirties a small fraction of frames, then a warm second attach
// that reconstructs only the dirty set. The paper's pitch is that repeated
// virtualization entry should cost proportional to what changed, not to
// kernel-memory size.
WarmTimes measure_warm(std::size_t kernel_mem_kb, int processes) {
  auto machine = make_machine(kernel_mem_kb, 1);
  MercuryConfig cfg;
  cfg.kernel_frames = (kernel_mem_kb * 1024) / mercury::hw::kPageSize;
  cfg.switch_config.warm_reattach = true;
  Mercury mercury(*machine, cfg);

  for (int i = 0; i < processes; ++i) {
    mercury.kernel().spawn(
        "resident",
        [](mercury::kernel::Sys& s) -> mercury::kernel::Sub<void> {
          const auto va = s.mmap(64 * mercury::hw::kPageSize, true);
          s.touch_pages(va, 64, true);
          for (;;) co_await s.sleep_us(50'000.0);
        });
  }
  mercury.kernel().run_for(5 * mercury::hw::kCyclesPerMillisecond);

  WarmTimes w;
  mercury::obs::PauseLedgerScope pause_scope(w.pauses);
  if (!mercury.switch_to(ExecMode::kPartialVirtual)) return w;
  w.cold_attach_ms =
      mercury::hw::cycles_to_us(mercury.engine().stats().last_attach_cycles) /
      1000.0;
  if (!mercury.switch_to(ExecMode::kNative)) return w;  // retaining detach

  // Dirty window: one busy process touching a bounded working set — well
  // under 1% of a 900 MB kernel image.
  mercury.kernel().spawn(
      "dirtier", [](mercury::kernel::Sys& s) -> mercury::kernel::Sub<void> {
        const auto va = s.mmap(128 * mercury::hw::kPageSize, true);
        for (;;) {
          s.touch_pages(va, 128, true);
          co_await s.compute_us(100.0);
        }
      });
  mercury.kernel().run_for(2 * mercury::hw::kCyclesPerMillisecond);

  if (!mercury.switch_to(ExecMode::kPartialVirtual)) return w;
  const auto& st = mercury.engine().stats();
  if (st.warm_attaches == 0) return w;  // fell back cold: report speedup 0
  w.warm_attach_ms =
      mercury::hw::cycles_to_us(st.last_attach_cycles) / 1000.0;
  w.dirty_frames = static_cast<double>(st.last_dirty_frames);
  w.frames_retained = static_cast<double>(st.last_frames_retained);
  return w;
}

// Record one sweep cell into the obs registry so --metrics-json carries the
// tracked baseline (BENCH_modeswitch.json) that check_bench_json.py
// validates.
// Per-cause pause tail for one sweep cell: p50/p99 (log2 bucket bounds) and
// the exact worst, in microseconds. Silent causes emit zeros so the tracked
// baseline's gauge set is stable across runs, and the cell ledger is merged
// into the ambient ledger so --pause-json covers the whole sweep.
void record_pause_cell(const std::string& key,
                       const mercury::obs::PauseLedger& pl) {
  mercury::obs::MetricsRegistry& reg = mercury::obs::registry();
  for (std::size_t i = 0; i < mercury::obs::kPauseCauseCount; ++i) {
    const auto cause = static_cast<mercury::obs::PauseCause>(i);
    const std::string base = "bench.modeswitch." + key + "." +
                             mercury::obs::pause_cause_name(cause);
    reg.gauge(base + ".pause_p50_us")
        .set(mercury::hw::cycles_to_us(pl.quantile(cause, 0.50)));
    reg.gauge(base + ".pause_p99_us")
        .set(mercury::hw::cycles_to_us(pl.quantile(cause, 0.99)));
    reg.gauge(base + ".pause_worst_us")
        .set(mercury::hw::cycles_to_us(pl.quantile(cause, 1.0)));
  }
  mercury::obs::pause_ledger().merge(pl);
}

void record_cell(const std::string& key, const SwitchTimes& s) {
  mercury::obs::MetricsRegistry& reg = mercury::obs::registry();
  reg.gauge("bench.modeswitch." + key + ".attach_ms").set(s.attach_ms);
  reg.gauge("bench.modeswitch." + key + ".detach_ms").set(s.detach_ms);
  reg.gauge("bench.modeswitch." + key + ".attach_transfer_ms")
      .set(s.attach_transfer_ms);
  reg.gauge("bench.modeswitch." + key + ".detach_transfer_ms")
      .set(s.detach_transfer_ms);
  record_pause_cell(key, s.pauses);
}

void BM_AttachPaperScale(benchmark::State& state) {
  for (auto _ : state) {
    const SwitchTimes t = measure(900'000, 1, 4, 1);
    state.counters["attach_sim_ms"] = t.attach_ms;
    state.counters["detach_sim_ms"] = t.detach_ms;
  }
}
BENCHMARK(BM_AttachPaperScale)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  mercury::bench::ObsOptions obs_opts =
      mercury::bench::consume_obs_flags(argc, argv);
  // The mode-switch bench is the repo's tracked perf baseline: always emit
  // the metrics artifact, defaulting to BENCH_modeswitch.json in the
  // working directory when --metrics-json is not given.
  if (obs_opts.metrics_json.empty()) obs_opts.metrics_json = "BENCH_modeswitch.json";
  // The pause observatory rides along: one mercury.pause.v1 artifact per
  // run, validated by check_bench_json.py in the CI bench gate.
  if (obs_opts.pause_json.empty())
    obs_opts.pause_json = obs_opts.metrics_json + ".pause.json";
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  {
    mercury::util::Table t({"Memory (KB)", "attach (ms)", "detach (ms)"});
    for (const std::size_t mem_kb :
         {112'500ul, 225'000ul, 450'000ul, 900'000ul}) {
      const SwitchTimes s = measure(mem_kb, 1, 4);
      record_cell("up.mem_kb=" + std::to_string(mem_kb), s);
      t.add_numeric_row(std::to_string(mem_kb),
                        {s.attach_ms, s.detach_ms}, 4);
    }
    std::printf("\n=== Mode switch time vs kernel memory (UP, 4 procs) ===\n%s\n",
                t.render().c_str());
  }
  {
    // Crew-width ablation: kernel-memory size x crew width on a 4-CPU box.
    // The CP alone (crew=0) vs crew transfer latency; the largest memory
    // with crew_workers = ncpus-1 is the headline speedup.
    constexpr std::size_t kCpus = 4;
    mercury::util::Table t({"Memory (KB)", "crew=0 (ms)", "crew=1 (ms)",
                            "crew=2 (ms)", "crew=3 (ms)", "speedup x"});
    double largest_speedup = 0.0;
    for (const std::size_t mem_kb :
         {112'500ul, 225'000ul, 450'000ul, 900'000ul}) {
      std::vector<double> attach(kCpus, 0.0);
      for (std::size_t workers = 0; workers < kCpus; ++workers) {
        const SwitchTimes s = measure(mem_kb, kCpus, 4, 3, workers);
        record_cell("smp.mem_kb=" + std::to_string(mem_kb) +
                        ".crew=" + std::to_string(workers),
                    s);
        attach[workers] = s.attach_transfer_ms;
      }
      largest_speedup = attach[0] / attach[kCpus - 1];
      t.add_numeric_row(std::to_string(mem_kb),
                        {attach[0], attach[1], attach[2], attach[3],
                         largest_speedup}, 4);
    }
    mercury::obs::registry()
        .gauge("bench.modeswitch.crew_speedup_largest_mem")
        .set(largest_speedup);
    std::printf(
        "=== Attach transfer vs crew width (4 CPUs, 4 procs) ===\n%s\n",
        t.render().c_str());
    std::printf("crew=3 speedup at 900 000 KB: %.2fx (target >= 2x)\n\n",
                largest_speedup);
  }
  {
    mercury::util::Table t({"Processes", "attach (ms)", "detach (ms)"});
    for (const int procs : {1, 8, 32, 128}) {
      const SwitchTimes s = measure(225'000, 1, procs);
      t.add_numeric_row(std::to_string(procs), {s.attach_ms, s.detach_ms}, 4);
    }
    std::printf("=== Mode switch time vs process count (UP, 225 MB) ===\n%s\n",
                t.render().c_str());
  }
  {
    mercury::util::Table t({"CPUs", "attach (ms)", "detach (ms)"});
    for (const std::size_t cpus : {1ul, 2ul, 4ul}) {
      const SwitchTimes s = measure(225'000, cpus, 4);
      t.add_numeric_row(std::to_string(cpus), {s.attach_ms, s.detach_ms}, 4);
    }
    std::printf("=== Mode switch time vs CPU count (225 MB, 4 procs) ===\n%s\n",
                t.render().c_str());
  }
  {
    // Warm re-attach ablation: retained page-info table + dirty-set rebuild
    // vs a from-scratch cold attach, swept over kernel-memory size. The
    // headline gauge is the 900 MB cell: a warm second attach with a ~1%
    // dirty window must be >= 10x cheaper than the cold first attach.
    mercury::util::Table t({"Memory (KB)", "cold (ms)", "warm (ms)",
                            "dirty frames", "retained", "speedup x"});
    double largest_speedup = 0.0;
    WarmTimes largest;
    for (const std::size_t mem_kb :
         {112'500ul, 225'000ul, 450'000ul, 900'000ul}) {
      const WarmTimes w = measure_warm(mem_kb, 4);
      const double speedup =
          w.warm_attach_ms > 0.0 ? w.cold_attach_ms / w.warm_attach_ms : 0.0;
      record_pause_cell("warm.mem_kb=" + std::to_string(mem_kb), w.pauses);
      const std::string key =
          "bench.modeswitch.warm.mem_kb=" + std::to_string(mem_kb);
      mercury::obs::MetricsRegistry& reg = mercury::obs::registry();
      reg.gauge(key + ".cold_attach_ms").set(w.cold_attach_ms);
      reg.gauge(key + ".warm_attach_ms").set(w.warm_attach_ms);
      reg.gauge(key + ".dirty_frames").set(w.dirty_frames);
      reg.gauge(key + ".frames_retained").set(w.frames_retained);
      t.add_numeric_row(std::to_string(mem_kb),
                        {w.cold_attach_ms, w.warm_attach_ms, w.dirty_frames,
                         w.frames_retained, speedup}, 4);
      largest_speedup = speedup;
      largest = w;
    }
    mercury::obs::registry()
        .gauge("bench.modeswitch.warm_reattach_speedup")
        .set(largest_speedup);
    std::printf("=== Warm re-attach vs cold attach (UP, 4 procs) ===\n%s\n",
                t.render().c_str());
    std::printf(
        "warm speedup at 900 000 KB: %.2fx (%.0f dirty of %.0f retained, "
        "target >= 10x)\n\n",
        largest_speedup, largest.dirty_frames,
        largest.dirty_frames + largest.frames_retained);
  }
  {
    const SwitchTimes s = measure(900'000, 1, 4);
    std::printf("=== Paper-scale switch (900 000 KB, 3 GHz) ===\n");
    std::printf("measured: attach %.3f ms, detach %.3f ms\n", s.attach_ms,
                s.detach_ms);
    std::printf("paper:    attach ~0.22 ms, detach ~0.06 ms\n");
  }
  mercury::bench::write_obs_artifacts(obs_opts);
  return 0;
}
