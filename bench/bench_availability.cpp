// §6 scenario quantification: availability of an HPC node-year under three
// operating strategies, using *measured* costs from the simulator:
//   stop&restart  — no virtualization: every maintenance/failure event stops
//                   the workload for repair + reboot.
//   always-on VMM — Xen-style: migration hides the events, but the workload
//                   pays the virtualization tax continuously.
//   Mercury       — self-virtualization: migration hides the events, the
//                   tax is paid only during the (rare) migration windows.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

#include <cmath>
#include <cstdio>

#include "cluster/depend.hpp"
#include "cluster/failure.hpp"
#include "kernel/syscalls.hpp"
#include "util/table.hpp"
#include "workloads/configs.hpp"
#include "workloads/kbuild.hpp"

namespace {

using namespace mercury;
using kernel::Sub;
using kernel::Sys;

struct MeasuredCosts {
  bool evacuated = false;        // the evacuation arc landed
  double evac_downtime_ms = 0;   // stop-and-copy pause per event
  double evac_total_ms = 0;      // the migration leg's wall time
  double attach_ms = 0;
  double detach_ms = 0;
  double virt_slowdown = 0.10;   // measured compute overhead under the VMM
};

MeasuredCosts measure() {
  MeasuredCosts m;
  cluster::Fabric fabric;
  auto& a = fabric.add_node("a");
  auto& b = fabric.add_node("b");
  fabric.connect(a, b);
  a.mercury().kernel().spawn("solver", [](Sys& s) -> Sub<void> {
    const auto grid = s.mmap(128 * hw::kPageSize, true);
    s.touch_pages(grid, 128, true);
    for (;;) {
      co_await s.compute_us(500.0);
      s.touch_pages(grid, 16, true);
    }
  });
  a.mercury().kernel().run_for(10 * hw::kCyclesPerMillisecond);

  const cluster::ArcReport ev = cluster::evacuate_arc(a, b);
  m.evacuated = ev.success;
  m.evac_downtime_ms = hw::cycles_to_us(ev.downtime_cycles) / 1000.0;
  m.evac_total_ms = hw::cycles_to_us(ev.service_cycles) / 1000.0;

  // Attach/detach cost on a third node.
  cluster::Fabric f2;
  auto& c = f2.add_node("c");
  MERC_CHECK(c.mercury().switch_to(core::ExecMode::kPartialVirtual));
  m.attach_ms =
      hw::cycles_to_us(c.mercury().engine().stats().last_attach_cycles) / 1000.0;
  MERC_CHECK(c.mercury().switch_to(core::ExecMode::kNative));
  m.detach_ms =
      hw::cycles_to_us(c.mercury().engine().stats().last_detach_cycles) / 1000.0;

  // Virtualization slowdown on a compute-heavy workload (kbuild, X-0 vs N-L).
  {
    auto nl = workloads::Sut::create(workloads::SystemId::kNL);
    auto x0 = workloads::Sut::create(workloads::SystemId::kX0);
    workloads::KbuildParams kp;
    kp.translation_units = 6;
    const double t_nl = workloads::Kbuild::run(nl->kernel(), kp).build_seconds;
    const double t_x0 = workloads::Kbuild::run(x0->kernel(), kp).build_seconds;
    m.virt_slowdown = t_x0 / t_nl - 1.0;
  }
  return m;
}

void BM_EvacuationDowntime(benchmark::State& state) {
  for (auto _ : state) {
    const MeasuredCosts m = measure();
    if (!m.evacuated) state.SkipWithError("the evacuation arc did not land");
    state.counters["downtime_sim_ms"] = m.evac_downtime_ms;
  }
}
BENCHMARK(BM_EvacuationDowntime)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  const mercury::bench::ObsOptions obs_opts =
      mercury::bench::consume_obs_flags(argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  const MeasuredCosts m = measure();
  if (!m.evacuated) {
    std::fprintf(stderr, "bench_availability: the evacuation arc did not "
                         "land; no costs to project\n");
    return 1;
  }
  std::printf("\nmeasured: evacuation downtime %.3f ms (total %.1f ms), "
              "attach %.3f ms, detach %.3f ms, VMM compute tax %.1f%%\n",
              m.evac_downtime_ms, m.evac_total_ms, m.attach_ms, m.detach_ms,
              m.virt_slowdown * 100.0);

  // Node-year projection: maintenance + predicted-failure events.
  const double year_s = 365.0 * 24 * 3600;
  const double events_per_year = 26.0;      // fortnightly maintenance/predicted
  const double repair_reboot_s = 420.0;     // stop & restart: repair + boot + warmup

  struct Strategy {
    const char* name;
    double downtime_s;
    double effective_speed;  // fraction of native throughput while up
  };
  const Strategy strategies[] = {
      {"stop & restart (no virt)", events_per_year * repair_reboot_s, 1.0},
      {"always-on VMM (Xen)",
       events_per_year * (m.evac_downtime_ms / 1000.0),
       1.0 / (1.0 + m.virt_slowdown)},
      {"Mercury self-virtualization",
       events_per_year *
           (m.evac_downtime_ms + 2 * (m.attach_ms + m.detach_ms)) / 1000.0,
       1.0 - (events_per_year * m.evac_total_ms / 1000.0 / year_s) *
                 m.virt_slowdown},
  };

  mercury::util::Table t({"Strategy", "downtime/yr (s)", "availability",
                          "nines", "relative work done"});
  for (const auto& s : strategies) {
    const double avail = 1.0 - s.downtime_s / year_s;
    const double nines = -std::log10(1.0 - avail);
    t.add_row({s.name, mercury::util::format_fixed(s.downtime_s, 3),
               mercury::util::format_fixed(avail * 100.0, 6) + " %",
               mercury::util::format_fixed(nines, 1),
               mercury::util::format_fixed(
                   s.effective_speed * (avail), 4)});
  }
  std::printf("\n=== Node-year availability projection (%g events/yr) ===\n%s\n",
              events_per_year, t.render().c_str());
  std::printf("paper §6: \"the market is heading toward 99.999%% availability\" "
              "— only the self-virtualizing strategy reaches five nines "
              "without sacrificing native throughput.\n");
  mercury::bench::write_obs_artifacts(obs_opts);
  return 0;
}
