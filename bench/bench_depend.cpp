// Dependability-arc bench: the three supervised service arcs (live-update,
// checkpoint-restart, round-trip live migration) run end-to-end, first
// clean and then under a seeded fault storm, with the native-to-native
// dependability window of each measured. Emits the mercury.depend.v1
// verdicts; the exit code is nonzero exactly when either run's
// DependReport::gate_failures() lists a failure, printed one per line:
//
//   bench_depend --depend-json depend.json --depend-storm-json storm.json
//                [--storm-rate 0.05] [--metrics-json m.json]
//   python3 scripts/check_bench_json.py depend.json --schema depend
//
// The clean run's window decomposition is exported as bench.depend.*
// gauges (per service: window/attach/service/detach/downtime in ms), so
// scripts/bench_compare.py --prefix bench.depend. can gate per-service
// downtime against the committed BENCH_depend.json baseline.
//
// Seeded via MERCURY_TEST_SEED (same convention as the test suite), so a
// failing CI storm replays bit-for-bit.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "cluster/depend.hpp"
#include "cluster/fabric.hpp"
#include "core/fault_inject.hpp"
#include "kernel/syscalls.hpp"

namespace {

using namespace mercury;
using cluster::ArcReport;
using cluster::DependConfig;
using cluster::DependReport;
using core::FaultStorm;

std::uint64_t depend_seed() {
  if (const char* env = std::getenv("MERCURY_TEST_SEED"))
    if (const std::uint64_t s = std::strtoull(env, nullptr, 0)) return s;
  return 0xDE9E17DAull;
}

/// Nodes sized for the bench: small enough that the full-image copies
/// (checkpoint capture/restore, migration round 0) stay cheap across the
/// storm's retries, big enough to exercise multi-shard page-info state.
cluster::NodeConfig bench_node_config() {
  cluster::NodeConfig nc;
  nc.cpus = 2;
  nc.mem_kb = 128 * 1024;
  nc.kernel_mem_kb = 32 * 1024;
  return nc;
}

/// A background service that keeps dirtying pages, so migration pre-copy
/// sees a live dirty set and checkpoint restore has divergence to undo.
/// `pages` per 250 us burst is the knob the dirty-rate sweep turns.
void spawn_dirtier(cluster::Node& node, std::size_t pages = 32) {
  node.mercury().kernel().spawn(
      "dirtier", [pages](kernel::Sys& s) -> kernel::Sub<void> {
        const hw::VirtAddr va = s.mmap(pages * hw::kPageSize, true);
        for (;;) {
          s.touch_pages(va, pages, true);
          co_await s.compute_us(250.0);
        }
      });
  node.mercury().kernel().run_for(5 * hw::kCyclesPerMillisecond);
}

/// The three arcs under one fault regime. Fresh nodes per run: a depend
/// run is a story about one maintenance window, not an accumulation.
DependReport run_arcs(double storm_rate) {
  const std::uint64_t seed = depend_seed();
  DependReport report;
  report.seed = seed;
  report.storm_rate = storm_rate;

  DependConfig cfg;
  cfg.supervisor.seed = seed;
  cfg.supervisor.backoff_base_ms = 0.5;
  cfg.supervisor.backoff_cap_ms = 8.0;

  const std::uint64_t fires0 = core::fault_injector().storm_fires();
  if (storm_rate > 0.0)
    core::fault_injector().arm_storm(FaultStorm::uniform(storm_rate, seed));

  {
    cluster::Fabric f;
    cluster::Node& n = f.add_node("svc", bench_node_config());
    spawn_dirtier(n);
    cluster::KernelPatch patch;
    patch.description = "bench patch";
    patch.apply_fn = [](kernel::Kernel&) {};
    report.arcs.push_back(cluster::live_update_arc(n, patch, cfg));
  }
  {
    cluster::Fabric f;
    cluster::Node& n = f.add_node("ckpt", bench_node_config());
    spawn_dirtier(n);
    report.arcs.push_back(cluster::checkpoint_restart_arc(n, cfg));
  }
  {
    cluster::Fabric f;
    cluster::Node& src = f.add_node("src", bench_node_config());
    cluster::Node& dst = f.add_node("dst", bench_node_config());
    f.connect(src, dst);
    spawn_dirtier(src);
    report.arcs.push_back(cluster::migrate_arc(src, dst, cfg));
  }

  if (storm_rate > 0.0) core::fault_injector().stop_storm();
  report.storm_fires = core::fault_injector().storm_fires() - fires0;
  return report;
}

struct DependRuns {
  DependReport clean;
  DependReport storm;
};

DependRuns g_runs;
bool g_have_runs = false;
double g_storm_rate = 0.05;

const DependRuns& runs() {
  if (!g_have_runs) {
    g_runs.clean = run_arcs(0.0);
    g_runs.storm = run_arcs(g_storm_rate);
    g_have_runs = true;
  }
  return g_runs;
}

double to_ms(hw::Cycles c) {
  return static_cast<double>(c) / static_cast<double>(hw::kCyclesPerMillisecond);
}

/// Publish the clean run's window decomposition as gauges; the CI depend
/// job gates these against the committed baseline with bench_compare.py.
void publish_gauges(const DependReport& clean) {
  // Registry calls directly (not MERC_GAUGE_SET): the macro caches one
  // static gauge per call site, but the name varies per arc here.
  for (const ArcReport& a : clean.arcs) {
    const std::string p = "bench.depend." + a.service;
    obs::registry().gauge(p + ".window_ms").set(to_ms(a.window_cycles));
    obs::registry().gauge(p + ".attach_ms").set(to_ms(a.attach_cycles));
    obs::registry().gauge(p + ".service_ms").set(to_ms(a.service_cycles));
    obs::registry().gauge(p + ".detach_ms").set(to_ms(a.detach_cycles));
    obs::registry().gauge(p + ".downtime_ms").set(to_ms(a.downtime_cycles));
  }
}

void BM_DependArcs(benchmark::State& state) {
  for (auto _ : state) {
    const DependRuns& r = runs();
    double worst_window = 0.0, worst_down = 0.0;
    for (const ArcReport& a : r.clean.arcs) {
      worst_window = std::max(worst_window, to_ms(a.window_cycles));
      worst_down = std::max(worst_down, to_ms(a.downtime_cycles));
    }
    state.counters["clean_window_worst_ms"] = worst_window;
    state.counters["clean_downtime_worst_ms"] = worst_down;
    state.counters["storm_fires"] = static_cast<double>(r.storm.storm_fires);
    state.counters["clean_ok"] = r.clean.gate_failures().empty() ? 1.0 : 0.0;
    state.counters["storm_ok"] = r.storm.gate_failures().empty() ? 1.0 : 0.0;
  }
}
BENCHMARK(BM_DependArcs)->Unit(benchmark::kMillisecond)->Iterations(1);

/// Migration downtime as a function of the guest's dirty rate: the heavier
/// the dirtier, the more residue survives pre-copy into the stop-and-copy
/// freeze. Each cell runs the full migrate arc on fresh nodes, clean, and
/// exports bench.depend.migrate.dirty_pages=<n>.downtime_ms for the
/// baseline gate (plus pages/rounds context counters).
void BM_MigrateDowntimeVsDirtyRate(benchmark::State& state) {
  const std::size_t pages = static_cast<std::size_t>(state.range(0));
  DependConfig cfg;
  cfg.supervisor.seed = depend_seed();
  cfg.supervisor.backoff_base_ms = 0.5;
  cfg.supervisor.backoff_cap_ms = 8.0;
  for (auto _ : state) {
    cluster::Fabric f;
    cluster::Node& src = f.add_node("src", bench_node_config());
    cluster::Node& dst = f.add_node("dst", bench_node_config());
    f.connect(src, dst);
    spawn_dirtier(src, pages);
    const ArcReport a = cluster::migrate_arc(src, dst, cfg);
    if (!a.success) state.SkipWithError("migrate arc did not land");
    state.counters["downtime_ms"] = to_ms(a.downtime_cycles);
    state.counters["pages_sent"] = static_cast<double>(a.pages_sent);
    state.counters["precopy_rounds"] = static_cast<double>(a.precopy_rounds);
    const std::string p =
        "bench.depend.migrate.dirty_pages=" + std::to_string(pages);
    obs::registry().gauge(p + ".downtime_ms").set(to_ms(a.downtime_cycles));
    obs::registry().gauge(p + ".pages_sent")
        .set(static_cast<double>(a.pages_sent));
    obs::registry().gauge(p + ".precopy_rounds")
        .set(static_cast<double>(a.precopy_rounds));
  }
}
BENCHMARK(BM_MigrateDowntimeVsDirtyRate)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Arg(512);

/// Strip `--depend-json <p>`, `--depend-storm-json <p>` and
/// `--storm-rate <r>` (space- or `=`-joined) before benchmark::Initialize.
void consume_depend_flags(int& argc, char** argv, std::string& clean_path,
                          std::string& storm_path) {
  const auto match = [&](int& i, const char* flag, std::string& out) {
    const std::size_t n = std::strlen(flag);
    if (std::strncmp(argv[i], flag, n) != 0) return false;
    if (argv[i][n] == '=') {
      out = argv[i] + n + 1;
      return true;
    }
    if (argv[i][n] == '\0' && i + 1 < argc) {
      out = argv[++i];
      return true;
    }
    return false;
  };
  std::string rate;
  int w = 1;
  for (int i = 1; i < argc; ++i) {
    if (match(i, "--depend-json", clean_path) ||
        match(i, "--depend-storm-json", storm_path) ||
        match(i, "--storm-rate", rate))
      continue;
    argv[w++] = argv[i];
  }
  argc = w;
  argv[argc] = nullptr;
  if (!rate.empty()) g_storm_rate = std::strtod(rate.c_str(), nullptr);
}

/// Print the run and its verdict; true when no gate failed.
bool print_report(const char* title, const DependReport& r) {
  std::printf("\n=== %s (seed %llu, storm rate %.3f, %llu fires) ===\n",
              title, static_cast<unsigned long long>(r.seed), r.storm_rate,
              static_cast<unsigned long long>(r.storm_fires));
  for (const ArcReport& a : r.arcs) {
    std::printf(
        "%-19s %s window %9.3f ms (attach %7.3f, service %9.3f, detach "
        "%7.3f) downtime %7.3f ms\n",
        a.service.c_str(),
        a.success ? "OK " : (a.quarantined ? "QUAR" : "FAIL"),
        to_ms(a.window_cycles), to_ms(a.attach_cycles),
        to_ms(a.service_cycles), to_ms(a.detach_cycles),
        to_ms(a.downtime_cycles));
    std::printf(
        "%-19s     attempts %llu (%llu retries, %llu faults), switches "
        "%llu/%llu, stranded %llu, violations %llu%s%s\n",
        "", static_cast<unsigned long long>(a.attempts),
        static_cast<unsigned long long>(a.retries),
        static_cast<unsigned long long>(a.faults),
        static_cast<unsigned long long>(a.switch_retries),
        static_cast<unsigned long long>(a.switch_attempts),
        static_cast<unsigned long long>(a.stranded_requests),
        static_cast<unsigned long long>(a.invariant_violations),
        a.rolled_back ? ", rolled back" : "",
        a.pages_total
            ? (" | pages " + std::to_string(a.pages_sent) + "/" +
               std::to_string(a.pages_total) + " over " +
               std::to_string(a.precopy_rounds) + " rounds")
                  .c_str()
            : "");
  }
  const std::vector<std::string> failures = r.gate_failures();
  if (failures.empty()) std::printf("verdict: all arcs completed cleanly\n");
  for (const std::string& why : failures)
    std::printf("verdict: gate FAILED: %s\n", why.c_str());
  return failures.empty();
}

bool write_verdict(const DependReport& r, const std::string& path) {
  if (path.empty()) return true;
  if (cluster::write_depend_report(r, path)) {
    std::printf("depend verdict written to %s (mercury.depend.v1)\n",
                path.c_str());
    return true;
  }
  std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::string clean_path, storm_path;
  consume_depend_flags(argc, argv, clean_path, storm_path);
  const mercury::bench::ObsOptions obs_opts =
      mercury::bench::consume_obs_flags(argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  const DependRuns& r = runs();
  publish_gauges(r.clean);
  bool ok = print_report("Dependability arcs, clean", r.clean);
  ok = print_report("Dependability arcs, under storm", r.storm) && ok;

  ok = write_verdict(r.clean, clean_path) && ok;
  ok = write_verdict(r.storm, storm_path) && ok;
  mercury::bench::write_obs_artifacts(obs_opts);
  return ok ? 0 : 1;
}
