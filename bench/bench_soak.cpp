// Chaos-soak bench: supervised attach/detach cycles under a seeded fault
// storm while a dbench fileserver mix hammers the same kernel — the
// robustness counterpart of bench_modeswitch. Reports availability, retry
// and quarantine counts, and (with --soak-json <path>) emits the
// mercury.soak.v1 verdict. The exit code is the verdict: nonzero exactly
// when SoakReport::gate_failures() lists a failure, printed one per line.
//
//   bench_soak --soak-json soak.json [--metrics-json m.json]
//   python3 scripts/check_bench_json.py soak.json --schema soak
//
// With --timeseries-json and/or --profile-json the bench additionally runs
// a 4-node ClusterSoak (per-node supervisors, cluster-wide switch waves)
// and emits mercury.timeseries.v1 (per-node sampled series) and
// mercury.profile.v1 (wall/sim attribution of the discrete-event engine):
//
//   bench_soak --timeseries-json ts.json --profile-json prof.json
//   python3 scripts/check_bench_json.py ts.json --schema timeseries
//   python3 scripts/check_bench_json.py prof.json --schema profile
//
// Seeded via MERCURY_TEST_SEED (same convention as the test suite), so a
// failing CI storm replays bit-for-bit.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

#include <cstdio>
#include <cstdlib>

#include "cluster/soak.hpp"
#include "core/fault_inject.hpp"
#include "core/mercury.hpp"
#include "core/switch_supervisor.hpp"
#include "kernel/syscalls.hpp"
#include "workloads/dbench.hpp"

namespace {

using namespace mercury;
using cluster::SoakDriver;
using cluster::SoakParams;
using cluster::SoakReport;
using core::FaultStorm;
using core::SupervisorConfig;

std::uint64_t soak_seed() {
  if (const char* env = std::getenv("MERCURY_TEST_SEED"))
    if (const std::uint64_t s = std::strtoull(env, nullptr, 0)) return s;
  return 0x50AC0BE7ull;
}

struct SoakRunParams {
  std::uint64_t cycles = 120;
  double storm_rate = 0.05;
};

SoakReport run_soak(const SoakRunParams& rp) {
  const std::uint64_t seed = soak_seed();

  hw::MachineConfig mc;
  mc.num_cpus = 4;
  mc.mem_kb = 96 * 1024;
  hw::Machine machine(mc);
  core::MercuryConfig cfg;
  cfg.kernel_frames = (32ull * 1024 * 1024) / hw::kPageSize;
  cfg.switch_config.crew_workers = 3;
  core::Mercury m(machine, cfg);

  SupervisorConfig scfg;
  scfg.backoff_base_ms = 0.5;
  scfg.backoff_cap_ms = 8.0;
  scfg.degraded_after = 3;
  scfg.quarantine_after = 8;
  scfg.probe_interval_ms = 30.0;
  scfg.seed = seed;
  core::SwitchSupervisor sup(m.engine(), scfg);

  FaultStorm storm = FaultStorm::uniform(rp.storm_rate, seed);
  storm.burst_windows = 2;
  storm.decay = 0.97;
  core::fault_injector().arm_storm(storm);

  SoakParams sp;
  sp.cycles = rp.cycles;
  sp.request_interval_ms = 2.0;
  SoakDriver driver(sup, sp);
  driver.start();

  // The workload drives the kernel; soak ticks interleave on its timers.
  workloads::DbenchParams dp;
  dp.clients = 3;
  dp.loops_per_client = 16;
  const workloads::DbenchResult db = workloads::Dbench::run(m.kernel(), dp);

  // Finish whatever switch cycles the fileserver run did not cover.
  driver.run_to_completion(30'000 * hw::kCyclesPerMillisecond);
  core::fault_injector().stop_storm();

  driver.note_workload(db.bytes_moved / (dp.chunk_kb * 1024), db.bytes_moved,
                       0);
  return driver.report(seed);
}

/// Print `report`'s gate failures under `title`; true when there are none.
bool passes_gates(const char* title, const SoakReport& report) {
  const std::vector<std::string> failures = report.gate_failures();
  for (const std::string& why : failures)
    std::printf("%s gate FAILED: %s\n", title, why.c_str());
  return failures.empty();
}

SoakReport g_last;
bool g_have_last = false;

const SoakReport& last_report(const SoakRunParams& rp = {}) {
  if (!g_have_last) {
    g_last = run_soak(rp);
    g_have_last = true;
  }
  return g_last;
}

void BM_SupervisedSoak(benchmark::State& state) {
  for (auto _ : state) {
    const SoakReport& r = last_report();
    state.counters["requests"] = static_cast<double>(r.submitted);
    state.counters["committed"] = static_cast<double>(r.committed);
    state.counters["retries"] = static_cast<double>(r.retries);
    state.counters["storm_fires"] = static_cast<double>(r.storm_fires);
    state.counters["availability"] = r.availability;
    state.counters["converged"] = r.converged ? 1.0 : 0.0;
  }
}
BENCHMARK(BM_SupervisedSoak)->Unit(benchmark::kMillisecond)->Iterations(1);

/// Strip `--soak-json <path>` / `--soak-json=<path>` before
/// benchmark::Initialize (same contract as consume_obs_flags).
std::string consume_soak_flag(int& argc, char** argv) {
  std::string path;
  int w = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--soak-json=", 0) == 0) {
      path = arg.substr(12);
      continue;
    }
    if (arg == "--soak-json" && i + 1 < argc) {
      path = argv[++i];
      continue;
    }
    argv[w++] = argv[i];
  }
  argc = w;
  argv[argc] = nullptr;
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string soak_json = consume_soak_flag(argc, argv);
  const mercury::bench::ObsOptions obs_opts =
      mercury::bench::consume_obs_flags(argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  const SoakReport& r = last_report();
  std::printf(
      "\n=== Supervised soak (seed %llu, storm rate %.3f) ===\n"
      "requests: %llu submitted, %llu committed, %llu failed, "
      "%llu unresolved\n"
      "supervisor: %llu attempts, %llu retries, %llu quarantines, "
      "%llu recoveries, final health %s\n"
      "storm: %llu fires over %llu windows; engine rollbacks %llu\n"
      "availability: %.5f (%llu interruptions); workload %.1f MB moved; "
      "converged: %s, final mode %s\n",
      static_cast<unsigned long long>(r.seed), r.storm_rate,
      static_cast<unsigned long long>(r.submitted),
      static_cast<unsigned long long>(r.committed),
      static_cast<unsigned long long>(r.failed_deadline + r.failed_attempts +
                                      r.failed_quarantined + r.cancelled),
      static_cast<unsigned long long>(r.unresolved),
      static_cast<unsigned long long>(r.attempts),
      static_cast<unsigned long long>(r.retries),
      static_cast<unsigned long long>(r.quarantines),
      static_cast<unsigned long long>(r.recoveries), r.final_health.c_str(),
      static_cast<unsigned long long>(r.storm_fires),
      static_cast<unsigned long long>(r.storm_windows),
      static_cast<unsigned long long>(r.rollbacks), r.availability,
      static_cast<unsigned long long>(r.interruptions),
      static_cast<double>(r.workload_bytes) / (1024.0 * 1024.0),
      r.converged ? "yes" : "NO", r.final_mode.c_str());
  std::printf(
      "pause: %llu intervals, %llu unattributed, worst %llu cycles (%s)\n",
      static_cast<unsigned long long>(r.pause_intervals),
      static_cast<unsigned long long>(r.pause_unattributed),
      static_cast<unsigned long long>(r.pause_worst_cycles),
      r.pause_worst_cause.c_str());

  if (!soak_json.empty()) {
    if (mercury::cluster::write_soak_report(r, soak_json))
      std::printf("soak verdict written to %s (mercury.soak.v1)\n",
                  soak_json.c_str());
    else
      std::fprintf(stderr, "cannot open %s for writing\n", soak_json.c_str());
  }

  bool ok = passes_gates("soak", r);

  // Fleet leg: a 4-node cluster soak producing the time-series and feeding
  // the engine profiler cross-node dispatch samples. Only runs when one of
  // the fleet artifacts was requested; its verdict gates the exit code too.
  if (!obs_opts.timeseries_json.empty() || !obs_opts.profile_json.empty()) {
    cluster::ClusterSoakParams cp;
    cp.seed = soak_seed();
    cluster::ClusterSoak cs(cp);
    cs.run();  // a wave left unresolved reads as converged: false
    const SoakReport fleet = cs.report();
    std::printf(
        "\n=== Cluster soak (%zu nodes, %llu waves) ===\n"
        "fleet: %llu submitted, %llu committed, %llu unresolved, "
        "mean availability %.5f, converged: %s\n",
        fleet.nodes.size(), static_cast<unsigned long long>(cs.waves_run()),
        static_cast<unsigned long long>(fleet.submitted),
        static_cast<unsigned long long>(fleet.committed),
        static_cast<unsigned long long>(fleet.unresolved), fleet.availability,
        fleet.converged ? "yes" : "NO");
    for (const cluster::NodeSoakStats& n : fleet.nodes)
      std::printf("  %s: %llu/%llu committed, %llu retries, avail %.5f "
                  "(%llu interruptions, %llu/%llu down cycles), pause "
                  "%llu/%llu worst %llu (%s), health %s, mode %s\n",
                  n.name.c_str(),
                  static_cast<unsigned long long>(n.committed),
                  static_cast<unsigned long long>(n.submitted),
                  static_cast<unsigned long long>(n.retries), n.availability,
                  static_cast<unsigned long long>(n.interruptions),
                  static_cast<unsigned long long>(n.downtime_cycles),
                  static_cast<unsigned long long>(n.span_cycles),
                  static_cast<unsigned long long>(n.pause_intervals),
                  static_cast<unsigned long long>(n.pause_unattributed),
                  static_cast<unsigned long long>(n.pause_worst_cycles),
                  n.pause_worst_cause.c_str(), n.final_health.c_str(),
                  n.final_mode.c_str());
    ok = passes_gates("fleet soak", fleet) && ok;
    if (!soak_json.empty()) {
      const std::string fleet_json = soak_json + ".fleet.json";
      if (mercury::cluster::write_soak_report(fleet, fleet_json))
        std::printf("fleet verdict written to %s (mercury.soak.v1)\n",
                    fleet_json.c_str());
      else
        std::fprintf(stderr, "cannot open %s for writing\n",
                     fleet_json.c_str());
    }
    if (!obs_opts.timeseries_json.empty()) {
      const std::string ts = cs.timeseries_json();
      if (std::FILE* f = std::fopen(obs_opts.timeseries_json.c_str(), "w")) {
        std::fwrite(ts.data(), 1, ts.size(), f);
        std::fclose(f);
        std::printf("time series written to %s (mercury.timeseries.v1)\n",
                    obs_opts.timeseries_json.c_str());
      } else {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     obs_opts.timeseries_json.c_str());
      }
    }
  }

  mercury::bench::write_obs_artifacts(obs_opts);
  return ok ? 0 : 1;
}
