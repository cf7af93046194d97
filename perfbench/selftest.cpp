// Self-tests of the benchmark: the phase-decomposition bookkeeping, the
// tail statistic, and determinism of every workload's simulated results.
//
//   perfbench_selftest        (exit 0 = all checks passed)
#include <cstdio>
#include <memory>

#include "core/mercury.hpp"
#include "obs/postmortem.hpp"
#include "kernel/syscalls.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      ++g_failures;                                                   \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);     \
    }                                                                 \
  } while (0)

using namespace mercury;

void test_tail() {
  CHECK(perfbench::tail({}).samples == 0);
  const perfbench::Tail small = perfbench::tail({3, 1, 2});
  CHECK(small.value == 3 && small.percentile == 100 && small.samples == 3);
  std::vector<double> v;
  for (int i = 20; i >= 1; --i) v.push_back(i);
  const perfbench::Tail t = perfbench::tail(v);
  CHECK(t.value == 10);  // ten samples (11..20) lie beyond it
  CHECK(t.percentile == 50);
  CHECK(perfbench::median({4, 1, 3, 2}) == 2.5);
}

/// Named parts plus residual equal the requester-visible total for every
/// switch, on the crew path and in both directions. The residual is not
/// asserted to be zero.
void test_phase_identity() {
  hw::MachineConfig mc;
  mc.num_cpus = 4;
  mc.mem_kb = 96 * 1024;
  hw::Machine machine(mc);
  core::MercuryConfig cfg;
  cfg.kernel_frames = (32ull * 1024 * 1024) / hw::kPageSize;
  cfg.switch_config.crew_workers = 3;
  core::Mercury m(machine, cfg);
  m.kernel().spawn("resident", [](kernel::Sys& s) -> kernel::Sub<void> {
    const auto va = s.mmap(32 * hw::kPageSize, true);
    s.touch_pages(va, 32, true);
    for (;;) co_await s.sleep_us(50'000.0);
  });
  m.kernel().run_for(5 * hw::kCyclesPerMillisecond);
  for (int i = 0; i < 4; ++i) {
    for (const auto target :
         {core::ExecMode::kPartialVirtual, core::ExecMode::kNative}) {
      CHECK(m.switch_to(target));
      const bool attach = target != core::ExecMode::kNative;
      const perfbench::SwitchSample s =
          perfbench::sample_switch(m.engine().stats(), attach);
      CHECK(s.elapsed > 0);
      CHECK(static_cast<std::int64_t>(s.named_parts()) + s.residual() ==
            static_cast<std::int64_t>(s.total()));
      CHECK(s.total() == s.defer + s.elapsed);
    }
    m.kernel().run_for(hw::us_to_cycles(1500.0 + 300.0 * i));
  }
}

/// Two iterations with the same seed give identical simulated results, and
/// every workload's checks pass. A different seed draws different inputs.
void test_determinism() {
  for (const std::string& w : perfbench::workload_names()) {
    const perfbench::IterationResult a = perfbench::run_iteration(w, 7);
    const perfbench::IterationResult b = perfbench::run_iteration(w, 7);
    const perfbench::IterationResult c = perfbench::run_iteration(w, 8);
    for (const std::string& f : a.failures)
      std::printf("  %s: %s\n", w.c_str(), f.c_str());
    CHECK(a.failures.empty() && b.failures.empty() && c.failures.empty());
    CHECK(a.attempted > 0);
    CHECK(a.sim == b.sim);
    CHECK(a.sim != c.sim);
    std::printf("%s: %zu simulated values, identical across two runs: %s\n",
                w.c_str(), a.sim.size(), a.sim == b.sim ? "yes" : "NO");
  }
}

}  // namespace

int main() {
  // Rollback postmortems land in the build tree, not the working directory.
  mercury::obs::default_postmortem_dir_beside_binary();
  test_tail();
  test_phase_identity();
  test_determinism();
  std::printf("%s (%d failed checks)\n", g_failures ? "FAILED" : "OK",
              g_failures);
  return g_failures ? 1 : 0;
}
