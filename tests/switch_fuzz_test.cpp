// Seeded switch fuzzer: random mode-switch requests interleaved with
// workload traffic, most of them carrying a randomly planned fault. After
// every round the machine must be internally consistent (invariant checker)
// and the workload must still run; the printed MERCURY_TEST_SEED replays any
// failure exactly.
#include <gtest/gtest.h>

#include <string>

#include "core/fault_inject.hpp"
#include "core/invariants.hpp"
#include "core/mercury.hpp"
#include "kernel/syscalls.hpp"
#include "tests/test_seed.hpp"
#include "util/rng.hpp"

namespace mercury::testing {
namespace {

using core::ExecMode;
using core::Mercury;
using kernel::Sub;
using kernel::Sys;

ExecMode random_mode(util::Rng& rng) {
  switch (rng.below(3)) {
    case 0: return ExecMode::kNative;
    case 1: return ExecMode::kPartialVirtual;
    default: return ExecMode::kFullVirtual;
  }
}

void fuzz(std::uint64_t seed, core::SwitchConfig sc,
          bool randomize_crew = false, bool randomize_warm = false) {
  util::Rng rng(seed);
  hw::MachineConfig mc;
  if (randomize_crew) {
    // Random machine width and crew size (0 = the CP alone, up to every
    // other CPU recruited). Seed-deterministic, so
    // MERCURY_TEST_SEED replays the exact crew shape.
    mc.num_cpus = 1 + rng.below(4);
    sc.crew_workers = rng.below(mc.num_cpus);
  } else {
    mc.num_cpus = rng.chance(0.3) ? 2 : 1;
  }
  mc.mem_kb = 96 * 1024;
  hw::Machine machine(mc);
  core::MercuryConfig cfg;
  cfg.kernel_frames = (32ull * 1024 * 1024) / hw::kPageSize;
  cfg.switch_config = sc;
  Mercury m(machine, cfg);

  long progress = 0;
  for (int i = 0; i < 3; ++i) {
    m.kernel().spawn("fuzz" + std::to_string(i), [&](Sys& s) -> Sub<void> {
      const auto va = s.mmap(8 * hw::kPageSize, true);
      const int fd = s.open("/fuzz", true);
      for (;;) {
        s.touch_pages(va, 8, true);
        co_await s.file_write(fd, 2048);
        co_await s.compute_us(30.0 + 50.0 * rng.uniform());
        ++progress;
      }
    });
  }
  m.kernel().run_for(2 * hw::kCyclesPerMillisecond);

  core::FaultInjector& fi = core::fault_injector();
  std::uint64_t faults_fired = 0;
  std::uint64_t commits = 0;
  const int rounds = 40;
  for (int round = 0; round < rounds; ++round) {
    const std::string ctx =
        "seed=" + std::to_string(seed) + " round=" + std::to_string(round);
    const ExecMode before = m.mode();
    const ExecMode target = random_mode(rng);
    // Flip warm re-attach mid-run: rounds interleave warm attaches, cold
    // attaches, retaining detaches, and mid-window disables (which must
    // void the tracked window, never feed it to a later warm rebuild).
    if (randomize_warm) m.engine().set_warm_reattach(rng.chance(0.5));
    const bool faulted = rng.chance(0.6);
    const std::uint64_t injected_before = fi.injected();
    if (faulted) fi.arm(core::random_fault_plan(rng));

    m.engine().request(target);
    ASSERT_TRUE(m.kernel().run_until([&] { return m.engine().idle(); },
                                     300 * hw::kCyclesPerMillisecond))
        << ctx;
    fi.disarm();

    const bool fired = fi.injected() > injected_before;
    faults_fired += fired ? 1 : 0;
    if (fired)
      EXPECT_EQ(m.mode(), before) << ctx << ": rollback left the wrong mode";
    else if (m.mode() == target)
      ++commits;

    const core::InvariantReport report =
        core::check_machine_invariants(m.engine());
    ASSERT_TRUE(report.ok()) << ctx << "\n" << report.to_string();

    // Interleave workload traffic between switches.
    m.kernel().run_for(
        hw::us_to_cycles(100.0 + 900.0 * rng.uniform()));
  }

  // Finish native and alive.
  fi.disarm();
  m.engine().request(ExecMode::kNative);
  ASSERT_TRUE(m.kernel().run_until([&] { return m.engine().idle(); },
                                   300 * hw::kCyclesPerMillisecond));
  EXPECT_EQ(m.mode(), ExecMode::kNative);
  const core::InvariantReport final_report =
      core::check_machine_invariants(m.engine());
  EXPECT_TRUE(final_report.ok()) << final_report.to_string();
  EXPECT_GT(progress, 0) << "workload never ran";
  EXPECT_EQ(m.hypervisor().stats().domains_crashed, 0u);
  EXPECT_EQ(m.kernel().stats().gp_faults_on_resume, 0u);
  std::printf("fuzz: %d rounds, %llu faults fired, %llu clean commits\n",
              rounds, static_cast<unsigned long long>(faults_fired),
              static_cast<unsigned long long>(commits));
}

TEST(SwitchFuzz, LazyConfigSurvivesRandomFaultedSwitches) {
  fuzz(test_seed(0xC0FFEE01ull), {});
}

TEST(SwitchFuzz, EagerConfigSurvivesRandomFaultedSwitches) {
  core::SwitchConfig sc;
  sc.eager_page_tracking = true;
  sc.eager_selector_fixup = true;
  // Self-check after every commit/rollback, on top of the per-round checks.
  sc.paranoid_invariants = true;
  fuzz(test_seed(0xC0FFEE02ull), sc);
}

TEST(SwitchFuzz, CrewConfigSurvivesRandomFaultedSwitches) {
  core::SwitchConfig sc;
  sc.eager_selector_fixup = true;  // exercise the crew fixup phase too
  sc.paranoid_invariants = true;
  fuzz(test_seed(0xC0FFEE03ull), sc, /*randomize_crew=*/true);
}

TEST(SwitchFuzz, WarmReattachConfigSurvivesRandomFaultedSwitches) {
  core::SwitchConfig sc;
  sc.warm_reattach = true;
  sc.paranoid_invariants = true;
  fuzz(test_seed(0xC0FFEE04ull), sc, /*randomize_crew=*/false,
       /*randomize_warm=*/true);
}

TEST(SwitchFuzz, WarmReattachCrewConfigSurvivesRandomFaultedSwitches) {
  core::SwitchConfig sc;
  sc.warm_reattach = true;
  sc.eager_selector_fixup = true;
  sc.paranoid_invariants = true;
  fuzz(test_seed(0xC0FFEE05ull), sc, /*randomize_crew=*/true,
       /*randomize_warm=*/true);
}

}  // namespace
}  // namespace mercury::testing
