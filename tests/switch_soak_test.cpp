// Chaos soak (tier-2 / soak): hundreds of supervised attach/detach cycles
// on a 4-CPU machine under a seeded fault storm, with a file-writing
// workload running throughout. Every request must terminate (committed
// after retries, or cleanly failed), and the verdict's gates must all pass:
// no stranded request, no invariant violation, no workload corruption, a
// converged run. Each run also writes its mercury.soak.v1 verdict (set
// MERCURY_SOAK_JSON to keep it).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "cluster/soak.hpp"
#include "core/fault_inject.hpp"
#include "core/mercury.hpp"
#include "core/switch_supervisor.hpp"
#include "kernel/syscalls.hpp"
#include "tests/injector_guard.hpp"
#include "tests/json_checker.hpp"
#include "tests/test_seed.hpp"

namespace mercury::testing {
namespace {

using cluster::SoakDriver;
using cluster::SoakParams;
using cluster::SoakReport;
using core::ExecMode;
using core::FaultStorm;
using core::Mercury;
using core::MercuryConfig;
using core::RequestState;
using core::SupervisedRequest;
using core::SupervisorConfig;
using core::SupervisorHealth;
using core::SwitchSupervisor;
using kernel::Sub;
using kernel::Sys;

constexpr int kWriters = 3;

/// A 4-CPU machine with the parallel switch pipeline, a supervisor, and a
/// file-writing workload whose integrity the soak audits afterwards.
struct SoakBox {
  hw::Machine machine;
  Mercury m;
  SwitchSupervisor sup;

  bool stop_writers = false;
  int writers_done = 0;
  std::uint64_t expected_bytes[kWriters] = {};
  std::uint64_t ops = 0;

  explicit SoakBox(SupervisorConfig scfg)
      : machine([] {
          hw::MachineConfig mc;
          mc.num_cpus = 4;
          mc.mem_kb = 96 * 1024;
          return mc;
        }()),
        m(machine,
          [] {
            core::MercuryConfig cfg;
            cfg.kernel_frames = (32ull * 1024 * 1024) / hw::kPageSize;
            cfg.switch_config.crew_workers = 3;
            return cfg;
          }()),
        sup(m.engine(), scfg) {
    for (int i = 0; i < kWriters; ++i) {
      m.kernel().spawn("writer" + std::to_string(i),
                       [this, i](Sys& s) -> Sub<void> {
                         const int fd =
                             s.open("/soak" + std::to_string(i), true);
                         while (!stop_writers) {
                           const std::size_t n =
                               co_await s.file_write(fd, 2048);
                           expected_bytes[i] += n;
                           ++ops;
                           co_await s.compute_us(120.0);
                         }
                         s.fsync(fd);
                         ++writers_done;
                         for (;;) co_await s.sleep_us(50'000.0);
                       });
    }
    // A memory-toucher so every switch has address spaces to protect and
    // saved contexts to fix up (the rollback-sensitive paths).
    m.kernel().spawn("toucher", [](Sys& s) -> Sub<void> {
      const auto va = s.mmap(16 * hw::kPageSize, true);
      for (;;) {
        s.touch_pages(va, 16, true);
        co_await s.compute_us(60.0);
      }
    });
    m.kernel().run_for(2 * hw::kCyclesPerMillisecond);
  }

  /// Stop the writers, let them drain, and count files whose final size
  /// disagrees with the bytes their writer recorded as committed.
  std::uint64_t audit_corruptions() {
    stop_writers = true;
    EXPECT_TRUE(m.kernel().run_until([&] { return writers_done == kWriters; },
                                     500 * hw::kCyclesPerMillisecond));
    std::uint64_t corruptions = 0;
    bool checked = false;
    m.kernel().spawn("checker", [&, this](Sys& s) -> Sub<void> {
      for (int i = 0; i < kWriters; ++i) {
        const std::int64_t size = s.file_size("/soak" + std::to_string(i));
        if (size < 0 ||
            static_cast<std::uint64_t>(size) != expected_bytes[i]) {
          ++corruptions;
          std::printf("CORRUPTION /soak%d size=%lld expected=%llu\n", i,
                      static_cast<long long>(size),
                      static_cast<unsigned long long>(expected_bytes[i]));
        }
      }
      checked = true;
      for (;;) co_await s.sleep_us(50'000.0);
    });
    EXPECT_TRUE(m.kernel().run_until([&] { return checked; },
                                     100 * hw::kCyclesPerMillisecond));
    return corruptions;
  }

  std::uint64_t total_bytes() const {
    std::uint64_t total = 0;
    for (int i = 0; i < kWriters; ++i) total += expected_bytes[i];
    return total;
  }
};

/// Where to put the soak verdict: $MERCURY_SOAK_JSON if set (the CI job
/// points it at an artifact path; a trailing '/' means "directory — keep
/// each test's verdict under its own name"), the test temp dir otherwise.
std::string soak_json_path(const char* fallback_name) {
  if (const char* env = std::getenv("MERCURY_SOAK_JSON")) {
    const std::string path = env;
    if (!path.empty() && path.back() == '/') return path + fallback_name;
    if (!path.empty()) return path;
  }
  return ::testing::TempDir() + fallback_name;
}

void expect_valid_soak_json(const SoakReport& report, const char* name) {
  const std::string path = soak_json_path(name);
  ASSERT_TRUE(cluster::write_soak_report(report, path)) << path;
  const std::string json = [&] {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    std::string content;
    char buf[4096];
    std::size_t n;
    while (f && (n = std::fread(buf, 1, sizeof buf, f)) > 0)
      content.append(buf, n);
    if (f) std::fclose(f);
    return content;
  }();
  ASSERT_FALSE(json.empty()) << path;
  EXPECT_TRUE(JsonChecker(json).ok()) << "soak verdict is not valid JSON";
  EXPECT_NE(json.find("\"schema\": \"mercury.soak.v1\""), std::string::npos);
  std::printf("SOAK_JSON %s\n", path.c_str());
}

TEST(SwitchSoak, SeededStormSoakConvergesWithoutCorruption) {
  // The CI soak job sets MERCURY_POSTMORTEM_DIR to keep the storm's
  // bundles as build artifacts; elsewhere they go to the temp dir.
  InjectorGuard guard(InjectorGuard::Bundles::kEnvOrTemp);
  const std::uint64_t seed = test_seed(0x50AC5EEDull);

  SupervisorConfig scfg;
  scfg.backoff_base_ms = 0.5;
  scfg.backoff_cap_ms = 8.0;
  scfg.max_attempts = 8;
  scfg.degraded_after = 3;
  scfg.quarantine_after = 8;
  scfg.probe_interval_ms = 30.0;
  scfg.seed = seed;
  SoakBox box(scfg);

  // The acceptance storm: every site at a 5% per-window rate, short bursts,
  // mild decay — transient glitches that keep coming but blow over.
  FaultStorm storm = FaultStorm::uniform(0.05, seed);
  storm.burst_windows = 2;
  storm.decay = 0.97;
  storm.max_trigger_depth = 8;
  core::fault_injector().arm_storm(storm);

  SoakParams params;
  params.cycles = 200;
  params.request_interval_ms = 2.0;
  // Interleave warm and cold attaches under the same storm: half the
  // cycles run with warm re-attach enabled (seeded flip schedule).
  params.warm_reattach_rate = 0.5;
  params.warm_seed = seed;
  SoakDriver driver(box.sup, params);
  ASSERT_TRUE(driver.run_to_completion(30'000 * hw::kCyclesPerMillisecond))
      << "soak did not drive all " << params.cycles
      << " supervised cycles to resolution";
  core::fault_injector().stop_storm();

  // Never a stranded request: every record the supervisor ever made —
  // driver cycles, internal quarantine detaches, probes — is terminal.
  for (const SupervisedRequest& r : box.sup.requests())
    EXPECT_TRUE(core::request_state_terminal(r.state))
        << "request " << r.id << " stranded in state "
        << core::request_state_name(r.state);
  EXPECT_EQ(box.sup.stats().submitted, box.sup.stats().resolved());

  // The storm actually bit, and the supervisor retried through it.
  EXPECT_GT(core::fault_injector().storm_fires(), 0u);
  EXPECT_GT(box.sup.stats().retries, 0u);
  // The warm/cold interleave exercised the warm path — but whether any
  // storm-era attach actually *went* warm is trajectory-dependent (an
  // unlucky storm can poison retention at every warm-enabled detach), so
  // assert it deterministically: with the storm quiet, a warm-enabled
  // detach arms retention and the next attach must take the dirty-set
  // path, soak state and all.
  // Drive the engine directly — the supervisor may have (legitimately)
  // ended the storm quarantined, and its fail-fast would mask the warm
  // path this block is here to prove.
  const std::uint64_t warm_before = box.m.engine().stats().warm_attaches;
  box.m.engine().set_warm_reattach(true);
  const hw::Cycles budget = 500 * hw::kCyclesPerMillisecond;
  if (box.m.engine().mode() != ExecMode::kNative) {
    ASSERT_TRUE(box.m.engine().switch_now(ExecMode::kNative, budget));
  }
  ASSERT_TRUE(box.m.engine().switch_now(ExecMode::kPartialVirtual, budget));
  ASSERT_TRUE(box.m.engine().switch_now(ExecMode::kNative, budget));
  ASSERT_TRUE(box.m.engine().switch_now(ExecMode::kPartialVirtual, budget));
  ASSERT_TRUE(box.m.engine().switch_now(ExecMode::kNative, budget));
  EXPECT_GT(box.m.engine().stats().warm_attaches, warm_before)
      << "post-storm warm re-attach did not take the dirty-set path";

  const std::uint64_t corruptions = box.audit_corruptions();
  EXPECT_GT(box.ops, 0u) << "the workload made no progress under the soak";

  driver.note_workload(box.ops, box.total_bytes(), corruptions);
  const SoakReport report = driver.report(seed);
  EXPECT_EQ(report.gate_failures(), std::vector<std::string>{});
  EXPECT_DOUBLE_EQ(report.storm_rate, 0.05)
      << "the verdict must quote the armed storm rate, not the decayed one";
  EXPECT_EQ(report.submitted, box.sup.stats().submitted)
      << "report must count every supervised request, internals included";
  EXPECT_GE(report.submitted, driver.submitted());
  EXPECT_GT(report.availability, 0.5);
  expect_valid_soak_json(report, "soak_storm.json");
}

TEST(SwitchSoak, PersistentStormQuarantinesCleanly) {
  InjectorGuard guard(InjectorGuard::Bundles::kEnvOrTemp);
  const std::uint64_t seed = test_seed(0xDEADC10Dull);

  SupervisorConfig scfg;
  scfg.backoff_base_ms = 0.5;
  scfg.max_attempts = 4;
  scfg.degraded_after = 2;
  scfg.quarantine_after = 4;
  scfg.probe_interval_ms = 0;  // the storm never ends; stay quarantined
  scfg.seed = seed;
  SoakBox box(scfg);

  core::fault_injector().arm_storm(FaultStorm::uniform(1.0, seed));

  SoakParams params;
  params.cycles = 20;
  params.request_interval_ms = 2.0;
  // Warm flips ride along (no warm attach can commit under a rate-1.0
  // storm, but the retention/disarm paths must survive the chaos).
  params.warm_reattach_rate = 0.5;
  params.warm_seed = seed;
  SoakDriver driver(box.sup, params);
  ASSERT_TRUE(driver.run_to_completion(10'000 * hw::kCyclesPerMillisecond));
  core::fault_injector().stop_storm();

  // Degradation, not deadlock: quarantine fails the virtual-target cycles
  // fast, the machine rests native, and nothing is stranded.
  EXPECT_EQ(box.sup.health(), SupervisorHealth::kQuarantined);
  EXPECT_GE(box.sup.stats().quarantines, 1u);
  EXPECT_GT(box.sup.stats().failed_quarantined, 0u);
  EXPECT_EQ(box.m.mode(), ExecMode::kNative);
  for (const SupervisedRequest& r : box.sup.requests())
    EXPECT_TRUE(core::request_state_terminal(r.state))
        << "request " << r.id << " stranded in state "
        << core::request_state_name(r.state);

  const std::uint64_t corruptions = box.audit_corruptions();
  driver.note_workload(box.ops, box.total_bytes(), corruptions);
  const SoakReport report = driver.report(seed);
  // A clean quarantine passes every gate.
  EXPECT_EQ(report.gate_failures(), std::vector<std::string>{});
  EXPECT_EQ(report.final_health, "quarantined");
  EXPECT_EQ(report.final_mode, "native");
  expect_valid_soak_json(report, "soak_quarantine.json");
}

TEST(SwitchSoak, InternalProbeInFlightDoesNotReadAsStranded) {
  InjectorGuard guard(InjectorGuard::Bundles::kEnvOrTemp);
  const std::uint64_t seed = test_seed(0xBAD9205Eull);

  SupervisorConfig scfg;
  scfg.backoff_base_ms = 0.5;
  scfg.max_attempts = 2;
  scfg.degraded_after = 1;
  scfg.quarantine_after = 2;
  scfg.probe_interval_ms = 5.0;  // probes keep firing under the storm
  scfg.seed = seed;
  SoakBox box(scfg);

  core::fault_injector().arm_storm(FaultStorm::uniform(1.0, seed));

  SoakParams params;
  params.cycles = 4;
  params.request_interval_ms = 2.0;
  SoakDriver driver(box.sup, params);
  ASSERT_TRUE(driver.run_to_completion(10'000 * hw::kCyclesPerMillisecond));
  ASSERT_EQ(box.sup.health(), SupervisorHealth::kQuarantined);

  // The storm never ends, so recovery probes fire and fail forever. Catch
  // one mid-flight and snapshot the verdict at that instant: scheduled
  // supervisor-internal work must not read as a stranded request
  // (regression: `unresolved` counted internal probes and failed the gate).
  ASSERT_TRUE(box.m.kernel().run_until(
      [&] {
        for (const SupervisedRequest& r : box.sup.requests())
          if (r.internal && !core::request_state_terminal(r.state))
            return true;
        return false;
      },
      10'000 * hw::kCyclesPerMillisecond))
      << "no supervisor-internal request ever went live";
  const SoakReport report = driver.report(seed);
  EXPECT_EQ(report.gate_failures(), std::vector<std::string>{});
  core::fault_injector().stop_storm();
}

}  // namespace
}  // namespace mercury::testing
