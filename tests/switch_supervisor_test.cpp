// The switch supervisor: deterministic backoff schedule, retry-after-
// rollback, per-request deadlines (with engine revocation), the
// Healthy -> Degraded -> Quarantined health machine with probe recovery,
// fault-storm scheduling, and the cycle-identity promise of the unfaulted
// supervised path.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "core/fault_inject.hpp"
#include "core/mercury.hpp"
#include "core/switch_supervisor.hpp"
#include "kernel/syscalls.hpp"
#include "obs/obs.hpp"
#include "obs/postmortem.hpp"
#include "tests/test_seed.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace mercury::testing {
namespace {

using core::ExecMode;
using core::FaultInjector;
using core::FaultKind;
using core::FaultPlan;
using core::FaultSite;
using core::FaultStorm;
using core::Mercury;
using core::MercuryConfig;
using core::RequestOptions;
using core::RequestState;
using core::SupervisedRequest;
using core::SupervisorConfig;
using core::SupervisorHealth;
using core::SwitchSupervisor;
using kernel::Sub;
using kernel::Sys;

/// Leave the global injector quiet (no plan, no storm) and route postmortem
/// bundles into the test temp dir (dropped again if the test passed).
struct InjectorGuard {
  InjectorGuard() { obs::set_postmortem_dir(::testing::TempDir()); }
  ~InjectorGuard() {
    core::fault_injector().disarm();
    core::fault_injector().stop_storm();
    if (!::testing::Test::HasFailure()) obs::remove_own_postmortems();
    obs::set_postmortem_dir("");
  }
};

struct MercuryBox {
  explicit MercuryBox(MercuryConfig cfg = {}, std::size_t mem_mb = 128,
                      std::size_t cpus = 1) {
    hw::MachineConfig mc;
    mc.mem_kb = mem_mb * 1024;
    mc.num_cpus = cpus;
    machine = std::make_unique<hw::Machine>(mc);
    if (cfg.kernel_frames == 0)
      cfg.kernel_frames = ((mem_mb / 2) * 1024ull * 1024) / hw::kPageSize;
    mercury = std::make_unique<Mercury>(*machine, cfg);
  }
  std::unique_ptr<hw::Machine> machine;
  std::unique_ptr<Mercury> mercury;
};

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::string content;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) content.append(buf, n);
  std::fclose(f);
  return content;
}

TEST(SwitchSupervisor, BackoffScheduleIsDeterministicUnderSeed) {
  const std::uint64_t seed = test_seed(0xB0FF5EEDull);
  SupervisorConfig cfg;
  cfg.backoff_base_ms = 1.0;
  cfg.backoff_factor = 2.0;
  cfg.backoff_cap_ms = 16.0;
  cfg.backoff_jitter = 0.25;

  // Same seed, same attempt sequence: the schedule replays exactly.
  util::Rng a(seed), b(seed);
  std::vector<hw::Cycles> first, second;
  for (std::uint32_t attempt = 1; attempt <= 10; ++attempt) {
    first.push_back(SwitchSupervisor::backoff_delay(cfg, attempt, a));
    second.push_back(SwitchSupervisor::backoff_delay(cfg, attempt, b));
  }
  EXPECT_EQ(first, second);

  // Every delay lands inside the jitter envelope of its nominal value, and
  // the nominal value is capped.
  for (std::uint32_t attempt = 1; attempt <= 10; ++attempt) {
    double nominal_ms = cfg.backoff_base_ms;
    for (std::uint32_t i = 1; i < attempt; ++i) nominal_ms *= cfg.backoff_factor;
    nominal_ms = std::min(nominal_ms, cfg.backoff_cap_ms);
    const hw::Cycles lo =
        hw::us_to_cycles(nominal_ms * 1000.0 * (1.0 - cfg.backoff_jitter));
    const hw::Cycles hi =
        hw::us_to_cycles(nominal_ms * 1000.0 * (1.0 + cfg.backoff_jitter));
    EXPECT_GE(first[attempt - 1], lo) << "attempt " << attempt;
    EXPECT_LE(first[attempt - 1], hi) << "attempt " << attempt;
  }

  // Zero jitter collapses to the exact nominal schedule.
  SupervisorConfig flat = cfg;
  flat.backoff_jitter = 0.0;
  util::Rng c(seed);
  EXPECT_EQ(SwitchSupervisor::backoff_delay(flat, 1, c),
            hw::us_to_cycles(1000.0));
  EXPECT_EQ(SwitchSupervisor::backoff_delay(flat, 3, c),
            hw::us_to_cycles(4000.0));
  EXPECT_EQ(SwitchSupervisor::backoff_delay(flat, 10, c),
            hw::us_to_cycles(16'000.0)) << "cap applies";

  // Distinct (fixed) seeds diverge somewhere in a 10-delay sequence.
  util::Rng d(12345), e(54321);
  bool diverged = false;
  for (std::uint32_t attempt = 1; attempt <= 10; ++attempt)
    if (SwitchSupervisor::backoff_delay(cfg, attempt, d) !=
        SwitchSupervisor::backoff_delay(cfg, attempt, e))
      diverged = true;
  EXPECT_TRUE(diverged);
}

TEST(SwitchSupervisor, UnfaultedSwitchNowIsCycleIdenticalToTheBareEngine) {
  // Supervision must be free until something goes wrong: a full supervised
  // round trip lands on exactly the engine's clock — no timers armed, no
  // cycles charged by the bookkeeping.
  MercuryBox bare;
  ASSERT_TRUE(bare.mercury->engine().switch_now(ExecMode::kPartialVirtual));
  ASSERT_TRUE(bare.mercury->engine().switch_now(ExecMode::kNative));

  MercuryBox supervised;
  SwitchSupervisor sup(supervised.mercury->engine());
  ASSERT_TRUE(sup.switch_now(ExecMode::kPartialVirtual));
  ASSERT_TRUE(sup.switch_now(ExecMode::kNative));
  EXPECT_EQ(sup.stats().committed, 2u);
  EXPECT_EQ(sup.stats().backoffs, 0u);
  EXPECT_EQ(sup.stats().retries, 0u);

  EXPECT_EQ(bare.mercury->engine().stats().last_attach_cycles,
            supervised.mercury->engine().stats().last_attach_cycles);
  EXPECT_EQ(bare.mercury->engine().stats().last_detach_cycles,
            supervised.mercury->engine().stats().last_detach_cycles);
  EXPECT_EQ(bare.machine->cpu(0).now(), supervised.machine->cpu(0).now())
      << "the supervised happy path charged simulated cycles";
}

TEST(SwitchSupervisor, RetryAfterRollbackCommits) {
  InjectorGuard guard;
  MercuryBox box;
  Mercury& m = *box.mercury;
  SupervisorConfig cfg;
  cfg.backoff_base_ms = 0.5;
  SwitchSupervisor sup(m.engine(), cfg);

  FaultPlan plan;
  plan.site = FaultSite::kShardProtect;
  plan.trigger_count = 1;
  core::fault_injector().arm(plan);

  EXPECT_TRUE(sup.switch_now(ExecMode::kPartialVirtual))
      << "one single-shot fault must cost a retry, not the request";
  EXPECT_EQ(m.mode(), ExecMode::kPartialVirtual);
  EXPECT_EQ(m.engine().stats().rollbacks, 1u);
  EXPECT_EQ(sup.stats().attempts, 2u);
  EXPECT_EQ(sup.stats().retries, 1u);
  EXPECT_EQ(sup.stats().backoffs, 1u);
  EXPECT_GT(sup.stats().total_backoff_cycles, 0u);
  // One failed attach, then a success: the streak reset, health held.
  EXPECT_EQ(sup.health(), SupervisorHealth::kHealthy);
  EXPECT_EQ(sup.consecutive_failures(), 0u);

  ASSERT_TRUE(sup.switch_now(ExecMode::kNative));
}

TEST(SwitchSupervisor, DeadlineFailsTheRequestAndRevokesTheEngine) {
  MercuryBox box;
  Mercury& m = *box.mercury;
  SwitchSupervisor sup(m.engine());

  // A held VO section defers the commit indefinitely (§5.1.1); the request
  // deadline must fire first, fail the request, and revoke the engine
  // request so the switch cannot commit later behind the caller's back.
  bool release_now = false;
  m.kernel().spawn("holder", [&](Sys& s) -> Sub<void> {
    core::VirtObject::Section section(m.native_vo());
    while (!release_now) co_await s.sleep_us(2'000.0);
    section.release();
    for (;;) co_await s.sleep_us(10'000.0);
  });
  m.kernel().run_for(hw::kCyclesPerMillisecond);
  ASSERT_EQ(m.native_vo().active_refs(), 1);

  bool done = false;
  RequestState terminal = RequestState::kQueued;
  RequestOptions opts;
  opts.deadline = 30 * hw::kCyclesPerMillisecond;
  sup.submit(ExecMode::kPartialVirtual, opts,
             [&](const SupervisedRequest& r) {
               done = true;
               terminal = r.state;
             });
  m.kernel().run_for(60 * hw::kCyclesPerMillisecond);

  EXPECT_TRUE(done);
  EXPECT_EQ(terminal, RequestState::kFailedDeadline);
  EXPECT_EQ(sup.stats().failed_deadline, 1u);
  EXPECT_GE(m.engine().stats().cancels, 1u) << "in-flight request not revoked";
  EXPECT_TRUE(m.engine().idle());
  EXPECT_TRUE(sup.idle());
  // Deadline kills are not evidence against virtualization health.
  EXPECT_EQ(sup.health(), SupervisorHealth::kHealthy);
  EXPECT_EQ(sup.consecutive_failures(), 0u);

  release_now = true;
  m.kernel().run_for(100 * hw::kCyclesPerMillisecond);
  EXPECT_EQ(m.mode(), ExecMode::kNative)
      << "a deadline-failed request committed after the fact";
}

TEST(SwitchSupervisor, ExhaustedAttemptBudgetFailsTheRequest) {
  InjectorGuard guard;
  MercuryBox box;
  Mercury& m = *box.mercury;
  SupervisorConfig cfg;
  cfg.backoff_base_ms = 0.5;
  cfg.quarantine_after = 100;  // keep health out of this test's way
  cfg.degraded_after = 2;
  SwitchSupervisor sup(m.engine(), cfg);

  core::fault_injector().arm_storm(FaultStorm::uniform(1.0, 7));
  RequestOptions opts;
  opts.max_attempts = 3;
  EXPECT_FALSE(sup.switch_now(ExecMode::kPartialVirtual,
                              500 * hw::kCyclesPerMillisecond, opts));
  core::fault_injector().stop_storm();

  const SupervisedRequest* req = sup.find(1);
  ASSERT_NE(req, nullptr);
  EXPECT_EQ(req->state, RequestState::kFailedAttempts);
  EXPECT_EQ(req->attempts, 3u);
  EXPECT_EQ(sup.stats().failed_attempts, 1u);
  EXPECT_EQ(m.mode(), ExecMode::kNative);
  EXPECT_EQ(sup.health(), SupervisorHealth::kDegraded)
      << "3 consecutive failed attaches pass degraded_after=2";
}

TEST(SwitchSupervisor, QuarantineFailsFastAndProbeRecovers) {
  InjectorGuard guard;
  MercuryBox box;
  Mercury& m = *box.mercury;
  SupervisorConfig cfg;
  cfg.backoff_base_ms = 0.5;
  cfg.degraded_after = 2;
  cfg.quarantine_after = 3;
  cfg.probe_interval_ms = 20.0;
  SwitchSupervisor sup(m.engine(), cfg);

  const std::uint64_t bundles_before = obs::postmortem_count();
  core::fault_injector().arm_storm(
      FaultStorm::uniform(1.0, test_seed(0xC0FFEEull)));
  EXPECT_FALSE(sup.switch_now(ExecMode::kPartialVirtual));
  EXPECT_EQ(sup.health(), SupervisorHealth::kQuarantined);
  EXPECT_EQ(sup.stats().quarantines, 1u);
  EXPECT_EQ(sup.stats().failed_quarantined, 1u);
  EXPECT_EQ(m.mode(), ExecMode::kNative) << "quarantined means native";

  // The quarantine left a postmortem bundle naming itself.
  EXPECT_GT(obs::postmortem_count(), bundles_before);
  const std::string bundle = read_file(obs::last_postmortem_path());
  EXPECT_NE(bundle.find("\"reason\":\"quarantine\""), std::string::npos);

  // New virtual-target requests fail fast via their callbacks — no retry
  // grind against a mode the health machine has written off.
  bool done = false;
  RequestState terminal = RequestState::kQueued;
  sup.submit(ExecMode::kPartialVirtual, {}, [&](const SupervisedRequest& r) {
    done = true;
    terminal = r.state;
  });
  EXPECT_TRUE(done) << "quarantine fast-fail must resolve synchronously";
  EXPECT_EQ(terminal, RequestState::kFailedQuarantined);
  // Native-target requests still pass: native always works.
  EXPECT_TRUE(sup.switch_now(ExecMode::kNative));

  // The storm blows over; the next probe attaches, health recovers, and the
  // supervisor returns the machine to its native resting state.
  core::fault_injector().stop_storm();
  EXPECT_TRUE(m.kernel().run_until(
      [&] {
        return sup.health() == SupervisorHealth::kHealthy &&
               m.mode() == ExecMode::kNative && sup.idle();
      },
      500 * hw::kCyclesPerMillisecond))
      << "probe never recovered the quarantine";
  EXPECT_GE(sup.stats().probes, 1u);
  EXPECT_EQ(sup.stats().recoveries, 1u);

  // Recovered for real: a plain supervised attach works again.
  EXPECT_TRUE(sup.switch_now(ExecMode::kPartialVirtual));
  EXPECT_TRUE(sup.switch_now(ExecMode::kNative));
}

TEST(SwitchSupervisor, CancelRevokesQueuedAndInFlightRequests) {
  MercuryBox box;
  Mercury& m = *box.mercury;
  SwitchSupervisor sup(m.engine());

  bool release_now = false;
  m.kernel().spawn("holder", [&](Sys& s) -> Sub<void> {
    core::VirtObject::Section section(m.native_vo());
    while (!release_now) co_await s.sleep_us(2'000.0);
    section.release();
    for (;;) co_await s.sleep_us(10'000.0);
  });
  m.kernel().run_for(hw::kCyclesPerMillisecond);

  const std::uint64_t in_flight = sup.submit(ExecMode::kPartialVirtual);
  const std::uint64_t queued = sup.submit(ExecMode::kFullVirtual);
  ASSERT_EQ(sup.find(in_flight)->state, RequestState::kInFlight);
  ASSERT_EQ(sup.find(queued)->state, RequestState::kQueued);

  EXPECT_TRUE(sup.cancel(queued));
  EXPECT_EQ(sup.find(queued)->state, RequestState::kCancelled);
  EXPECT_TRUE(sup.cancel(in_flight));
  EXPECT_EQ(sup.find(in_flight)->state, RequestState::kCancelled);
  EXPECT_FALSE(sup.cancel(in_flight)) << "terminal requests cannot re-cancel";
  EXPECT_FALSE(sup.cancel(0));
  EXPECT_TRUE(sup.idle());
  EXPECT_TRUE(m.engine().idle()) << "cancel left the engine request armed";
  EXPECT_EQ(sup.stats().cancelled, 2u);

  release_now = true;
  m.kernel().run_for(100 * hw::kCyclesPerMillisecond);
  EXPECT_EQ(m.mode(), ExecMode::kNative)
      << "a cancelled request committed after the fact";
}

TEST(SwitchSupervisor, HigherPriorityRequestDispatchesFirst) {
  MercuryBox box;
  Mercury& m = *box.mercury;
  SwitchSupervisor sup(m.engine());

  // Park the engine behind a held section so both submissions queue.
  bool release_now = false;
  m.kernel().spawn("holder", [&](Sys& s) -> Sub<void> {
    core::VirtObject::Section section(m.native_vo());
    while (!release_now) co_await s.sleep_us(2'000.0);
    section.release();
    for (;;) co_await s.sleep_us(10'000.0);
  });
  m.kernel().run_for(hw::kCyclesPerMillisecond);

  std::vector<std::uint64_t> order;
  const auto record = [&](const SupervisedRequest& r) { order.push_back(r.id); };
  sup.submit(ExecMode::kPartialVirtual, {}, record);  // goes in flight now
  RequestOptions low, high;
  low.priority = 9;
  high.priority = 0;
  const std::uint64_t low_id = sup.submit(ExecMode::kFullVirtual, low, record);
  const std::uint64_t high_id =
      sup.submit(ExecMode::kPartialVirtual, high, record);

  release_now = true;
  ASSERT_TRUE(m.kernel().run_until([&] { return sup.idle(); },
                                   500 * hw::kCyclesPerMillisecond));
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[1], high_id) << "priority 0 must outrank priority 9";
  EXPECT_EQ(order[2], low_id);
  EXPECT_EQ(sup.stats().committed, 3u);
  ASSERT_TRUE(sup.switch_now(ExecMode::kNative));
}

TEST(SwitchSupervisor, CallbackMaySubmitFollowUpRequests) {
  MercuryBox box;
  Mercury& m = *box.mercury;
  SwitchSupervisor sup(m.engine());

  // The documented contract: a resolution callback may submit follow-up
  // requests. The re-entrant enqueue() grows the callback store while the
  // current callback is still executing — chain enough follow-ups that any
  // element relocation would tear the running std::function out from under
  // itself (regression: use-after-free of the callback's captures).
  constexpr int kChain = 64;
  int resolved = 0;
  std::function<void(const SupervisedRequest&)> link =
      [&](const SupervisedRequest& r) {
        EXPECT_EQ(r.state, RequestState::kCommitted);
        ++resolved;
        if (resolved < kChain) {
          const ExecMode next = r.target == ExecMode::kNative
                                    ? ExecMode::kPartialVirtual
                                    : ExecMode::kNative;
          sup.submit(next, {}, link);
        }
      };
  sup.submit(ExecMode::kPartialVirtual, {}, link);
  ASSERT_TRUE(m.kernel().run_until([&] { return resolved >= kChain; },
                                   5'000 * hw::kCyclesPerMillisecond));
  EXPECT_EQ(sup.stats().committed, static_cast<std::uint64_t>(kChain));
  EXPECT_TRUE(sup.idle());
  ASSERT_TRUE(sup.switch_now(ExecMode::kNative));
}

TEST(SwitchSupervisor, QuarantineSweepSurvivesCallbackSubmits) {
  InjectorGuard guard;
  MercuryBox box;
  Mercury& m = *box.mercury;
  SupervisorConfig cfg;
  cfg.backoff_base_ms = 0.5;
  cfg.degraded_after = 1;
  cfg.quarantine_after = 2;
  cfg.probe_interval_ms = 0;
  SwitchSupervisor sup(m.engine(), cfg);

  core::fault_injector().arm_storm(
      FaultStorm::uniform(1.0, test_seed(0x5EE9Full)));

  // Several queued attach requests, each reacting to the quarantine sweep
  // by submitting one more virtual request — re-entering enqueue() (and
  // growing the request store) while the sweep is mid-flight over it
  // (regression: deque iterator invalidation). The follow-ups fast-fail
  // synchronously: health is already quarantined when the callbacks fire.
  constexpr int kRequests = 8;
  int fast_failed = 0;
  int followups = 0;
  for (int i = 0; i < kRequests; ++i) {
    sup.submit(ExecMode::kPartialVirtual, {},
               [&](const SupervisedRequest& r) {
                 if (r.state != RequestState::kFailedQuarantined) return;
                 ++fast_failed;
                 sup.submit(ExecMode::kFullVirtual, {},
                            [&](const SupervisedRequest& rr) {
                              EXPECT_EQ(rr.state,
                                        RequestState::kFailedQuarantined);
                              ++followups;
                            });
               });
  }
  ASSERT_TRUE(m.kernel().run_until(
      [&] {
        return sup.health() == SupervisorHealth::kQuarantined && sup.idle();
      },
      5'000 * hw::kCyclesPerMillisecond));
  core::fault_injector().stop_storm();

  EXPECT_EQ(fast_failed, kRequests);
  EXPECT_EQ(followups, kRequests);
  for (const SupervisedRequest& r : sup.requests())
    EXPECT_TRUE(core::request_state_terminal(r.state))
        << "request " << r.id << " stranded in state "
        << core::request_state_name(r.state);
  EXPECT_EQ(m.mode(), ExecMode::kNative) << "quarantined means native";
}

TEST(SwitchSupervisor, ProbeRetestsTheModeThatDroveQuarantine) {
  InjectorGuard guard;
  MercuryBox box;
  Mercury& m = *box.mercury;
  SupervisorConfig cfg;
  cfg.backoff_base_ms = 0.5;
  cfg.degraded_after = 1;
  cfg.quarantine_after = 2;
  cfg.probe_interval_ms = 10.0;
  SwitchSupervisor sup(m.engine(), cfg);

  core::fault_injector().arm_storm(
      FaultStorm::uniform(1.0, test_seed(0xF0BE5EEDull)));
  RequestOptions opts;
  opts.max_attempts = 4;
  EXPECT_FALSE(sup.switch_now(ExecMode::kFullVirtual,
                              500 * hw::kCyclesPerMillisecond, opts));
  ASSERT_EQ(sup.health(), SupervisorHealth::kQuarantined);
  core::fault_injector().stop_storm();

  ASSERT_TRUE(m.kernel().run_until(
      [&] {
        return sup.health() == SupervisorHealth::kHealthy &&
               m.mode() == ExecMode::kNative && sup.idle();
      },
      1'000 * hw::kCyclesPerMillisecond))
      << "probe never recovered the quarantine";

  // A full-virtual quarantine must be retested at full virtual: a partial-
  // virtual probe succeeding says nothing about the mode that broke.
  bool saw_probe = false;
  for (const SupervisedRequest& r : sup.requests())
    if (r.probe) {
      saw_probe = true;
      EXPECT_EQ(r.target, ExecMode::kFullVirtual);
    }
  EXPECT_TRUE(saw_probe);
  EXPECT_EQ(sup.stats().recoveries, 1u);
}

TEST(FaultInjector, ArmOverAnArmedPlanIsRejected) {
  InjectorGuard guard;
  FaultInjector& fi = core::fault_injector();
  FaultPlan p;
  p.site = FaultSite::kRendezvous;
  fi.arm(p);
  EXPECT_THROW(fi.arm(p), util::InvariantError)
      << "silent plan replacement makes fault sweeps pass vacuously";
  EXPECT_TRUE(fi.armed()) << "the rejected arm must not clobber the live plan";
  EXPECT_EQ(fi.plan().site, FaultSite::kRendezvous);

  // replace() is the explicit swap; it counts the old plan as unfired.
  const std::uint64_t unfired_before = fi.unfired_disarms();
  FaultPlan q;
  q.site = FaultSite::kStackFixup;
  fi.replace(q);
  EXPECT_EQ(fi.unfired_disarms(), unfired_before + 1);
  EXPECT_EQ(fi.plan().site, FaultSite::kStackFixup);

  // disarm() of a never-fired plan counts too; re-arming afterwards is fine.
  fi.disarm();
  EXPECT_EQ(fi.unfired_disarms(), unfired_before + 2);
  fi.arm(p);
  EXPECT_TRUE(fi.armed());
  fi.disarm();
}

TEST(FaultInjector, StormSchedulingIsSeededAndDeterministic) {
  InjectorGuard guard;
  FaultInjector& fi = core::fault_injector();

  // Record which visit (1-based, 0 = quiet) fires in each of 24 windows.
  const auto pattern = [&](std::uint64_t seed) {
    FaultStorm storm;
    storm.rate[static_cast<std::size_t>(FaultSite::kRendezvous)] = 0.5;
    storm.max_trigger_depth = 4;
    storm.seed = seed;
    fi.arm_storm(storm);
    std::vector<int> fires;
    for (int w = 0; w < 24; ++w) {
      fi.begin_window();
      int fired_at = 0;
      for (int visit = 1; visit <= 6; ++visit) {
        try {
          fi.on_site(FaultSite::kRendezvous);
        } catch (const core::FaultInjected& f) {
          EXPECT_EQ(f.site, FaultSite::kRendezvous);
          fired_at = visit;
        }
      }
      fires.push_back(fired_at);
    }
    fi.stop_storm();
    return fires;
  };

  const std::uint64_t seed = test_seed(0x57012Dull);
  const std::vector<int> a = pattern(seed);
  EXPECT_EQ(a, pattern(seed)) << "same seed must replay the same storm";
  EXPECT_NE(pattern(1111), pattern(2222));

  // Every fire lands within the declared trigger depth, and a 50% rate over
  // 24 windows fires somewhere without firing everywhere.
  int fired = 0;
  for (const int v : a) {
    EXPECT_LE(v, 4);
    if (v > 0) ++fired;
  }
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 24);
}

TEST(FaultInjector, StormDecayBurstAndPauseSemantics) {
  InjectorGuard guard;
  FaultInjector& fi = core::fault_injector();

  // decay 0: the first fire zeroes the rate — exactly one fire, ever.
  FaultStorm once = FaultStorm::uniform(1.0, 3);
  once.decay = 0.0;
  fi.arm_storm(once);
  std::uint64_t fires = 0;
  for (int w = 0; w < 6; ++w) {
    fi.begin_window();
    for (int visit = 0; visit < 8; ++visit) {
      try {
        fi.on_site(FaultSite::kRendezvous);
      } catch (const core::FaultInjected&) {
        ++fires;
      }
    }
  }
  EXPECT_EQ(fires, 1u);
  EXPECT_EQ(fi.storm_fires(), 1u);
  EXPECT_EQ(fi.storm_windows(), 6u);
  // Decay mutates the live rates only; the armed regime stays quotable.
  EXPECT_EQ(fi.storm().rate[0], 0.0);
  EXPECT_EQ(fi.storm_config().rate[0], 1.0);
  fi.stop_storm();

  // max_fires stops the whole storm after the budget.
  FaultStorm capped = FaultStorm::uniform(1.0, 4);
  capped.max_fires = 2;
  fi.arm_storm(capped);
  fires = 0;
  for (int w = 0; w < 6; ++w) {
    fi.begin_window();
    for (int visit = 0; visit < 8; ++visit) {
      try {
        fi.on_site(FaultSite::kRendezvous);
      } catch (const core::FaultInjected&) {
        ++fires;
      }
    }
  }
  EXPECT_EQ(fires, 2u);
  EXPECT_FALSE(fi.storm_active());

  // A paused injector counts visits but never fires (the engine pauses the
  // storm across rollback so it cannot fault the fault handler).
  fi.arm_storm(FaultStorm::uniform(1.0, 5));
  fi.begin_window();
  {
    FaultInjector::PauseGuard pause;
    for (int visit = 0; visit < 8; ++visit)
      EXPECT_NO_THROW(fi.on_site(FaultSite::kRendezvous));
  }
  EXPECT_FALSE(fi.paused());
  fi.stop_storm();
}

/// Put `fi` into a random regime drawn from `rng`: a single-shot plan, a
/// storm (rates, burst, decay, max_fires), both or neither, a few windows
/// and visits already spent, and maybe paused. Two injectors set up from
/// equal streams end in equal states.
void random_regime(FaultInjector& fi, util::Rng& rng,
                   const std::vector<FaultSite>& sites) {
  const auto any_site = [&] { return sites[rng.below(sites.size())]; };
  if (rng.chance(0.6)) {
    FaultPlan plan;
    plan.site = any_site();
    plan.trigger_count = 1 + rng.below(40);
    fi.arm(plan);
  }
  if (rng.chance(0.6)) {
    FaultStorm storm;
    for (const FaultSite s : sites) {
      const double rates[] = {0.0, 0.5, 1.0};
      storm.rate[static_cast<std::size_t>(s)] = rates[rng.below(3)];
    }
    storm.max_trigger_depth = 1 + rng.below(30);
    storm.burst_windows = 1 + static_cast<std::uint32_t>(rng.below(3));
    const double decays[] = {1.0, 0.5, 0.0};
    storm.decay = decays[rng.below(3)];
    storm.max_fires = rng.below(3);
    storm.seed = rng.next();
    fi.arm_storm(storm);
  }
  for (std::uint64_t w = rng.below(3); w > 0; --w) {
    fi.begin_window();
    for (std::uint64_t v = rng.below(12); v > 0; --v) {
      try {
        fi.on_site(any_site());
      } catch (const core::FaultInjected&) {
      }
    }
  }
  fi.set_paused(rng.chance(0.25));
}

/// Visit `site` once; the 1-based `ordinal` if it fired, else 0.
std::uint64_t visit_once(FaultInjector& fi, FaultSite site,
                         std::uint64_t ordinal) {
  try {
    fi.on_site(site);
  } catch (const core::FaultInjected& f) {
    EXPECT_EQ(f.site, site);
    return ordinal;
  }
  return 0;
}

TEST(FaultInjector, PassCountsVisitsExactlyAsPerVisitCalls) {
  // pass(site, n) then one on_site must be indistinguishable from n+1
  // on_site calls (stopping at a fire): same visit counts, same fire count,
  // same firing visit — and the same state after, so the two injectors
  // keep agreeing through further windows.
  const std::uint64_t seed = test_seed(0x9A55ull);
  util::Rng trials(seed);
  // Hundreds of fires: keep their warnings out of the test log.
  const util::LogLevel fault_log = util::log_level("fault");
  util::set_log_level("fault", util::LogLevel::kError);
  const std::vector<FaultSite> sites = {
      FaultSite::kAdoptRebuild, FaultSite::kShardRebuild,
      FaultSite::kDirtyRebuild};
  int runs_cut_short = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::uint64_t regime_seed = trials.next();
    const FaultSite site = sites[trials.below(sites.size())];
    const std::uint64_t n = trials.below(60);
    FaultInjector bulk, per_visit;
    util::Rng ra(regime_seed), rb(regime_seed);
    random_regime(bulk, ra, sites);
    random_regime(per_visit, rb, sites);
    SCOPED_TRACE("trial " + std::to_string(trial) + " n=" + std::to_string(n));

    const std::uint64_t visits_before = bulk.visits(site);
    const std::uint64_t passed = bulk.pass(site, n);
    EXPECT_LE(passed, n);
    EXPECT_EQ(bulk.visits(site), visits_before + passed);
    const std::uint64_t bulk_fire = visit_once(bulk, site, passed + 1);
    if (passed < n) {
      EXPECT_EQ(bulk_fire, passed + 1) << "a short pass must end at a fire";
      ++runs_cut_short;
    }

    std::uint64_t per_visit_fire = 0;
    for (std::uint64_t v = 1; v <= n + 1 && per_visit_fire == 0; ++v)
      per_visit_fire = visit_once(per_visit, site, v);

    EXPECT_EQ(bulk_fire, per_visit_fire);
    for (const FaultSite s : sites)
      EXPECT_EQ(bulk.visits(s), per_visit.visits(s));
    EXPECT_EQ(bulk.injected(), per_visit.injected());
    EXPECT_EQ(bulk.storm_fires(), per_visit.storm_fires());
    EXPECT_EQ(bulk.armed(), per_visit.armed());
    EXPECT_EQ(bulk.storm_active(), per_visit.storm_active());

    // Same hidden state (window ordinals, burst, decayed rates): both keep
    // firing on the same visits from here on.
    bulk.set_paused(false);
    per_visit.set_paused(false);
    for (int w = 0; w < 3; ++w) {
      bulk.begin_window();
      per_visit.begin_window();
      for (std::uint64_t v = 1; v <= 20; ++v)
        EXPECT_EQ(visit_once(bulk, site, v), visit_once(per_visit, site, v))
            << "window " << w << " visit " << v;
    }
    EXPECT_EQ(bulk.injected(), per_visit.injected());
  }
  util::set_log_level("fault", fault_log);
  // The regimes must reach the interesting case, not just quiet passes.
  EXPECT_GT(runs_cut_short, 40);
}

}  // namespace
}  // namespace mercury::testing
