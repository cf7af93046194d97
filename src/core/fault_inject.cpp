#include "core/fault_inject.hpp"

#include <algorithm>
#include <sstream>

#include "obs/obs.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace mercury::core {

const char* fault_site_name(FaultSite s) {
  const std::size_t i = static_cast<std::size_t>(s);
  return i < kNumFaultSites ? kFaultSiteNames[i] : "?";
}

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kFail: return "fail";
    case FaultKind::kTimeout: return "timeout";
    case FaultKind::kCorruptFrame: return "corrupt-frame";
  }
  return "?";
}

std::string FaultPlan::describe() const {
  std::ostringstream os;
  os << fault_kind_name(kind) << "@" << fault_site_name(site) << "#"
     << trigger_count;
  if (latency != 0) os << "+" << latency << "cy";
  return os.str();
}

FaultStorm FaultStorm::uniform(double r, std::uint64_t seed) {
  FaultStorm s;
  for (double& site_rate : s.rate) site_rate = r;
  s.seed = seed;
  return s;
}

void FaultInjector::arm(const FaultPlan& plan) {
  MERC_CHECK_MSG(!armed_,
                 "arming a fault plan over a live one — silent replacement "
                 "makes fault sweeps vacuous; disarm() or replace() first");
  plan_ = plan;
  armed_ = true;
  ++arms_;
  for (std::uint64_t& v : visits_) v = 0;
}

void FaultInjector::replace(const FaultPlan& plan) {
  disarm();  // counts the superseded plan as unfired
  arm(plan);
}

void FaultInjector::arm_storm(const FaultStorm& storm) {
  storm_ = storm;
  storm_config_ = storm;
  storm_rng_ = util::Rng(storm.seed);
  storm_active_ = true;
  storm_fires_ = 0;
  storm_windows_ = 0;
  burst_left_ = 0;
  for (std::uint64_t& t : window_trigger_) t = 0;
  for (std::uint64_t& v : window_visits_) v = 0;
}

void FaultInjector::begin_window() {
  if (!storm_active_) return;
  ++storm_windows_;
  const std::uint64_t depth =
      storm_.max_trigger_depth ? storm_.max_trigger_depth : 1;
  for (std::size_t i = 0; i < kNumFaultSites; ++i) {
    window_visits_[i] = 0;
    window_trigger_[i] = 0;
    // One Bernoulli trial per site per window. The trial is rolled even for
    // zero-rate sites so the schedule of a multi-site storm is independent
    // of which other sites are enabled (reproducibility across variants).
    const bool won = storm_rng_.chance(storm_.rate[i]);
    const std::uint64_t at = 1 + storm_rng_.below(depth);
    if (won) window_trigger_[i] = at;
  }
  // A burst pins the last-fired site to keep firing for its remaining
  // windows regardless of the trials above.
  if (burst_left_ > 0) {
    --burst_left_;
    const std::size_t b = static_cast<std::size_t>(burst_site_);
    if (window_trigger_[b] == 0) window_trigger_[b] = 1 + storm_rng_.below(depth);
  }
}

void FaultInjector::fire_plan(FaultSite site, hw::Cpu* cpu,
                              std::uint64_t visit) {
  // Single-shot: disarm before throwing so the rollback path, which walks
  // the same sites in reverse, cannot re-fire.
  armed_ = false;
  ++injected_;
  if (cpu != nullptr && plan_.latency != 0) cpu->charge(plan_.latency);
  MERC_COUNT("fault.injected");
#if MERCURY_OBS_ENABLED
  obs::registry().counter("fault.injected_at", fault_site_name(site)).inc();
  // Black box: the fault hit is the last thing the flight tail must explain,
  // stamped with the site, kind, visit ordinal, and the executing CPU.
  if (cpu != nullptr) {
    MERC_FLIGHT(*cpu, kFaultHit, fault_site_name(site),
                static_cast<std::uint64_t>(site),
                static_cast<std::uint64_t>(plan_.kind), visit);
  } else {
    obs::flight_recorder().record(0, obs::FlightType::kFaultHit,
                                  fault_site_name(site), 0,
                                  static_cast<std::uint64_t>(site),
                                  static_cast<std::uint64_t>(plan_.kind),
                                  visit);
  }
#endif
  util::log_warn("fault", "injecting ", plan_.describe());
  throw FaultInjected{site, plan_.kind, cpu != nullptr ? cpu->id() : 0u};
}

void FaultInjector::fire_storm(FaultSite site, hw::Cpu* cpu,
                               std::uint64_t visit) {
  const std::size_t idx = static_cast<std::size_t>(site);
  window_trigger_[idx] = 0;  // one fire per site per window
  ++storm_fires_;
  ++injected_;
  if (storm_.burst_windows > 1) {
    burst_left_ = storm_.burst_windows - 1;
    burst_site_ = site;
  }
  storm_.rate[idx] *= storm_.decay;
  if (storm_.max_fires != 0 && storm_fires_ >= storm_.max_fires)
    storm_active_ = false;
  MERC_COUNT("fault.injected");
  MERC_COUNT("fault.storm.fires");
#if MERCURY_OBS_ENABLED
  constexpr auto kFail = static_cast<std::uint64_t>(FaultKind::kFail);
  obs::registry().counter("fault.injected_at", fault_site_name(site)).inc();
  if (cpu != nullptr) {
    MERC_FLIGHT(*cpu, kFaultHit, fault_site_name(site),
                static_cast<std::uint64_t>(site), kFail, visit);
  } else {
    obs::flight_recorder().record(0, obs::FlightType::kFaultHit,
                                  fault_site_name(site), 0,
                                  static_cast<std::uint64_t>(site), kFail,
                                  visit);
  }
#endif
  util::log_warn("fault", "storm firing at ", fault_site_name(site),
                 " (fire #", storm_fires_, ")");
  throw FaultInjected{site, FaultKind::kFail, cpu != nullptr ? cpu->id() : 0u};
}

void FaultInjector::on_site(FaultSite site, hw::Cpu* cpu) {
  const std::size_t idx = static_cast<std::size_t>(site);
  const std::uint64_t n = ++visits_[idx];
  if (paused_) {
    if (storm_active_) ++window_visits_[idx];
    return;
  }
  if (armed_ && site == plan_.site && n == plan_.trigger_count)
    fire_plan(site, cpu, n);
  if (storm_active_) {
    const std::uint64_t wn = ++window_visits_[idx];
    if (window_trigger_[idx] != 0 && wn == window_trigger_[idx])
      fire_storm(site, cpu, wn);
  }
}

std::uint64_t FaultInjector::pass(FaultSite site, std::uint64_t n) {
  const std::size_t idx = static_cast<std::size_t>(site);
  std::uint64_t quiet = n;
  if (!paused_) {
    // Stop one short of the visit on_site would fire on (plan ordinal, or
    // the storm's ordinal within this window); ordinals already behind the
    // counters never fire.
    if (armed_ && site == plan_.site && plan_.trigger_count > visits_[idx])
      quiet = std::min(quiet, plan_.trigger_count - visits_[idx] - 1);
    if (storm_active_ && window_trigger_[idx] > window_visits_[idx])
      quiet = std::min(quiet, window_trigger_[idx] - window_visits_[idx] - 1);
  }
  visits_[idx] += quiet;
  if (storm_active_) window_visits_[idx] += quiet;
  return quiet;
}

FaultInjector::PauseGuard::PauseGuard()
    : was_paused_(fault_injector().paused()) {
  fault_injector().set_paused(true);
}

FaultInjector::PauseGuard::~PauseGuard() {
  fault_injector().set_paused(was_paused_);
}

FaultInjector& fault_injector() {
  static FaultInjector instance;
  return instance;
}

FaultPlan random_fault_plan(util::Rng& rng) {
  FaultPlan plan;
  plan.site = static_cast<FaultSite>(rng.below(kNumFaultSites));
  // Bias toward early hits (most sites see one visit per switch) but reach
  // deep into the per-frame loops now and then.
  plan.trigger_count = rng.chance(0.5) ? 1 + rng.below(4)
                                       : 1 + rng.below(4096);
  if (plan.site == FaultSite::kStackFixup && rng.chance(0.5)) {
    plan.kind = FaultKind::kCorruptFrame;
  } else if (rng.chance(0.25)) {
    plan.kind = FaultKind::kTimeout;
    plan.latency = hw::us_to_cycles(50.0 + rng.uniform() * 450.0);
  }
  return plan;
}

}  // namespace mercury::core
