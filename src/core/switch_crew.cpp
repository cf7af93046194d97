#include "core/switch_crew.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "core/fault_inject.hpp"
#include "obs/obs.hpp"
#include "util/assert.hpp"

namespace mercury::core {

namespace {

// Cost atoms for the shared shard queue. Grabbing a shard is an atomic
// fetch-add on a contended line (the "steal"); publishing and joining are a
// flag store / arrival counter on the same line.
constexpr hw::Cycles kShardPublish = 180;   // CP posts the work descriptor
constexpr hw::Cycles kShardGrab = 350;      // lock xadd + line transfer
constexpr hw::Cycles kJoinHandshake = 250;  // arrival count + done flag

// Shards per crew member: enough slack for the earliest-finisher scheduling
// to absorb uneven shard costs, small enough that grab overhead stays in
// the noise against the per-frame work.
constexpr std::size_t kShardsPerMember = 4;

/// The "<phase>.worker_cycles" histogram: the full name is built once per
/// phase name, not once per phase run.
[[maybe_unused]] obs::Hist& worker_cycles_hist(const char* phase) {
  static std::vector<std::pair<std::string, obs::Hist*>> known;
  for (const auto& [name, hist] : known)
    if (name == phase) return *hist;
  obs::Hist& hist =
      obs::registry().histogram(std::string(phase) + ".worker_cycles");
  known.emplace_back(phase, &hist);
  return hist;
}

}  // namespace

SwitchCrew::SwitchCrew(hw::Machine& machine, hw::Cpu& cp, std::size_t workers)
    : machine_(machine) {
  members_.push_back(&cp);
  for (std::size_t i = 0; i < machine.num_cpus() && workers > 0; ++i) {
    if (i == cp.id()) continue;
    members_.push_back(&machine.cpu(i));
    --workers;
  }
}

void SwitchCrew::join() {
  hw::Cycles maxt = 0;
  for (hw::Cpu* m : members_) maxt = std::max(maxt, m->now());
  maxt += kJoinHandshake;
  for (hw::Cpu* m : members_) m->advance_to(maxt);
}

CrewPhaseStats SwitchCrew::run_phase(const char* name, std::size_t items,
                                     const ShardFn& body) {
  CrewPhaseStats stats;
  if (items == 0) return stats;

  hw::Cpu& cp = *members_[0];
#if MERCURY_OBS_ENABLED
  // The phase's host time, in a profiler bucket named after the phase that
  // nests under switch.commit; looked up only while the profiler is on.
  obs::EngineProfiler& prof = obs::profiler();
  const obs::ProfScope host(prof.enabled() ? prof.bucket(name) : nullptr, &cp);
#endif
  const hw::Cycles phase_start = cp.now();

  // Without a helper the CP runs the phase as one shard and pays no
  // coordination: there is no descriptor to publish, no contended queue
  // line to grab from, and nobody to join.
  const bool alone = workers() == 0;
  const std::size_t nshards =
      alone ? 1 : std::min(items, members_.size() * kShardsPerMember);
  const std::size_t per = items / nshards;
  const std::size_t extra = items % nshards;
  std::vector<hw::Cycles> member_busy(members_.size(), 0);
  const FaultInjected* faulted = nullptr;
  FaultInjected fault{};
  {
    // The phase interval runs from the publish to the join on the CP. It
    // closes before a shard's fault is rethrown, so a faulted phase counts
    // as ended, like the shards it ran.
    const obs::Interval phase(cp, obs::IntervalKind::kCrewPhase, items,
                              nshards, name);
    if (!alone) {
      // CP publishes the work descriptor; parked members cannot start
      // before the publish store reaches them (they were spinning, so
      // advancing their clocks to the publish point costs nothing real).
      cp.charge(kShardPublish);
      for (hw::Cpu* m : members_) m->advance_to(cp.now());
    }

    // Earliest-finisher dispatch: each shard goes to the member whose clock
    // is lowest — the deterministic equivalent of an idle worker stealing
    // the next range off the shared queue.
    std::size_t begin = 0;
    for (std::size_t s = 0; s < nshards && faulted == nullptr; ++s) {
      const std::size_t len = per + (s < extra ? 1 : 0);
      const std::size_t end = begin + len;
      std::size_t who = 0;
      for (std::size_t m = 1; m < members_.size(); ++m)
        if (members_[m]->now() < members_[who]->now()) who = m;
      hw::Cpu& worker = *members_[who];
      if (!alone) worker.charge(kShardGrab);
      const hw::Cycles t0 = worker.now();
      try {
        body(worker, begin, end);
      } catch (const FaultInjected& f) {
        // Abort flag: no further shards are handed out; completed shards
        // stay applied (the engine's rollback unwinds them).
        fault = f;
        faulted = &fault;
      }
      const hw::Cycles ran = worker.now() - t0;
      member_busy[who] += ran;
      stats.busy += ran;
      ++stats.shards;
      // One shard interval on the *worker's* CPU, with its range: a stop
      // with a finer-grained cause than the rendezvous-parked interval it
      // nests inside.
      obs::record_interval(obs::IntervalKind::kCrewShard, worker.id(), t0,
                           worker.now(), begin, end, name);
      begin = end;
    }

    if (!alone) join();
  }
  stats.span = cp.now() - phase_start;
  busy_total_ += stats.busy;
  span_total_ += stats.span;
  ++phases_;
#if MERCURY_OBS_ENABLED
  obs::Hist& worker_hist = worker_cycles_hist(name);
  for (const hw::Cycles b : member_busy) worker_hist.record(b);
  MERC_COUNT_N("switch.crew.shards", stats.shards);
#endif
  if (faulted != nullptr) throw fault;
  return stats;
}

double SwitchCrew::utilization() const {
  if (span_total_ == 0 || members_.empty()) return 0.0;
  return static_cast<double>(busy_total_) /
         (static_cast<double>(span_total_) *
          static_cast<double>(members_.size()));
}

}  // namespace mercury::core
