#include "core/rendezvous.hpp"

#include <algorithm>
#include <vector>

#include "core/fault_inject.hpp"

#include "hw/costs.hpp"
#include "hw/interrupts.hpp"
#include "obs/obs.hpp"
#include "util/assert.hpp"

namespace mercury::core {

namespace {

// Cost atoms for the shared-variable handshake.
constexpr hw::Cycles kAtomicInc = 60;            // uncontended lock xadd
constexpr hw::Cycles kCachelineBounce = 450;     // contended line transfer
constexpr hw::Cycles kFlagCheck = 40;
constexpr hw::Cycles kSpinVisibilityLag = 120;   // store-to-load latency

}  // namespace

Rendezvous::Rendezvous(hw::Machine& machine, hw::Cpu& cp,
                       RendezvousProtocol protocol)
    : machine_(machine), cp_(cp), protocol_(protocol) {}

void Rendezvous::park_ipi_shared_var() {
  hw::Machine& m = machine_;
  hw::Cpu& cp = cp_;

  // CP broadcasts the mode-switch IPI (one ICR write per target). Serial
  // ICR writes: the CP pays per target (no broadcast shorthand on this APIC
  // model) — the linear term the tree protocol removes. The IPIs really go
  // through the interrupt controller; their post-barrier delivery is a
  // no-op acknowledgement.
  std::vector<hw::Cycles> arrival(m.num_cpus(), 0);
  for (std::size_t i = 0; i < m.num_cpus(); ++i) {
    if (i == cp.id()) continue;
    cp.charge(hw::costs::kIpiSendLatency / 2 - hw::costs::kIpiSendLatency / 3);
    m.interrupts().send_ipi(cp, static_cast<std::uint32_t>(i),
                            hw::kVecIpiModeSwitch);
    arrival[i] = std::max(m.cpu(i).now(),
                          cp.now() + hw::costs::kIpiSendLatency);
  }
  arrival[cp.id()] = cp.now();

  // Each CPU takes the IPI, increments the shared ready count (the line
  // bounces between cores, so later arrivals pay more), then spins. Each
  // clock is advanced to its owner's parked time: from here until release
  // (or until the crew hands it a shard) the core is idle-spinning.
  std::size_t inc_order = 0;
  for (std::size_t i = 0; i < m.num_cpus(); ++i) {
    hw::Cycles t = arrival[i];
    if (i != cp.id()) t += hw::costs::kIpiAck + hw::costs::kTrapEntry;
    t += kAtomicInc + kCachelineBounce * inc_order;
    ++inc_order;
    m.cpu(i).advance_to(t);
  }
}

void Rendezvous::park_tree() {
  hw::Machine& m = machine_;
  hw::Cpu& cp = cp_;

  // Downward IPI wave along a binary tree rooted at the CP, then an upward
  // pairwise ready wave. Per-level latency is one IPI hop + handshake on a
  // *private* line (no global bouncing). The release wave runs in
  // release().
  std::size_t levels = 0;
  for (std::size_t span = 1; span < m.num_cpus(); span <<= 1) ++levels;
  for (std::size_t i = 0; i < m.num_cpus(); ++i) {
    if (i == cp.id()) continue;
    m.interrupts().send_ipi(cp, static_cast<std::uint32_t>(i),
                            hw::kVecIpiModeSwitch);
  }

  const hw::Cycles hop = hw::costs::kIpiSendLatency + hw::costs::kIpiAck +
                         hw::costs::kTrapEntry + kAtomicInc;
  hw::Cycles base = cp.now();
  for (std::size_t i = 0; i < m.num_cpus(); ++i)
    base = std::max(base, m.cpu(i).now());
  const hw::Cycles parked =
      base + static_cast<hw::Cycles>(levels) * hop;
  for (std::size_t i = 0; i < m.num_cpus(); ++i)
    m.cpu(i).advance_to(parked);
}

void Rendezvous::park() {
  MERC_CHECK_MSG(!parked_, "rendezvous parked twice");
  const obs::Interval park(cp_, obs::IntervalKind::kRendezvousPark,
                           machine_.num_cpus(),
                           static_cast<std::uint64_t>(protocol_));
  fault_point(FaultSite::kRendezvous, &cp_);
  stats_.cpus = machine_.num_cpus();
  stats_.entry_time = cp_.now();
  if (machine_.num_cpus() > 1) {
    switch (protocol_) {
      case RendezvousProtocol::kIpiSharedVar: park_ipi_shared_var(); break;
      case RendezvousProtocol::kTree: park_tree(); break;
    }
  }
  hw::Cycles all_parked = stats_.entry_time;
  for (std::size_t i = 0; i < machine_.num_cpus(); ++i)
    all_parked = std::max(all_parked, machine_.cpu(i).now());
  // The CP spins on the ready count until the last CPU checks in: anything
  // it does between park() and release() starts after that point. Without
  // this, a run-ahead idle CPU's clock skew would be charged to the first
  // crew phase instead of the barrier.
  cp_.advance_to(all_parked);
  park_cycles_ = all_parked - stats_.entry_time;
  // Each CPU's unavailability window opens at its own parked clock (the CP
  // included — while coordinating it is just as lost to guest work). Plain
  // stores, identical obs-on and obs-off.
  parked_at_.resize(machine_.num_cpus());
  for (std::size_t i = 0; i < machine_.num_cpus(); ++i)
    parked_at_[i] = machine_.cpu(i).now();
  parked_ = true;
}

RendezvousStats Rendezvous::release() {
  MERC_CHECK_MSG(parked_ && !released_, "release without a parked rendezvous");
  released_ = true;
  hw::Machine& m = machine_;
  if (m.num_cpus() == 1) {
    stats_.completion_time = cp_.now();
    // The sole CPU's unavailability is the whole park-to-release window
    // (it is the CP and the worker at once).
    stats_.max_pause_cycles = stats_.completion_time - parked_at_[cp_.id()];
    obs::record_interval(obs::IntervalKind::kRendezvousParked, cp_.id(),
                         parked_at_[cp_.id()], stats_.completion_time);
    return stats_;
  }

  // CP observes count == N (and any crew work drained), sets the release
  // flag; everyone sees it after the store propagates. The tree protocol
  // pays a downward release wave instead of a flag broadcast.
  hw::Cycles all_done = 0;
  for (std::size_t i = 0; i < m.num_cpus(); ++i)
    all_done = std::max(all_done, m.cpu(i).now());
  switch (protocol_) {
    case RendezvousProtocol::kIpiSharedVar:
      release_cycles_ = kFlagCheck + kAtomicInc + kSpinVisibilityLag;
      break;
    case RendezvousProtocol::kTree: {
      std::size_t levels = 0;
      for (std::size_t span = 1; span < m.num_cpus(); span <<= 1) ++levels;
      const hw::Cycles hop = hw::costs::kIpiSendLatency + hw::costs::kIpiAck +
                             hw::costs::kTrapEntry + kAtomicInc;
      release_cycles_ =
          static_cast<hw::Cycles>(levels) * hop + kSpinVisibilityLag;
      break;
    }
  }
  const hw::Cycles released_at = all_done + release_cycles_;
  for (std::size_t i = 0; i < m.num_cpus(); ++i)
    m.cpu(i).advance_to(released_at);
  stats_.completion_time = released_at;

  // Per-CPU unavailability: parked clock to barrier exit, one stop per
  // CPU. Crew shard windows nest inside these by design.
  stats_.max_pause_cycles = 0;
  for (std::size_t i = 0; i < m.num_cpus(); ++i) {
    const hw::Cycles paused = released_at - parked_at_[i];
    stats_.max_pause_cycles = std::max(stats_.max_pause_cycles, paused);
    obs::record_interval(obs::IntervalKind::kRendezvousParked,
                         static_cast<std::uint32_t>(i), parked_at_[i],
                         released_at);
  }

  MERC_COUNT("rendezvous.runs");
  MERC_GAUGE_SET("rendezvous.cpus", stats_.cpus);
  MERC_HIST("rendezvous.cycles", coordination_cycles());
  MERC_FLIGHT(cp_, kMarker, "rendezvous.release", stats_.cpus,
              release_cycles_);
  return stats_;
}

}  // namespace mercury::core
