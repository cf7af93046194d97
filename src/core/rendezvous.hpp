// SMP mode-switch coordination (paper §5.4): the control processor IPIs all
// other cores; each signals readiness on a shared counter and spins on a
// shared flag; the CP releases them once everyone is parked. Also implements
// the loosely-coupled tree protocol the paper's future work suggests for
// large core counts (§8), for the scalability ablation.
//
// The rendezvous is an instantiable coordinator with an explicit
// park()/release() lifetime: the switch engine parks every CPU, runs the
// whole state transfer on them through a SwitchCrew, and only then lets
// them go. A caller that only needs the classic barrier calls park() and
// release() back to back.
#pragma once

#include <cstdint>
#include <vector>

#include "hw/machine.hpp"

namespace mercury::core {

enum class RendezvousProtocol : std::uint8_t {
  kIpiSharedVar,  // the paper's protocol: broadcast IPI + shared count/flag
  kTree,          // hierarchical pairwise signalling (future-work variant)
};

struct RendezvousStats {
  std::size_t cpus = 0;
  hw::Cycles entry_time = 0;       // CP clock when the rendezvous began
  hw::Cycles completion_time = 0;  // all CPUs parked & released
  /// Longest per-CPU unavailability window in this episode: release time
  /// minus the earliest parked clock (the cycle-identity probe prints it).
  hw::Cycles max_pause_cycles = 0;
  hw::Cycles latency() const { return completion_time - entry_time; }
};

/// One barrier episode. Construct, park(), optionally run crew work on the
/// parked CPUs, then release(). Protocol state and stats live on the object
/// instead of being recomputed per call.
class Rendezvous {
 public:
  Rendezvous(hw::Machine& machine, hw::Cpu& cp, RendezvousProtocol protocol);

  /// Bring every CPU to the barrier: IPI broadcast, ready handshake. On
  /// return each CPU's clock sits at the moment it started spinning (the
  /// non-CP cores are conceptually idle-spinning from here until release).
  /// May throw FaultInjected at the kRendezvous site.
  void park();
  bool parked() const { return parked_; }

  /// Set the release flag; every CPU's clock is aligned at the barrier-exit
  /// time (max over the crew's clocks plus the release handshake).
  RendezvousStats release();

  /// Coordination cost excluding any work done while parked: the park
  /// handshake plus the release handshake. Equal to latency() when nothing
  /// ran between park() and release().
  hw::Cycles coordination_cycles() const {
    return park_cycles_ + release_cycles_;
  }

 private:
  void park_ipi_shared_var();
  void park_tree();

  hw::Machine& machine_;
  hw::Cpu& cp_;
  RendezvousProtocol protocol_;
  RendezvousStats stats_;
  bool parked_ = false;
  bool released_ = false;
  hw::Cycles park_cycles_ = 0;
  hw::Cycles release_cycles_ = 0;
  /// Per-CPU clock at the moment it parked: the begin of each CPU's
  /// unavailability window (sized/filled by park()).
  std::vector<hw::Cycles> parked_at_;
};

}  // namespace mercury::core
