// The switch pipeline's work crew.
//
// During a mode switch every CPU stays parked at the rendezvous barrier
// (§5.4) until the state transfer is done (§5.1.2 — the dominant attach
// cost is a walk over all of physical memory). A SwitchCrew turns parked
// cores into workers: the bulk phases (page-info rebuild, type-and-protect,
// validation, eager selector fixup, release-time unprotect) are decomposed
// into per-range shards pulled from a shared queue. Scheduling is dynamic —
// the next shard always goes to the earliest-finishing member — which is
// the deterministic simulation of a work-stealing deque: uneven shards
// (e.g. validation cost varies with present PTEs) rebalance automatically.
// A crew with no helper is the control processor alone: each phase is one
// call on the CP, with no queue and no join to pay for.
//
// The crew only ever runs between Rendezvous::park() and release(), and
// only after the VO reference count hit zero (§5.1.1): the parked CPUs are
// provably outside all sensitive code, so shards may mutate global switch
// state without further locking. A shard that throws FaultInjected aborts
// the phase: the remaining shards are cancelled, the crew joins (clock
// alignment — the workers observe the abort flag), and the fault is
// rethrown on the control processor for the engine's rollback.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "hw/machine.hpp"

namespace mercury::core {

struct CrewPhaseStats {
  std::size_t shards = 0;
  hw::Cycles span = 0;  // phase wall-clock: dispatch start -> join complete
  hw::Cycles busy = 0;  // shard execution cycles summed over the crew
};

class SwitchCrew {
 public:
  /// The control processor plus up to `workers` rendezvous-parked helpers
  /// (clamped to the machine's other CPUs, in CPU-id order).
  SwitchCrew(hw::Machine& machine, hw::Cpu& cp, std::size_t workers);

  /// Crew size including the control processor.
  std::size_t size() const { return members_.size(); }
  /// Helper CPUs excluding the control processor.
  std::size_t workers() const { return members_.size() - 1; }

  /// Shard body: run items [begin, end) on `cpu`, charging its clock.
  using ShardFn = std::function<void(hw::Cpu&, std::size_t, std::size_t)>;

  /// Split [0, items) into shards and execute them across the crew with
  /// earliest-finisher (work-stealing) scheduling, then barrier-join so
  /// every member's clock sits at the phase end. With no helper, run
  /// `body(cp, 0, items)` once and charge no coordination. `name` keys the
  /// per-shard and per-worker telemetry histograms ("<name>.shard_cycles",
  /// "<name>.worker_cycles", "<name>.phase_cycles"). Rethrows a worker's
  /// FaultInjected after the join.
  CrewPhaseStats run_phase(const char* name, std::size_t items,
                           const ShardFn& body);

  /// Busy fraction across all phases so far: shard cycles executed divided
  /// by crew-cycles available (phase spans × crew size). 1.0 = perfectly
  /// balanced shards, no dispatch overhead.
  double utilization() const;

 private:
  /// Align every member to the crew max plus the join handshake.
  void join();

  hw::Machine& machine_;
  std::vector<hw::Cpu*> members_;  // members_[0] is the control processor
  hw::Cycles busy_total_ = 0;
  hw::Cycles span_total_ = 0;
  std::size_t phases_ = 0;
};

}  // namespace mercury::core
