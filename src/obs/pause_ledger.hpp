// Pause observatory (dependability pillar: measure worst-case, not mean).
//
// Mercury's rendezvous stops every CPU during a mode switch (paper §5.4);
// ROADMAP item 5 (latency-bounded switching) needs the *tail* of per-CPU
// unavailability, attributed to a cause. The ledger records every interval a
// vCPU is unavailable to guest work as a typed (cause, begin, end, detail)
// record: per-cause cycle histograms with exact running max, per-CPU cycle
// totals, and a running worst-case interval that carries a flight-recorder
// sequence number so the black box tail around the worst pause can be
// replayed from the same artifact.
//
// Attribution is per-cause, not additive: a crew shard runs *inside* the
// rendezvous parked window and a TLB shootdown *inside* a transfer phase, so
// summing causes double-counts by design. The worst-case tracker compares
// raw spans across causes, which is exactly what a deadline bound cares
// about.
//
// The ledger is a view of the interval stream (obs/interval.hpp): every
// interval whose kind names a pause cause lands here, in both builds —
// dependability arcs read their downtime from it, so it must not depend on
// MERCURY_OBS. Recording is host-side arithmetic plus histogram bumps; it
// never cpu.charge()s.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hw/types.hpp"
#include "util/stats.hpp"

namespace mercury::obs {

enum class PauseCause : std::uint8_t {
  kRendezvousParked,        // held at the §5.4 barrier
  kCrewShardWork,           // running sharded switch work while parked
  kTlbShootdown,            // batched cross-CPU TLB flush boundary
  kHypercallEmulation,      // ring-0 entry/emulate/exit window
  kRollbackUnwind,          // undoing a half-applied switch
  kSupervisorRetryBackoff,  // supervisor holding a request in backoff
  kMigrateStopCopy,         // live-migration stop-and-copy freeze window
  kCheckpointCopy,          // checkpoint capture / restore copy window
  kCauseCount,              // sentinel — keep last
};

constexpr std::size_t kPauseCauseCount =
    static_cast<std::size_t>(PauseCause::kCauseCount);

/// Stable artifact name ("rendezvous-parked", ...); "?" past the sentinel.
const char* pause_cause_name(PauseCause c);

/// The running worst-case unavailability interval across all causes.
struct PauseWorst {
  bool valid = false;
  PauseCause cause = PauseCause::kRendezvousParked;
  std::uint32_t cpu = 0;
  hw::Cycles begin = 0;
  hw::Cycles end = 0;
  const char* detail = "";     // static string (site literals)
  std::uint64_t flight_seq = 0;  // seq of the pause.worst flight event
  hw::Cycles span() const { return end - begin; }
};

/// Per-CPU unavailability ledger. One instance is the process-global
/// ambient default (pause_ledger()); soaks install per-node instances via
/// PauseLedgerScope so fleet rollups stay per-node.
class PauseLedger {
 public:
  PauseLedger();

  /// Record one closed interval [begin, end] on `cpu`. end < begin is
  /// clamped to a zero span (defensive; sites pass monotone clocks). A
  /// cause past the sentinel fails a MERC_CHECK: every stop has a cause.
  void record(PauseCause cause, std::uint32_t cpu, hw::Cycles begin,
              hw::Cycles end, const char* detail = "");

  std::uint64_t intervals() const { return intervals_; }
  /// Intervals recorded with no valid cause: 0 by construction. The
  /// interval stream fails a MERC_CHECK on an unpaired half and record()
  /// on a missing cause; the count stays in the artifacts that report it.
  std::uint64_t unattributed() const { return 0; }
  std::uint64_t count(PauseCause c) const { return per_cause(c).count; }
  hw::Cycles total(PauseCause c) const { return per_cause(c).total; }
  /// Log2-bucketed quantile, except q >= 1.0 returns the *exact* recorded
  /// max (RunningStats, not a bucket bound) — worst-case must not round.
  std::uint64_t quantile(PauseCause c, double q) const;
  /// Total recorded unavailability on `cpu` (0 for CPUs never paused).
  hw::Cycles cpu_total(std::uint32_t cpu) const;
  const PauseWorst& worst() const { return worst_; }

  /// Fold another ledger's intervals in (histograms, moments, CPU totals,
  /// worst-case). Bench sweeps merge per-cell ledgers
  /// into a run ledger; soak merges per-node into fleet.
  void merge(const PauseLedger& other);

  /// Drop the distributions but keep the worst-case (a bench clearing
  /// between sweep cells must not lose the run's worst interval).
  void clear();
  /// Full reset, worst-case included.
  void reset();

  /// The mercury.pause.v1 document (see scripts/check_bench_json.py).
  std::string to_json() const;

 private:
  struct CauseSlot {
    util::Histogram hist;
    util::RunningStats moments;
    std::uint64_t count = 0;
    hw::Cycles total = 0;
  };

  const CauseSlot& per_cause(PauseCause c) const;
  void note_worst(PauseCause cause, std::uint32_t cpu, hw::Cycles begin,
                  hw::Cycles end, const char* detail);

  std::vector<CauseSlot> causes_;       // indexed by PauseCause
  std::vector<hw::Cycles> cpu_totals_;  // indexed by cpu id, grown on demand
  std::uint64_t intervals_ = 0;
  PauseWorst worst_;
};

/// The ambient ledger the interval stream records into: the innermost active
/// PauseLedgerScope's ledger, or the process-global default. First use of
/// the global registers `obs.pause.intervals` / `obs.pause.unattributed` /
/// `obs.pause.worst_cycles` callback gauges so every --metrics-json
/// artifact carries the ledger's health.
PauseLedger& pause_ledger();

/// Install `ledger` as the ambient pause ledger for this scope (restores
/// the previous one on destruction). ClusterSoak gives each node its own.
class PauseLedgerScope {
 public:
  explicit PauseLedgerScope(PauseLedger& ledger);
  ~PauseLedgerScope();
  PauseLedgerScope(const PauseLedgerScope&) = delete;
  PauseLedgerScope& operator=(const PauseLedgerScope&) = delete;

 private:
  PauseLedger* prev_;
};

}  // namespace mercury::obs
