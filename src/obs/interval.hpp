// One interval stream (observability: the recorders never disagree).
//
// Every timed interval — a switch commit, a transfer phase, a CPU parked at
// the §5.4 barrier, a hypercall, a checkpoint copy — is emitted once, as an
// obs::Interval RAII scope (phases) or by one obs::record_interval() call
// when its bounds are known only afterwards (per-CPU parking, crew shards,
// supervisor backoff, the cluster wave). Both are keyed by an IntervalKind
// from the one kind table below. The stream writes a begin and an end
// record to the flight ring and derives the Chrome span, the pause-ledger
// interval and the histogram sample from the same closed interval.
//
// Pairing is structural: each CPU has a stack of open intervals, closed
// innermost first. An end with no open begin, or a begin still open when
// its enclosing scope ends, fails a MERC_CHECK naming the interval and the
// CPU inside a noexcept close, so the run dies with a postmortem. An
// interval ended by an exception still reaches every view, its flight end
// flagged unwound; it adds no histogram sample.
//
// The pairing and the pause ledger are built with MERCURY_OBS=OFF too: arc
// downtime is read from the ledger. The flight ring, the trace ring and the
// histograms compile away. Nothing here charges a simulated cycle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>

#include "hw/cpu.hpp"
#include "obs/pause_ledger.hpp"
#include "obs/trace.hpp"

namespace mercury::obs {

/// The kind table, one row per kind: enumerator, name, Chrome category,
/// pause cause (kCauseCount when the interval is not a stop), histogram.
/// The name is the interval's name in every view; crew phases and shards
/// are named per instance by their phase, and their histogram name, which
/// starts with '.', is appended to it ("switch.crew.rebuild.shard_cycles").
/// The histogram gets one sample per cleanly ended interval.
#define MERC_INTERVAL_KINDS(X)                                                \
  X(kSwitchAttach, "switch.attach", kSwitch, kCauseCount,                     \
    "switch.attach.total_cycles")                                             \
  X(kSwitchDetach, "switch.detach", kSwitch, kCauseCount,                     \
    "switch.detach.total_cycles")                                             \
  X(kSwitchRerole, "switch.rerole", kSwitch, kCauseCount,                     \
    "switch.rerole.total_cycles")                                             \
  X(kRendezvousPark, "rendezvous.park", kRendezvous, kCauseCount, nullptr)    \
  X(kRendezvousParked, "rendezvous.parked", kRendezvous, kRendezvousParked,   \
    nullptr)                                                                  \
  X(kCrewPhase, "crew.phase", kTransfer, kCauseCount, ".phase_cycles")        \
  X(kCrewShard, "crew.shard", kTransfer, kCrewShardWork, ".shard_cycles")     \
  X(kPageInfoRebuild, "transfer.page_info_rebuild", kTransfer, kCauseCount,   \
    "transfer.page_info_cycles")                                              \
  X(kUnprotectTables, "transfer.unprotect_tables", kTransfer, kCauseCount,    \
    "transfer.protection_cycles")                                             \
  X(kEagerFixup, "transfer.eager_fixup", kFixup, kCauseCount,                 \
    "transfer.fixup_cycles")                                                  \
  X(kRebindTraps, "transfer.rebind_traps", kTransfer, kCauseCount,            \
    "transfer.binding_cycles")                                                \
  X(kReloadHwState, "switch.reload_hw_state", kSwitch, kCauseCount, nullptr)  \
  X(kSwitchRollback, "switch.rollback", kFault, kRollbackUnwind, nullptr)     \
  X(kFixupWalkTasks, "fixup.walk_tasks", kFixup, kCauseCount, nullptr)        \
  X(kVmmAdoptRunningOs, "vmm.adopt_running_os", kVmm, kCauseCount, nullptr)   \
  X(kVmmRebuildPageInfo, "vmm.rebuild_page_info", kVmm, kCauseCount, nullptr) \
  X(kVmmTypeAndProtect, "vmm.type_and_protect", kVmm, kCauseCount, nullptr)   \
  X(kVmmRollbackAdopt, "vmm.rollback_adopt", kFault, kCauseCount, nullptr)    \
  X(kVmmReprotectOs, "vmm.reprotect_os", kFault, kCauseCount, nullptr)        \
  X(kTlbShootdown, "vmm.tlb_shootdown_all", kVmm, kTlbShootdown, nullptr)     \
  X(kHypercall, "vmm.hypercall", kVmm, kHypercallEmulation, nullptr)          \
  X(kPteWriteEmulate, "vmm.pte_write_emulate", kVmm, kHypercallEmulation,     \
    nullptr)                                                                  \
  X(kCheckpointCapture, "checkpoint.capture", kVmm, kCheckpointCopy, nullptr) \
  X(kRestoreApply, "restore.apply", kVmm, kCheckpointCopy, nullptr)           \
  X(kMigratePrecopy, "migrate.precopy", kVmm, kCauseCount, nullptr)           \
  X(kMigrateStopCopy, "migrate.stopcopy", kVmm, kMigrateStopCopy, nullptr)    \
  X(kSupervisorBackoff, "supervisor.backoff", kSwitch,                        \
    kSupervisorRetryBackoff, "switch.supervisor.backoff_cycles")              \
  X(kFabricSwitchMsg, "fabric.msg.switch", kCluster, kCauseCount, nullptr)    \
  X(kClusterWave, "cluster.wave", kCluster, kCauseCount, nullptr)

enum class IntervalKind : std::uint8_t {
#define MERC_INTERVAL_ENUM(kind, name, cat, cause, hist) kind,
  MERC_INTERVAL_KINDS(MERC_INTERVAL_ENUM)
#undef MERC_INTERVAL_ENUM
  kCount,  // sentinel — keep last
};

constexpr std::size_t kIntervalKindCount =
    static_cast<std::size_t>(IntervalKind::kCount);

struct IntervalKindInfo {
  const char* name;
  TraceCat cat;
  PauseCause cause;  // kCauseCount: not a stop
  const char* hist;  // nullptr: no histogram
};

inline constexpr IntervalKindInfo kIntervalKinds[] = {
#define MERC_INTERVAL_ROW(kind, name, cat, cause, hist) \
  {name, TraceCat::cat, PauseCause::cause, hist},
    MERC_INTERVAL_KINDS(MERC_INTERVAL_ROW)
#undef MERC_INTERVAL_ROW
};

constexpr const IntervalKindInfo& interval_kind_info(IntervalKind k) {
  return kIntervalKinds[static_cast<std::size_t>(k)];
}

/// Open an interval on `cpu`'s stack at `at`. The begin record's args are
/// [kind, arg0, arg1]. `name` (a literal) defaults to the kind's name. In
/// telemetry builds the interval becomes the ambient span context.
void open_interval(IntervalKind kind, std::uint32_t cpu, hw::Cycles at,
                   std::uint64_t arg0 = 0, std::uint64_t arg1 = 0,
                   const char* name = nullptr);

/// Close the innermost open interval on `cpu`, which must be of `kind`, at
/// `at`, and emit it to every view. The end record's args are [kind,
/// elapsed cycles, unwound].
void close_interval(IntervalKind kind, std::uint32_t cpu, hw::Cycles at,
                    bool unwound) noexcept;

/// Emit one closed interval whose bounds were known only afterwards. It
/// nests under the ambient span context, unless `ctx` gives its identity.
void record_interval(IntervalKind kind, std::uint32_t cpu, hw::Cycles begin,
                     hw::Cycles end, std::uint64_t arg0 = 0,
                     std::uint64_t arg1 = 0, const char* name = nullptr,
                     const SpanContext* ctx = nullptr);

/// RAII interval over `cpu`'s simulated clock, open for the scope.
class Interval {
 public:
  Interval(const hw::Cpu& cpu, IntervalKind kind, std::uint64_t arg0 = 0,
           std::uint64_t arg1 = 0, const char* name = nullptr)
      : cpu_(cpu), kind_(kind), uncaught_(std::uncaught_exceptions()) {
    open_interval(kind, cpu.id(), cpu.now(), arg0, arg1, name);
  }
  ~Interval() {
    close_interval(kind_, cpu_.id(), cpu_.now(),
                   unwound_ || std::uncaught_exceptions() > uncaught_);
  }
  Interval(const Interval&) = delete;
  Interval& operator=(const Interval&) = delete;

  /// End as unwound although no exception crosses the scope: the work it
  /// covers was caught and undone inside it (a rolled-back switch).
  void mark_unwound() { unwound_ = true; }

 private:
  const hw::Cpu& cpu_;
  IntervalKind kind_;
  int uncaught_;
  bool unwound_ = false;
};

}  // namespace mercury::obs
