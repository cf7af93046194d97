// Black-box flight recorder (dependability pillar: make every rollback,
// crash, and invariant failure diagnosable after the fact).
//
// A fixed-capacity, per-CPU ring of *typed, argument-carrying* events: the
// begin and end of every interval (obs/interval.hpp writes them; a crew
// shard's begin carries its range, an end its elapsed cycles and whether it
// unwound), plus point events — switch requests and commits, refcount
// retries, fault-injection hits, rollback steps, invariant verdicts,
// supervisor attempts and resolutions, markers. Every event carries up to
// three integer arguments, the cluster node and causal ids it was recorded
// under, and a *global* sequence number, so cross-CPU causality survives
// export: merging the per-CPU rings by `seq` reconstructs exactly the order
// in which the single-threaded simulator emitted them. It is the only event
// ring: the Chrome trace is a view over it (obs/trace.hpp).
//
// Recording is a ring-slot store plus a counter increment — no allocation
// after the first event on a CPU, no simulated cost (instrumentation never
// cpu.charge()s). The MERC_FLIGHT macro in obs/obs.hpp, and the interval
// stream's records, compile away under MERCURY_OBS=OFF.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hw/types.hpp"
#include "obs/trace.hpp"

namespace mercury::obs {

enum class FlightType : std::uint8_t {
  kPhaseBegin,        // interval begin: arg0 = IntervalKind, arg1/arg2 =
                      //   kind-specific (item count, shard range, modes)
  kPhaseEnd,          // interval end: arg0 = IntervalKind, arg1 = elapsed
                      //   cycles, arg2 = 1 when it unwound
  kSwitchRequest,     // arg0 = from mode, arg1 = target mode
  kSwitchCommit,      // arg0 = from mode, arg1 = target mode, arg2 = cycles
  kSwitchRollback,    // arg0 = from mode, arg1 = target mode
  kRefcountRetry,     // arg0 = observed active_refs, arg1 = total deferrals
  kShardRange,        // arg0 = count, arg1 = first pfn, arg2 = last pfn
  kFaultHit,          // arg0 = site, arg1 = kind, arg2 = visit count
  kRollbackStep,      // arg0 = step ordinal
  kInvariantVerdict,  // arg0 = violation count
  kAssertFail,        // arg0 = source line
  kSwitchCancel,      // arg0 = current mode, arg1 = abandoned target mode
  kSupervisorAttempt, // arg0 = request id, arg1 = attempt #, arg2 = target
  kSupervisorResolve, // arg0 = request id, arg1 = terminal state, arg2 = attempts
  kHealthTransition,  // arg0 = from health, arg1 = to health, arg2 = fail streak
  kPauseWorst,        // arg0 = pause cause, arg1 = begin cycle, arg2 = span
  kMarker,            // a named point inside a phase; args marker-specific
};

const char* flight_type_name(FlightType t);

struct FlightEvent {
  std::uint64_t seq = 0;   // global emission order, across CPUs
  hw::Cycles at = 0;       // emitting CPU's simulated clock
  const char* name = "";   // static string (event names are literals)
  FlightType type = FlightType::kPhaseBegin;
  std::uint16_t node = 0;  // cluster node (0 = unscoped); the Chrome pid
  std::uint32_t cpu = 0;
  std::uint64_t arg0 = 0, arg1 = 0, arg2 = 0;
  // Causal ids (obs/trace.hpp): an interval's own on its begin and end
  // records; on a point event the ambient span's trace and, as parent, the
  // span itself.
  std::uint32_t trace_id = 0;  // 0 = untraced
  std::uint32_t span_id = 0;
  std::uint32_t parent_id = 0;
};
// Every slot is paid per CPU: a depend-arcs benchmark ring is 32 768 slots.
static_assert(sizeof(FlightEvent) <= 72);

/// Per-CPU rings of FlightEvents with one global sequence counter. Rings
/// overwrite their oldest event when full (dropped count kept): the black
/// box never allocates unboundedly and never loses the *newest* evidence.
class FlightRecorder {
 public:
  /// A postmortem reads the last 256 events and the pause ledger the last
  /// 64, so the default ring is small.
  static constexpr std::size_t kDefaultCapacityPerCpu = 1024;
  /// A run that writes its Chrome trace sizes the ring to this first
  /// (bench --trace-json): at switch-churn's ~2.8 records per span it holds
  /// ~5 800 spans per CPU.
  static constexpr std::size_t kTraceCapacityPerCpu = 16384;

  explicit FlightRecorder(
      std::size_t capacity_per_cpu = kDefaultCapacityPerCpu);

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Change per-CPU ring capacity; drops everything recorded so far.
  void set_capacity(std::size_t per_cpu);
  std::size_t capacity() const { return capacity_; }

  /// Record a point event under the ambient span context and cluster node.
  void record(std::uint32_t cpu, FlightType type, const char* name,
              hw::Cycles at, std::uint64_t arg0 = 0, std::uint64_t arg1 = 0,
              std::uint64_t arg2 = 0);
  /// Record an event whose causal identity is `ctx` (an interval's begin
  /// and end records), under the ambient cluster node.
  void record(const SpanContext& ctx, std::uint32_t cpu, FlightType type,
              const char* name, hw::Cycles at, std::uint64_t arg0,
              std::uint64_t arg1, std::uint64_t arg2);

  /// All retained events merged across CPUs, in emission (seq) order.
  std::vector<FlightEvent> events() const;
  /// The last `n` retained events in emission order — the black-box tail.
  /// Costs O(n × rings), whatever the rings retain.
  std::vector<FlightEvent> tail(std::size_t n) const;

  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t dropped() const { return dropped_; }
  /// The seq the *next* record() will stamp. Monotonic across clear(), so
  /// a caller can capture it just before emitting an event it wants to
  /// cross-reference (the pause ledger's worst-case tracker does).
  std::uint64_t next_seq() const { return next_seq_; }
  /// Forget every event and zero recorded()/dropped(); the rings keep their
  /// storage.
  void clear();

 private:
  struct Ring {
    std::vector<FlightEvent> slots;
    std::size_t head = 0;  // next write position
    std::size_t size = 0;
  };

  bool enabled_ = true;
  std::size_t capacity_;
  std::vector<Ring> rings_;  // indexed by cpu id, grown on demand
  std::uint64_t next_seq_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
};

/// The process-global recorder the MERC_FLIGHT macro records into. First use
/// registers `obs.flight.recorded` / `obs.flight.dropped` callback gauges so
/// ring overflow shows up in every --metrics-json artifact.
FlightRecorder& flight_recorder();

/// JSON array of `events` (each `{"seq":..,"cpu":..,"cycles":..,"type":..,
/// "name":..,"args":[a0,a1,a2]}`), used by the postmortem bundle.
std::string flight_events_json(const std::vector<FlightEvent>& events);

}  // namespace mercury::obs
