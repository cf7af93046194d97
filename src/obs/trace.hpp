// Causal tracing and the Chrome view of the flight ring (telemetry
// pillar 3).
//
// There is one per-CPU event ring, the flight recorder
// (obs/flight_recorder.hpp), and the Chrome `trace_event` export
// (chrome://tracing / Perfetto "Open trace file") is a view over it: each
// interval's end record becomes one complete span, every other event but a
// begin record an instant. One process per cluster node, one track per
// simulated CPU, ts/dur in simulated microseconds.
//
// Causal tracing: every flight event carries the ids of a SpanContext
// (trace-id / span-id / parent-span-id). The simulator is a
// single-threaded discrete-event machine, so the *ambient* context is one
// global slot: an open interval is the ambient context for its scope, and
// anything recorded inside — nested intervals, point events, a cross-node
// switch request — links to it. The cluster fabric installs a
// TraceNodeScope around each node's stepper so events are attributed to
// the node (the Chrome pid) they ran on, and the switch supervisor/engine
// carry a captured SpanContext across the asynchronous request ->
// interrupt -> commit hop, so one cluster-wide switch wave renders as a
// single causally-linked tree.
#pragma once

#include <cstdint>
#include <string>

namespace mercury::obs {

class FlightRecorder;

enum class TraceCat : std::uint8_t {
  kSwitch,      // whole mode-switch commits
  kRendezvous,  // §5.4 SMP barrier
  kTransfer,    // §5.1.2 state-transfer phases
  kFixup,       // stack segment-selector rewriting
  kVmm,         // hypervisor: adopt/release, hypercall storms
  kNet,         // network stack
  kFs,          // filesystem / block cache
  kCluster,     // cross-node scenarios
  kFault,       // injected faults + mid-switch rollbacks
  kOther,
};

const char* trace_cat_name(TraceCat cat);

/// Causal identity of one span. Ids come from a process-global monotonic
/// counter (deterministic, never random): 0 means "none", so a
/// default-constructed context is the absence of a trace. 32 bits hold
/// about 4 G ids; a 30 s benchmark run allocates about 3 M.
struct SpanContext {
  std::uint32_t trace_id = 0;   // the whole causal tree (e.g. one wave)
  std::uint32_t span_id = 0;    // this span
  std::uint32_t parent_id = 0;  // enclosing span (0 = root)
  bool valid() const { return trace_id != 0; }
};

/// The ambient span context (single global slot; see the header comment).
const SpanContext& current_span_context();
void set_span_context(const SpanContext& ctx);

/// Allocate the next span/trace id (monotonic, starts at 1).
std::uint32_t next_span_id();

/// RAII: install `ctx` as the ambient context, restore the prior one on
/// scope exit. Used to re-establish a captured context after an
/// asynchronous hop (supervisor retry timer, cross-node message).
class SpanContextScope {
 public:
  explicit SpanContextScope(const SpanContext& ctx)
      : prev_(current_span_context()) {
    set_span_context(ctx);
  }
  ~SpanContextScope() { set_span_context(prev_); }
  SpanContextScope(const SpanContextScope&) = delete;
  SpanContextScope& operator=(const SpanContextScope&) = delete;

 private:
  SpanContext prev_;
};

/// The ambient cluster-node id events are attributed to (the Chrome export
/// pid). 0 = unscoped single-machine runs; the fabric assigns index+1.
std::uint16_t current_trace_node();
void set_trace_node(std::uint16_t node);

/// RAII node attribution, installed by cluster::NodeScope around whatever
/// a fleet node runs.
class TraceNodeScope {
 public:
  explicit TraceNodeScope(std::uint16_t node) : prev_(current_trace_node()) {
    set_trace_node(node);
  }
  ~TraceNodeScope() { set_trace_node(prev_); }
  TraceNodeScope(const TraceNodeScope&) = delete;
  TraceNodeScope& operator=(const TraceNodeScope&) = delete;

 private:
  std::uint16_t prev_;
};

/// Chrome trace_event JSON for the events `rec` retains: a `phase.end`
/// record is one "X" span from `at - elapsed` to `at` (an "i" instant when
/// the interval took no time), a begin record exports nothing, and every
/// other event is an instant whose category is its flight type. Ordered by
/// (begin, seq); pid = the cluster node, tid = the CPU; the flight seq and
/// the trace/span/parent ids travel in "args". Loadable by chrome://tracing
/// and ui.perfetto.dev.
std::string chrome_trace_json(const FlightRecorder& rec);

}  // namespace mercury::obs
