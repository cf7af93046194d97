// Span-based tracer (telemetry pillar 2).
//
// Fixed-capacity per-CPU ring buffers of trace events over simulated
// hw::Cycles. Spans come from the interval stream (obs/interval.hpp): each
// closed interval becomes one complete event. The buffer exports Chrome
// `trace_event` JSON (chrome://tracing / Perfetto "Open trace file"): one
// process per cluster node, one track per simulated CPU, ts/dur in
// simulated microseconds.
//
// Rings overwrite their oldest event when full (the dropped count is kept),
// so tracing never allocates on the hot path after the first event on a CPU
// and a runaway workload cannot exhaust memory — Mercury's "pay only when
// attached" philosophy applied to telemetry.
//
// Causal tracing: every span carries a SpanContext (trace-id / span-id /
// parent-span-id). The simulator is a single-threaded discrete-event
// machine, so the *ambient* context is one global slot: an open interval
// is the ambient context for its scope, and anything recorded inside —
// nested spans, instants, a cross-node switch request — links to it. The
// cluster fabric installs a TraceNodeScope around each node's stepper so
// events are attributed to the node (the Chrome pid) they ran on, and the
// switch supervisor/engine carry a captured SpanContext across the
// asynchronous request -> interrupt -> commit hop, so one cluster-wide
// switch wave renders as a single causally-linked tree.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hw/types.hpp"

namespace mercury::hw {
class Cpu;
}

namespace mercury::obs {

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
/// default-constructed context is the absence of a trace.
struct SpanContext {
  std::uint64_t trace_id = 0;   // the whole causal tree (e.g. one wave)
  std::uint64_t span_id = 0;    // this span
  std::uint64_t parent_id = 0;  // enclosing span (0 = root)
  bool valid() const { return trace_id != 0; }
};

/// The ambient span context (single global slot; see the header comment).
const SpanContext& current_span_context();
void set_span_context(const SpanContext& ctx);

/// Allocate the next span/trace id (monotonic, starts at 1).
std::uint64_t next_span_id();

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
std::uint32_t current_trace_node();
void set_trace_node(std::uint32_t node);

/// RAII node attribution, installed by cluster::NodeScope around whatever
/// a fleet node runs.
class TraceNodeScope {
 public:
  explicit TraceNodeScope(std::uint32_t node) : prev_(current_trace_node()) {
    set_trace_node(node);
  }
  ~TraceNodeScope() { set_trace_node(prev_); }
  TraceNodeScope(const TraceNodeScope&) = delete;
  TraceNodeScope& operator=(const TraceNodeScope&) = delete;

 private:
  std::uint32_t prev_;
};

struct TraceEvent {
  const char* name = "";  // static string (event names are literals)
  TraceCat cat = TraceCat::kOther;
  std::uint32_t cpu = 0;
  hw::Cycles begin = 0;
  hw::Cycles end = 0;  // == begin for instant events
  std::uint32_t node = 0;      // cluster node (0 = unscoped); Chrome pid
  std::uint64_t seq = 0;       // global record order, assigned by the buffer
  std::uint64_t trace_id = 0;  // causal tree (0 = untraced event)
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  bool instant() const { return end == begin; }
};

class TraceBuffer {
 public:
  static constexpr std::size_t kDefaultCapacityPerCpu = 4096;

  explicit TraceBuffer(std::size_t capacity_per_cpu = kDefaultCapacityPerCpu);

  /// Tracing starts enabled; disable to make record() a cheap early-out.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Change per-CPU ring capacity; drops everything recorded so far.
  void set_capacity(std::size_t per_cpu);
  std::size_t capacity() const { return capacity_; }

  /// Record `ev`, stamping it with the next global sequence number and —
  /// when ev.node is 0 — the ambient trace node.
  void record(const TraceEvent& ev);
  void record_instant(std::uint32_t cpu, TraceCat cat, const char* name,
                      hw::Cycles at) {
    TraceEvent ev{name, cat, cpu, at, at};
    // Instants hang off whatever span is ambient at the marker site.
    const SpanContext& ctx = current_span_context();
    ev.trace_id = ctx.trace_id;
    ev.parent_id = ctx.span_id;
    record(ev);
  }

  /// All retained events, oldest first, across CPUs (ordered by begin time,
  /// ties broken by the global sequence number so exports are stable even
  /// when rings wrapped).
  std::vector<TraceEvent> events() const;
  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t dropped() const { return dropped_; }
  /// Drops retained events; the global sequence keeps counting, so events
  /// recorded before and after a clear still order correctly.
  void clear();

 private:
  struct Ring {
    std::vector<TraceEvent> slots;
    std::size_t head = 0;  // next write position
    std::size_t size = 0;
  };

  bool enabled_ = true;
  std::size_t capacity_;
  std::vector<Ring> rings_;  // indexed by cpu id, grown on demand
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t next_seq_ = 1;  // global across rings; survives clear()
};

/// The process-global buffer the instrumentation macros record into.
TraceBuffer& trace_buffer();

/// Chrome trace_event JSON for the buffer ("X" complete events, pid = the
/// cluster node, one tid per simulated CPU; span/trace/parent ids travel in
/// "args"). Loadable by chrome://tracing and ui.perfetto.dev.
std::string chrome_trace_json(const TraceBuffer& buf = trace_buffer());

/// Write chrome_trace_json() to `path`; false on I/O failure.
bool write_chrome_trace(const std::string& path,
                        const TraceBuffer& buf = trace_buffer());

}  // namespace mercury::obs
