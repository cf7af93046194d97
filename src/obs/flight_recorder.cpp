#include "obs/flight_recorder.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace mercury::obs {

const char* flight_type_name(FlightType t) {
  switch (t) {
    case FlightType::kPhaseBegin: return "phase.begin";
    case FlightType::kPhaseEnd: return "phase.end";
    case FlightType::kSwitchRequest: return "switch.request";
    case FlightType::kSwitchCommit: return "switch.commit";
    case FlightType::kSwitchRollback: return "switch.rollback";
    case FlightType::kRefcountRetry: return "refcount.retry";
    case FlightType::kShardRange: return "shard.range";
    case FlightType::kFaultHit: return "fault.hit";
    case FlightType::kRollbackStep: return "rollback.step";
    case FlightType::kInvariantVerdict: return "invariant.verdict";
    case FlightType::kAssertFail: return "assert.fail";
    case FlightType::kSwitchCancel: return "switch.cancel";
    case FlightType::kSupervisorAttempt: return "supervisor.attempt";
    case FlightType::kSupervisorResolve: return "supervisor.resolve";
    case FlightType::kHealthTransition: return "supervisor.health";
    case FlightType::kPauseWorst: return "pause.worst";
    case FlightType::kMarker: return "marker";
  }
  return "?";
}

FlightRecorder::FlightRecorder(std::size_t capacity_per_cpu)
    : capacity_(capacity_per_cpu ? capacity_per_cpu : 1) {}

void FlightRecorder::set_capacity(std::size_t per_cpu) {
  capacity_ = per_cpu ? per_cpu : 1;
  rings_.clear();
  clear();
}

void FlightRecorder::clear() {
  // Keep each ring's slots: callers clear between runs, and re-allocating
  // (and value-initializing) a full ring on the next record() is the
  // expensive part of a clear.
  for (Ring& r : rings_) {
    r.head = 0;
    r.size = 0;
  }
  recorded_ = 0;
  dropped_ = 0;
  // next_seq_ keeps counting: seq is an emission order, not an index, and a
  // clear between switches must not make old exported events look newer
  // than post-clear ones.
}

void FlightRecorder::record(std::uint32_t cpu, FlightType type,
                            const char* name, hw::Cycles at,
                            std::uint64_t arg0, std::uint64_t arg1,
                            std::uint64_t arg2) {
  // A point event hangs off whatever span is ambient at its site.
  const SpanContext& ambient = current_span_context();
  record(SpanContext{ambient.trace_id, 0, ambient.span_id}, cpu, type, name,
         at, arg0, arg1, arg2);
}

void FlightRecorder::record(const SpanContext& ctx, std::uint32_t cpu,
                            FlightType type, const char* name, hw::Cycles at,
                            std::uint64_t arg0, std::uint64_t arg1,
                            std::uint64_t arg2) {
  if (!enabled_) return;
  if (cpu >= rings_.size()) rings_.resize(cpu + 1);
  Ring& r = rings_[cpu];
  if (r.slots.empty()) r.slots.resize(capacity_);
  if (r.size == r.slots.size()) ++dropped_;  // overwriting the oldest
  else ++r.size;
  r.slots[r.head] = FlightEvent{next_seq_++, at, name, type,
                                current_trace_node(), cpu, arg0, arg1, arg2,
                                ctx.trace_id, ctx.span_id, ctx.parent_id};
  r.head = (r.head + 1) % r.slots.size();
  ++recorded_;
}

std::vector<FlightEvent> FlightRecorder::events() const {
  std::vector<FlightEvent> out;
  for (const Ring& r : rings_) {
    const std::size_t cap = r.slots.size();
    const std::size_t start = r.size == cap ? r.head : 0;
    for (std::size_t i = 0; i < r.size; ++i)
      out.push_back(r.slots[(start + i) % cap]);
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              return a.seq < b.seq;
            });
  return out;
}

std::vector<FlightEvent> FlightRecorder::tail(std::size_t n) const {
  std::vector<FlightEvent> all = events();
  if (all.size() > n) all.erase(all.begin(), all.end() - static_cast<std::ptrdiff_t>(n));
  return all;
}

FlightRecorder& flight_recorder() {
  static FlightRecorder rec;
  // Ring overflow must be visible in every --metrics-json artifact, not
  // silently lost: expose the running totals as callback gauges the first
  // time anything touches the recorder.
  static const bool registered = [] {
    registry().register_callback("obs.flight.recorded", {}, [] {
      return static_cast<double>(flight_recorder().recorded());
    });
    registry().register_callback("obs.flight.dropped", {}, [] {
      return static_cast<double>(flight_recorder().dropped());
    });
    return true;
  }();
  (void)registered;
  return rec;
}

std::string flight_events_json(const std::vector<FlightEvent>& events) {
  std::string out = "[";
  bool first = true;
  for (const FlightEvent& ev : events) {
    if (!first) out += ',';
    first = false;
    out += "{\"seq\":";
    out += std::to_string(ev.seq);
    out += ",\"cpu\":";
    out += std::to_string(ev.cpu);
    out += ",\"cycles\":";
    out += std::to_string(ev.at);
    out += ",\"type\":\"";
    out += flight_type_name(ev.type);
    // A failed check records its expression as the name: escape it.
    out += "\",\"name\":";
    append_json_string(out, ev.name);
    out += ",\"args\":[";
    out += std::to_string(ev.arg0);
    out += ',';
    out += std::to_string(ev.arg1);
    out += ',';
    out += std::to_string(ev.arg2);
    out += "]}";
  }
  out += ']';
  return out;
}

}  // namespace mercury::obs
