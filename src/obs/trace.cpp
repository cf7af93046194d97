#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/interval.hpp"
#include "obs/metrics.hpp"

namespace mercury::obs {

namespace {
// The simulator is single-threaded, so the ambient causal context and node
// attribution are plain globals (see trace.hpp header comment).
SpanContext g_span_ctx;
std::uint16_t g_trace_node = 0;
std::uint32_t g_next_span_id = 0;

void append_us(std::string& out, hw::Cycles cycles) {
  char num[64];
  std::snprintf(num, sizeof num, "%.3f", hw::cycles_to_us(cycles));
  out += num;
}
}  // namespace

const SpanContext& current_span_context() { return g_span_ctx; }
void set_span_context(const SpanContext& ctx) { g_span_ctx = ctx; }
std::uint32_t next_span_id() { return ++g_next_span_id; }
std::uint16_t current_trace_node() { return g_trace_node; }
void set_trace_node(std::uint16_t node) { g_trace_node = node; }

const char* trace_cat_name(TraceCat cat) {
  switch (cat) {
    case TraceCat::kSwitch: return "switch";
    case TraceCat::kRendezvous: return "rendezvous";
    case TraceCat::kTransfer: return "transfer";
    case TraceCat::kFixup: return "fixup";
    case TraceCat::kVmm: return "vmm";
    case TraceCat::kNet: return "net";
    case TraceCat::kFs: return "fs";
    case TraceCat::kCluster: return "cluster";
    case TraceCat::kFault: return "fault";
    case TraceCat::kOther: return "other";
  }
  return "?";
}

std::string chrome_trace_json(const FlightRecorder& rec) {
  struct Item {
    hw::Cycles begin;
    const FlightEvent* ev;
  };
  const std::vector<FlightEvent> evs = rec.events();
  std::vector<Item> items;
  items.reserve(evs.size());
  for (const FlightEvent& ev : evs) {
    if (ev.type == FlightType::kPhaseBegin) continue;
    // An end record alone bounds its interval, so a span whose begin record
    // was overwritten still exports.
    const bool end = ev.type == FlightType::kPhaseEnd;
    items.push_back({end ? ev.at - ev.arg1 : ev.at, &ev});
  }
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    if (a.begin != b.begin) return a.begin < b.begin;
    return a.ev->seq < b.ev->seq;
  });

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Item& item : items) {
    const FlightEvent& ev = *item.ev;
    const bool span = ev.type == FlightType::kPhaseEnd;
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    append_json_string(out, ev.name);
    out += ",\"cat\":\"";
    out += span && ev.arg0 < kIntervalKindCount
               ? trace_cat_name(kIntervalKinds[ev.arg0].cat)
               : flight_type_name(ev.type);
    if (span && ev.arg1 != 0) {
      out += "\",\"ph\":\"X\",\"ts\":";
      append_us(out, item.begin);
      out += ",\"dur\":";
      append_us(out, ev.arg1);
    } else {
      out += "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
      append_us(out, item.begin);
    }
    // pid = cluster node: each node renders as its own process group in the
    // Chrome/Perfetto UI (node 0 = unscoped single-machine events).
    out += ",\"pid\":";
    out += std::to_string(ev.node);
    out += ",\"tid\":";
    out += std::to_string(ev.cpu);
    out += ",\"args\":{\"seq\":";
    out += std::to_string(ev.seq);
    if (ev.trace_id != 0) {
      out += ",\"trace\":";
      out += std::to_string(ev.trace_id);
      if (ev.span_id != 0) {
        out += ",\"span\":";
        out += std::to_string(ev.span_id);
      }
      out += ",\"parent\":";
      out += std::to_string(ev.parent_id);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

}  // namespace mercury::obs
