#include "obs/interval.hpp"

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "util/assert.hpp"

namespace mercury::obs {

namespace {

// scripts/blackbox_report.py reads these kinds by value.
static_assert(static_cast<int>(IntervalKind::kCrewPhase) == 5 &&
              static_cast<int>(IntervalKind::kCrewShard) == 6 &&
              static_cast<int>(IntervalKind::kSupervisorBackoff) == 26);

struct OpenInterval {
  IntervalKind kind;
  const char* name;
  hw::Cycles begin;
  SpanContext ctx;     // this interval's causal identity (telemetry builds)
  SpanContext parent;  // the ambient context it replaced
};

/// Per-CPU stacks of open intervals. The simulator is single-threaded, so a
/// plain global serves (like the ambient span context in trace.cpp).
std::vector<std::vector<OpenInterval>> g_open;

#if MERCURY_OBS_ENABLED
/// A child of `parent`, or the root of a fresh trace when there is none.
SpanContext child_of(const SpanContext& parent) {
  SpanContext ctx;
  ctx.trace_id = parent.valid() ? parent.trace_id : next_span_id();
  ctx.span_id = next_span_id();
  ctx.parent_id = parent.span_id;
  return ctx;
}

/// The histogram `info` feeds for an interval named `name`, looked up once
/// per (kind, instance name) and cached.
Hist& histogram_for(IntervalKind kind, const char* name) {
  static std::map<std::pair<IntervalKind, const char*>, Hist*> cache;
  Hist*& h = cache[{kind, name}];
  if (h == nullptr) {
    const char* hist = interval_kind_info(kind).hist;
    h = &registry().histogram(hist[0] == '.' ? name + std::string(hist)
                                             : std::string(hist));
  }
  return *h;
}
#endif

/// Derive every view from one closed interval.
void emit(IntervalKind kind, const char* name, std::uint32_t cpu,
          hw::Cycles begin, hw::Cycles end, [[maybe_unused]] bool unwound,
          [[maybe_unused]] const SpanContext& ctx) {
  const IntervalKindInfo& info = interval_kind_info(kind);
  [[maybe_unused]] const hw::Cycles span = end >= begin ? end - begin : 0;
#if MERCURY_OBS_ENABLED
  flight_recorder().record(cpu, FlightType::kPhaseEnd, name, end,
                           static_cast<std::uint64_t>(kind), span,
                           unwound ? 1 : 0);
#endif
  if (info.cause != PauseCause::kCauseCount)
    pause_ledger().record(info.cause, cpu, begin, end, name);
#if MERCURY_OBS_ENABLED
  TraceEvent ev{name, info.cat, cpu, begin, end};
  ev.trace_id = ctx.trace_id;
  ev.span_id = ctx.span_id;
  ev.parent_id = ctx.parent_id;
  trace_buffer().record(ev);
  if (info.hist != nullptr && !unwound)
    histogram_for(kind, name).record(span);
#endif
}

}  // namespace

void open_interval(IntervalKind kind, std::uint32_t cpu, hw::Cycles at,
                   [[maybe_unused]] std::uint64_t arg0,
                   [[maybe_unused]] std::uint64_t arg1, const char* name) {
  if (cpu >= g_open.size()) g_open.resize(cpu + 1);
  if (name == nullptr) name = interval_kind_info(kind).name;
  OpenInterval iv{kind, name, at, {}, {}};
#if MERCURY_OBS_ENABLED
  iv.parent = current_span_context();
  iv.ctx = child_of(iv.parent);
  set_span_context(iv.ctx);
  flight_recorder().record(cpu, FlightType::kPhaseBegin, iv.name, at,
                           static_cast<std::uint64_t>(kind), arg0, arg1);
#endif
  g_open[cpu].push_back(iv);
}

void close_interval(IntervalKind kind, std::uint32_t cpu, hw::Cycles at,
                    bool unwound) noexcept {
  MERC_CHECK_MSG(cpu < g_open.size() && !g_open[cpu].empty(),
                 "interval end with no open begin: "
                     << interval_kind_info(kind).name << " on cpu " << cpu);
  const OpenInterval iv = g_open[cpu].back();
  MERC_CHECK_MSG(iv.kind == kind,
                 "interval begin still open when its scope ends: "
                     << iv.name << " on cpu " << cpu << ", inside "
                     << interval_kind_info(kind).name);
  g_open[cpu].pop_back();
#if MERCURY_OBS_ENABLED
  set_span_context(iv.parent);
#endif
  emit(kind, iv.name, cpu, iv.begin, at, unwound, iv.ctx);
}

void record_interval(IntervalKind kind, std::uint32_t cpu, hw::Cycles begin,
                     hw::Cycles end, [[maybe_unused]] std::uint64_t arg0,
                     [[maybe_unused]] std::uint64_t arg1, const char* name,
                     [[maybe_unused]] const SpanContext* ctx) {
  if (name == nullptr) name = interval_kind_info(kind).name;
  SpanContext id;
#if MERCURY_OBS_ENABLED
  id = ctx != nullptr ? *ctx : child_of(current_span_context());
  flight_recorder().record(cpu, FlightType::kPhaseBegin, name, begin,
                           static_cast<std::uint64_t>(kind), arg0, arg1);
#endif
  emit(kind, name, cpu, begin, end, /*unwound=*/false, id);
}

}  // namespace mercury::obs
