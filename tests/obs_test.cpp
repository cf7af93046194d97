// Telemetry layer: registry semantics, the flight ring and its Chrome view,
// the interval stream (span nesting over simulated time, pairing, unwound
// ends), the profiler's self time, and well-formedness of the JSON exports.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "hw/machine.hpp"
#include "obs/obs.hpp"
#include "obs/pause_ledger.hpp"
#include "obs/postmortem.hpp"
#include "obs/profiler.hpp"
#include "obs/timeseries.hpp"
#include "tests/chrome_events.hpp"
#include "tests/json_checker.hpp"
#include "util/stats.hpp"

namespace mercury::testing {
namespace {

// The registry is process-global and shared across test cases, so every test
// uses its own instrument names and asserts on deltas, never totals.

TEST(MetricsRegistry, CounterGetOrCreateAndInc) {
  obs::Counter& c = obs::registry().counter("test.obs.counter_a");
  const std::uint64_t before = c.value();
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), before + 42);
  // Same name -> same instrument.
  EXPECT_EQ(&obs::registry().counter("test.obs.counter_a"), &c);
  // Different label -> different instrument.
  obs::Counter& labeled = obs::registry().counter("test.obs.counter_a", "x=1");
  EXPECT_NE(&labeled, &c);
  labeled.inc(7);
  EXPECT_EQ(c.value(), before + 42);
}

TEST(MetricsRegistry, GaugeSetAndAdd) {
  obs::Gauge& g = obs::registry().gauge("test.obs.gauge_a");
  g.set(2.5);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(MetricsRegistry, HistogramRecordsMomentsAndQuantiles) {
  obs::Hist& h = obs::registry().histogram("test.obs.hist_a");
  h.reset();
  for (std::uint64_t v : {100ull, 200ull, 300ull, 400ull}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.stats().sum(), 1000.0);
  EXPECT_DOUBLE_EQ(h.stats().min(), 100.0);
  EXPECT_DOUBLE_EQ(h.stats().max(), 400.0);
  EXPECT_GT(h.quantile(0.5), 0u);
  EXPECT_GE(h.quantile(0.99), h.quantile(0.5));
}

TEST(MetricsRegistry, SnapshotFindsInstrumentsByNameAndLabel) {
  obs::registry().counter("test.obs.snap_counter", "cpu=0").inc(3);
  obs::registry().counter("test.obs.snap_counter", "cpu=1").inc(5);
  obs::registry().histogram("test.obs.snap_hist").record(64);
  const obs::Snapshot snap = obs::snapshot();
  const obs::InstrumentSample* c0 = snap.find("test.obs.snap_counter", "cpu=0");
  const obs::InstrumentSample* c1 = snap.find("test.obs.snap_counter", "cpu=1");
  ASSERT_NE(c0, nullptr);
  ASSERT_NE(c1, nullptr);
  EXPECT_DOUBLE_EQ(c0->value, 3.0);
  EXPECT_DOUBLE_EQ(c1->value, 5.0);
  EXPECT_EQ(c0->kind, obs::InstrumentKind::kCounter);
  const obs::InstrumentSample* h = snap.find("test.obs.snap_hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->kind, obs::InstrumentKind::kHist);
  EXPECT_GE(h->count, 1u);
  EXPECT_EQ(snap.find("test.obs.does_not_exist"), nullptr);
}

TEST(MetricsRegistry, CallbackGaugeViewsLiveStateAndUnregisters) {
  double live = 1.0;
  {
    obs::CallbackGuard guard;
    guard.add("test.obs.cb", "engine=test", [&] { return live; });
    const obs::Snapshot snap = obs::snapshot();  // keep alive while s points in
    const obs::InstrumentSample* s = snap.find("test.obs.cb", "engine=test");
    ASSERT_NE(s, nullptr);
    EXPECT_DOUBLE_EQ(s->value, 1.0);
    EXPECT_EQ(s->kind, obs::InstrumentKind::kCallback);
    live = 17.0;  // no re-registration needed: read at snapshot time
    EXPECT_DOUBLE_EQ(obs::snapshot().find("test.obs.cb", "engine=test")->value,
                     17.0);
  }
  // Guard destroyed -> callback gone (and snapshot no longer dereferences
  // the dangling `live`).
  EXPECT_EQ(obs::snapshot().find("test.obs.cb", "engine=test"), nullptr);
}

TEST(MetricsRegistry, ResetValuesZeroesButKeepsInstruments) {
  obs::Counter& c = obs::registry().counter("test.obs.reset_counter");
  c.inc(9);
  const std::size_t n = obs::registry().size();
  obs::registry().reset_values();
  EXPECT_EQ(obs::registry().size(), n);  // nothing destroyed
  EXPECT_EQ(c.value(), 0u);              // cached reference still valid
  c.inc();
  EXPECT_EQ(c.value(), 1u);
}

// --- Chrome trace: a view over the flight ring -------------------------------

/// Record one closed interval into `rec` the way the interval stream does:
/// a begin record, then an end record carrying the elapsed cycles.
void record_span(obs::FlightRecorder& rec, obs::IntervalKind kind,
                 std::uint32_t cpu, const char* name, hw::Cycles begin,
                 hw::Cycles end, const obs::SpanContext& ctx = {}) {
  const auto k = static_cast<std::uint64_t>(kind);
  rec.record(ctx, cpu, obs::FlightType::kPhaseBegin, name, begin, k, 0, 0);
  rec.record(ctx, cpu, obs::FlightType::kPhaseEnd, name, end, k, end - begin,
             0);
}

TEST(ChromeTrace, RecordsSpanAndInstantAndReportsThem) {
  obs::FlightRecorder rec(8);
  record_span(rec, obs::IntervalKind::kHypercall, 0, "a", 3000, 6000);
  rec.record(0, obs::FlightType::kMarker, "b", 4500);
  EXPECT_EQ(rec.recorded(), 3u);  // begin, end, marker
  EXPECT_EQ(rec.dropped(), 0u);
  const auto evs = chrome_events(obs::chrome_trace_json(rec));
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].name, "a");
  EXPECT_EQ(evs[0].ph, "X");  // a span, not an instant
  EXPECT_EQ(evs[1].name, "b");
  EXPECT_EQ(evs[1].ph, "i");
}

TEST(ChromeTrace, WrappedRingsFromManyCpusExportInBeginSeqOrder) {
  obs::FlightRecorder rec(4);
  // Emit far past capacity from three CPUs, with globally increasing
  // timestamps so emission order == timestamp order.
  hw::Cycles t = 3000;
  for (std::uint64_t round = 0; round < 10; ++round)
    for (std::uint32_t cpu = 0; cpu < 3; ++cpu)
      rec.record(cpu, obs::FlightType::kMarker, "wrap", t += 3000);
  const std::string json = obs::chrome_trace_json(rec);
  EXPECT_TRUE(JsonChecker(json).ok()) << json.substr(0, 400);
  const auto evs = chrome_events(json);
  ASSERT_EQ(evs.size(), 12u);  // 4 survivors per CPU ring
  // The merged export is ordered and the flight seq is strictly monotonic
  // across the wrapped rings.
  for (std::size_t i = 1; i < evs.size(); ++i) {
    EXPECT_GT(evs[i].seq, evs[i - 1].seq);
    EXPECT_GE(evs[i].ts, evs[i - 1].ts);
  }
}

TEST(ChromeTrace, SpanWhoseBeginWasOverwrittenStillExports) {
  obs::FlightRecorder rec(2);
  const auto k = static_cast<std::uint64_t>(obs::IntervalKind::kMigratePrecopy);
  rec.record({}, 0, obs::FlightType::kPhaseBegin, "long", 3000, k, 0, 0);
  rec.record(0, obs::FlightType::kMarker, "m1", 6000);
  rec.record(0, obs::FlightType::kMarker, "m2", 9000);  // evicts the begin
  rec.record({}, 0, obs::FlightType::kPhaseEnd, "long", 12000, k, 9000, 0);
  ASSERT_EQ(rec.dropped(), 2u);
  const auto evs = chrome_events(obs::chrome_trace_json(rec));
  ASSERT_EQ(evs.size(), 2u);
  // The end record alone bounds the span: begin = at - elapsed, so it
  // sorts before the marker recorded after its begin.
  EXPECT_EQ(evs[0].name, "long");
  EXPECT_EQ(evs[0].ph, "X");
  EXPECT_DOUBLE_EQ(evs[0].ts, 1.0);
  EXPECT_DOUBLE_EQ(evs[0].dur, 3.0);
  EXPECT_EQ(evs[1].name, "m2");
}

TEST(ChromeTrace, ZeroLengthIntervalExportsAsInstant) {
  obs::FlightRecorder rec(8);
  record_span(rec, obs::IntervalKind::kTlbShootdown, 1, "flush", 6000, 6000);
  const std::string json = obs::chrome_trace_json(rec);
  EXPECT_TRUE(JsonChecker(json).ok()) << json;
  const auto evs = chrome_events(json);
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].name, "flush");
  EXPECT_EQ(evs[0].ph, "i");
  EXPECT_EQ(evs[0].cat, "vmm");
  EXPECT_EQ(evs[0].tid, 1u);
  EXPECT_DOUBLE_EQ(evs[0].ts, 2.0);
  EXPECT_EQ(json.find("\"dur\""), std::string::npos);
}

TEST(ChromeTrace, SpanSeqIsItsEndRecordSeq) {
  hw::MachineConfig mc;
  mc.mem_kb = 16 * 1024;
  hw::Machine machine(mc);
  hw::Cpu& cpu = machine.cpu(0);

  obs::FlightRecorder& rec = obs::flight_recorder();
  rec.clear();
  {
    const obs::Interval span(cpu, obs::IntervalKind::kReloadHwState, 0, 0,
                             "seq_span");
    cpu.charge(3000);
  }
#if !MERCURY_OBS_ENABLED
  EXPECT_TRUE(rec.events().empty());  // the flight view compiled away
  return;
#endif
  const auto tail = rec.tail(1);
  ASSERT_EQ(tail.size(), 1u);
  ASSERT_EQ(tail[0].type, obs::FlightType::kPhaseEnd);
  const auto evs = chrome_events(obs::chrome_trace_json(rec));
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].name, "seq_span");
  // The postmortem tail and the Chrome trace name the interval alike.
  EXPECT_EQ(evs[0].seq, tail[0].seq);
  rec.clear();
}

TEST(SpanContext, SpansChainParentChildAndRestoreAmbient) {
  hw::MachineConfig mc;
  mc.mem_kb = 16 * 1024;
  hw::Machine machine(mc);
  hw::Cpu& cpu = machine.cpu(0);

  obs::FlightRecorder& rec = obs::flight_recorder();
  rec.clear();
  EXPECT_FALSE(obs::current_span_context().valid());
  obs::SpanContext outer_ctx, inner_ctx, between_ctx;
  {
    const obs::Interval outer(cpu, obs::IntervalKind::kReloadHwState, 0, 0,
                              "ctx_outer");
    outer_ctx = obs::current_span_context();
    cpu.charge(100);
    {
      const obs::Interval inner(cpu, obs::IntervalKind::kFixupWalkTasks, 0, 0,
                                "ctx_inner");
      inner_ctx = obs::current_span_context();
      cpu.charge(100);
    }
    between_ctx = obs::current_span_context();
  }
  EXPECT_FALSE(obs::current_span_context().valid());
#if !MERCURY_OBS_ENABLED
  // Causal ids and spans are a telemetry view: compiled away.
  EXPECT_FALSE(outer_ctx.valid());
  EXPECT_TRUE(rec.events().empty());
#else
  EXPECT_TRUE(outer_ctx.valid());
  // A root span starts its own trace.
  EXPECT_EQ(outer_ctx.parent_id, 0u);
  // Child: same trace, parent = the enclosing span.
  EXPECT_EQ(inner_ctx.trace_id, outer_ctx.trace_id);
  EXPECT_EQ(inner_ctx.parent_id, outer_ctx.span_id);
  EXPECT_NE(inner_ctx.span_id, outer_ctx.span_id);
  // Inner scope gone: the ambient context is the outer span again.
  EXPECT_EQ(between_ctx.span_id, outer_ctx.span_id);

  // The end records carry the ids, and the Chrome export exposes them.
  const std::string json = obs::chrome_trace_json(rec);
  EXPECT_TRUE(JsonChecker(json).ok()) << json.substr(0, 400);
  const auto evs = chrome_events(json);
  ASSERT_EQ(evs.size(), 2u);
  for (const ChromeEvent& ev : evs) {
    EXPECT_EQ(ev.trace, outer_ctx.trace_id);
    if (ev.name == "ctx_inner") {
      EXPECT_EQ(ev.span, inner_ctx.span_id);
      EXPECT_EQ(ev.parent, outer_ctx.span_id);
    } else {
      EXPECT_EQ(ev.span, outer_ctx.span_id);
      EXPECT_EQ(ev.parent, 0u);
    }
  }
  EXPECT_NE(json.find("\"parent\""), std::string::npos);
#endif
  rec.clear();
}

TEST(SpanContext, InstantEventsInheritAmbientContext) {
  hw::MachineConfig mc;
  mc.mem_kb = 16 * 1024;
  hw::Machine machine(mc);
  hw::Cpu& cpu = machine.cpu(0);

  obs::FlightRecorder& rec = obs::flight_recorder();
  rec.clear();
  {
    const obs::Interval span(cpu, obs::IntervalKind::kReloadHwState, 0, 0,
                             "ctx_span");
    const obs::SpanContext ctx = obs::current_span_context();
    rec.record(0, obs::FlightType::kMarker, "ctx_mark", cpu.now());
    // A point event hangs off the ambient span.
    const auto tail = rec.tail(1);
    ASSERT_EQ(tail.size(), 1u);
    EXPECT_EQ(tail[0].trace_id, ctx.trace_id);
    EXPECT_EQ(tail[0].span_id, 0u);
    EXPECT_EQ(tail[0].parent_id, ctx.span_id);
    const auto evs = chrome_events(obs::chrome_trace_json(rec));
    ASSERT_EQ(evs.size(), 1u);  // the span is still open
    EXPECT_EQ(evs[0].name, "ctx_mark");
    EXPECT_EQ(evs[0].trace, ctx.trace_id);
    EXPECT_EQ(evs[0].parent, ctx.span_id);
  }
  rec.clear();
}

TEST(TraceNodeScope, StampsNodeOnEventsAndRestores) {
  obs::FlightRecorder& rec = obs::flight_recorder();
  rec.clear();
  EXPECT_EQ(obs::current_trace_node(), 0u);
  {
    obs::TraceNodeScope scope(3);
    rec.record(0, obs::FlightType::kMarker, "on_node", 3000);
  }
  rec.record(0, obs::FlightType::kMarker, "off_node", 6000);
  EXPECT_EQ(obs::current_trace_node(), 0u);
  const auto evs = rec.events();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].node, 3u);
  EXPECT_EQ(evs[1].node, 0u);
  // The Chrome export maps node -> pid.
  const auto chrome = chrome_events(obs::chrome_trace_json(rec));
  ASSERT_EQ(chrome.size(), 2u);
  EXPECT_EQ(chrome[0].pid, 3u);
  EXPECT_EQ(chrome[1].pid, 0u);
  rec.clear();
}

TEST(TraceSpan, NestedSpansNestOverSimulatedTime) {
  hw::MachineConfig mc;
  mc.mem_kb = 16 * 1024;
  hw::Machine machine(mc);
  hw::Cpu& cpu = machine.cpu(0);

  obs::FlightRecorder& rec = obs::flight_recorder();
  rec.clear();
  {
    const obs::Interval outer(cpu, obs::IntervalKind::kReloadHwState, 0, 0,
                              "outer");
    cpu.charge(3000);
    {
      const obs::Interval inner(cpu, obs::IntervalKind::kFixupWalkTasks, 0, 0,
                                "inner");
      cpu.charge(1500);
    }
    cpu.charge(750);
  }
#if !MERCURY_OBS_ENABLED
  EXPECT_TRUE(rec.events().empty());  // the flight view compiled away
  return;
#endif
  const auto evs = chrome_events(obs::chrome_trace_json(rec));
  ASSERT_EQ(evs.size(), 2u);
  // Ordered by begin: the outer span first.
  const ChromeEvent& outer = evs[0];
  const ChromeEvent& inner = evs[1];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(inner.name, "inner");
  // Proper nesting: inner entirely inside outer, durations in simulated µs.
  EXPECT_GE(inner.ts, outer.ts);
  EXPECT_LE(inner.ts + inner.dur, outer.ts + outer.dur + 1e-9);
  EXPECT_DOUBLE_EQ(inner.dur, 0.5);
  EXPECT_DOUBLE_EQ(outer.dur, 1.75);
  rec.clear();
}

TEST(JsonExport, MetricsJsonIsWellFormedAndCarriesSchema) {
  obs::registry().counter("test.obs.json \"quoted\"\\name").inc();
  obs::registry().histogram("test.obs.json_hist").record(4096);
  obs::registry().gauge("test.obs.json_gauge").set(-0.25);
  const std::string json = obs::to_json(obs::snapshot());
  EXPECT_TRUE(JsonChecker(json).ok()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"schema\":\"mercury.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("test.obs.json_hist"), std::string::npos);
  // The quote and backslash in the instrument name must arrive escaped.
  EXPECT_NE(json.find("\\\"quoted\\\"\\\\name"), std::string::npos);
}

TEST(JsonExport, ChromeTraceIsWellFormedAndHasOurEvents) {
  obs::FlightRecorder rec(16);
  record_span(rec, obs::IntervalKind::kHypercall, 2, "span_x", 3000, 9000);
  rec.record(1, obs::FlightType::kMarker, "mark_y", 4500);
  const std::string json = obs::chrome_trace_json(rec);
  EXPECT_TRUE(JsonChecker(json).ok()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  const auto evs = chrome_events(json);
  ASSERT_EQ(evs.size(), 2u);  // the begin record exports nothing
  EXPECT_EQ(evs[0].name, "span_x");
  EXPECT_EQ(evs[0].ph, "X");     // complete event
  EXPECT_EQ(evs[0].cat, "vmm");  // the interval kind's category
  EXPECT_EQ(evs[0].tid, 2u);
  EXPECT_DOUBLE_EQ(evs[0].ts, 1.0);
  EXPECT_DOUBLE_EQ(evs[0].dur, 2.0);
  EXPECT_EQ(evs[1].name, "mark_y");
  EXPECT_EQ(evs[1].ph, "i");        // instant event
  EXPECT_EQ(evs[1].cat, "marker");  // a point event's flight type
  EXPECT_DOUBLE_EQ(evs[1].ts, 1.5);
}

// --- black box: flight recorder ---------------------------------------------

TEST(FlightRecorder, MergesRingsInGlobalEmissionOrder) {
  obs::FlightRecorder rec(8);
  rec.record(1, obs::FlightType::kPhaseBegin, "a", 100);
  rec.record(0, obs::FlightType::kPhaseBegin, "b", 50);
  rec.record(1, obs::FlightType::kPhaseEnd, "a", 200, 7, 100);
  const auto evs = rec.events();
  ASSERT_EQ(evs.size(), 3u);
  // Emission order, not per-CPU or per-clock order: cpu 1's event first.
  EXPECT_STREQ(evs[0].name, "a");
  EXPECT_STREQ(evs[1].name, "b");
  EXPECT_LT(evs[0].seq, evs[1].seq);
  EXPECT_LT(evs[1].seq, evs[2].seq);
  EXPECT_EQ(evs[2].arg0, 7u);
  EXPECT_EQ(evs[2].arg1, 100u);
}

TEST(FlightRecorder, OverwritesOldestAndCountsDrops) {
  obs::FlightRecorder rec(4);
  for (std::uint64_t i = 0; i < 10; ++i)
    rec.record(0, obs::FlightType::kRollbackStep, "step", 1000 + i, i);
  const auto evs = rec.events();
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_EQ(rec.recorded(), 10u);
  EXPECT_EQ(rec.dropped(), 6u);
  // Newest evidence survives: args 6..9.
  EXPECT_EQ(evs.front().arg0, 6u);
  EXPECT_EQ(evs.back().arg0, 9u);
}

TEST(FlightRecorder, TailReturnsNewestAcrossCpus) {
  obs::FlightRecorder rec(8);
  for (std::uint64_t i = 0; i < 6; ++i)
    rec.record(i % 2, obs::FlightType::kShardRange, "g", 10 * i, i);
  const auto tail = rec.tail(3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].arg0, 3u);
  EXPECT_EQ(tail[2].arg0, 5u);
  // A tail longer than the recording is just everything.
  EXPECT_EQ(rec.tail(100).size(), 6u);
}

TEST(FlightRecorder, SeqStaysMonotonicAcrossClear) {
  obs::FlightRecorder rec(4);
  rec.record(0, obs::FlightType::kPhaseBegin, "a", 1);
  const std::uint64_t first_seq = rec.events()[0].seq;
  rec.clear();
  EXPECT_TRUE(rec.events().empty());
  EXPECT_EQ(rec.recorded(), 0u);
  rec.record(0, obs::FlightType::kPhaseBegin, "b", 2);
  // Exports from before and after a clear() must still order correctly.
  EXPECT_GT(rec.events()[0].seq, first_seq);
}

TEST(FlightRecorder, ClearKeepsRingsThatRefillAndWrapInSeqOrder) {
  obs::FlightRecorder rec(4);
  for (std::uint64_t i = 0; i < 6; ++i)
    rec.record(0, obs::FlightType::kRollbackStep, "before", i, i);
  rec.record(1, obs::FlightType::kRollbackStep, "before", 6, 6);
  ASSERT_EQ(rec.dropped(), 2u);
  rec.clear();
  EXPECT_TRUE(rec.events().empty());
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_EQ(rec.recorded(), 0u);
  // Refill cpu 0's ring past its capacity (it wraps, and drops count from
  // 0) and cpu 1's part way. Nothing recorded before the clear comes back.
  for (std::uint64_t i = 0; i < 7; ++i)
    rec.record(0, obs::FlightType::kRollbackStep, "after", 100 + i, i);
  for (std::uint64_t i = 7; i < 9; ++i)
    rec.record(1, obs::FlightType::kRollbackStep, "after", 100 + i, i);
  const auto evs = rec.events();
  ASSERT_EQ(evs.size(), 6u);
  EXPECT_EQ(rec.dropped(), 3u);
  EXPECT_EQ(rec.recorded(), 9u);
  const std::uint64_t kept[] = {3, 4, 5, 6, 7, 8};
  for (std::size_t i = 0; i < evs.size(); ++i) {
    EXPECT_STREQ(evs[i].name, "after");
    EXPECT_EQ(evs[i].arg0, kept[i]);
    if (i > 0) {
      EXPECT_EQ(evs[i].seq, evs[i - 1].seq + 1);
    }
  }
}

TEST(FlightRecorder, DisabledRecordsNothing) {
  obs::FlightRecorder rec(4);
  rec.set_enabled(false);
  rec.record(0, obs::FlightType::kFaultHit, "f", 1);
  EXPECT_TRUE(rec.events().empty());
  EXPECT_EQ(rec.recorded(), 0u);
}

TEST(FlightRecorder, EventsJsonIsWellFormed) {
  obs::FlightRecorder rec(8);
  rec.record(2, obs::FlightType::kFaultHit, "vmm.adopt_protect", 4500, 4, 0, 1);
  rec.record(0, obs::FlightType::kMarker, "switch.attach.warm", 9000, 88, 11);
  const std::string json = obs::flight_events_json(rec.events());
  EXPECT_TRUE(JsonChecker(json).ok()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"fault.hit\""), std::string::npos);
  EXPECT_NE(json.find("\"marker\""), std::string::npos);
  EXPECT_NE(json.find("vmm.adopt_protect"), std::string::npos);
  EXPECT_NE(json.find("[88,11,0]"), std::string::npos);
}

// A failed MERC_CHECK records its stringized expression as the event name,
// and an expression can hold quotes and backslashes: every writer of the
// ring's names must escape them.
TEST(FlightRecorder, NamesAreJsonEscapedInEveryExport) {
  static const char kExpr[] = "name == \"a\\\\b\"";  // name == "a\\b"
  obs::FlightRecorder& rec = obs::flight_recorder();
  rec.clear();
  rec.record(0, obs::FlightType::kAssertFail, kExpr, 0, 42);
  const std::string events = obs::flight_events_json(rec.events());
  EXPECT_TRUE(JsonChecker(events).ok()) << events;
  obs::PostmortemContext ctx;
  ctx.reason = "assert";
  const std::string bundle = obs::postmortem_json(ctx);
  EXPECT_TRUE(JsonChecker(bundle).ok()) << bundle.substr(0, 400);
  const std::string json = obs::chrome_trace_json(rec);
  EXPECT_TRUE(JsonChecker(json).ok()) << json;
  const auto evs = chrome_events(json);
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].name, kExpr);
  rec.clear();
}

TEST(FlightMacro, RecordsIffObsEnabled) {
  hw::MachineConfig mc;
  mc.mem_kb = 16 * 1024;
  hw::Machine machine(mc);
  hw::Cpu& cpu = machine.cpu(0);

  obs::FlightRecorder& rec = obs::flight_recorder();
  rec.clear();
  const hw::Cycles before_clock = cpu.now();
  MERC_FLIGHT(cpu, kMarker, "test.flight.macro", 42);
#if MERCURY_OBS_ENABLED
  const auto evs = rec.events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_STREQ(evs[0].name, "test.flight.macro");
  EXPECT_EQ(evs[0].cpu, 0u);
  EXPECT_EQ(evs[0].arg0, 42u);
#else
  // The macro must compile away entirely: nothing recorded.
  EXPECT_TRUE(rec.events().empty());
#endif
  // Instrumentation never charges simulated time.
  EXPECT_EQ(cpu.now(), before_clock);
  rec.clear();
}

// --- engine profiler ---------------------------------------------------------

// The profiler is process-global and bucket addresses are stable across
// reset(), so these tests look their buckets up by name and never assert on
// the total bucket count (other suites in this binary create buckets too).
namespace {
const obs::ProfBucket* find_bucket(const std::vector<obs::ProfBucket>& snap,
                                   const std::string& name) {
  for (const auto& b : snap)
    if (b.name == name) return &b;
  return nullptr;
}
}  // namespace

TEST(EngineProfiler, DisabledRecordsNothingAndScopesAreCheap) {
  obs::EngineProfiler& prof = obs::profiler();
  prof.set_enabled(false);
  prof.reset();
  hw::MachineConfig mc;
  mc.mem_kb = 16 * 1024;
  hw::Machine machine(mc);
  {
    MERC_PROF_SCOPE("test.prof.disabled", &machine.cpu(0));
    machine.cpu(0).charge(100);
  }
  // The call-site static may have created the bucket, but a disabled
  // profiler must not charge it.
  const std::vector<obs::ProfBucket> snap = prof.snapshot();
  const obs::ProfBucket* b = find_bucket(snap, "test.prof.disabled");
  if (b != nullptr) {
    EXPECT_EQ(b->count, 0u);
    EXPECT_EQ(b->wall_ns, 0u);
    EXPECT_EQ(b->sim_cycles, 0u);
  }
}

TEST(EngineProfiler, EnabledAttributesWallAndSimTime) {
  obs::EngineProfiler& prof = obs::profiler();
  prof.reset();
  prof.set_enabled(true);
  hw::MachineConfig mc;
  mc.mem_kb = 16 * 1024;
  hw::Machine machine(mc);
  hw::Cpu& cpu = machine.cpu(0);
  for (int i = 0; i < 3; ++i) {
    MERC_PROF_SCOPE("test.prof.bucket", &cpu);
    cpu.charge(500);
  }
  const auto snap = prof.snapshot();
  prof.set_enabled(false);
#if MERCURY_OBS_ENABLED
  const obs::ProfBucket* b = find_bucket(snap, "test.prof.bucket");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->count, 3u);
  EXPECT_EQ(b->sim_cycles, 1500u);
  const std::string json = obs::profile_json();
  EXPECT_TRUE(JsonChecker(json).ok()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"schema\":\"mercury.profile.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("test.prof.bucket"), std::string::npos);
#else
  // MERC_PROF_SCOPE compiles away entirely under MERCURY_OBS=OFF.
  EXPECT_EQ(find_bucket(snap, "test.prof.bucket"), nullptr);
#endif
  prof.reset();
}

TEST(EngineProfiler, NestedScopesReportSelfTimeAndFractionsSumToOne) {
  obs::EngineProfiler& prof = obs::profiler();
  prof.reset();
  prof.set_enabled(true);
  obs::ProfBucket* parent = prof.bucket("test.prof.parent");
  obs::ProfBucket* child = prof.bucket("test.prof.child");
  const auto spin = [](std::chrono::microseconds d) {
    const auto until = std::chrono::steady_clock::now() + d;
    while (std::chrono::steady_clock::now() < until) {
    }
  };
  {
    const obs::ProfScope outer(parent, nullptr);
    spin(std::chrono::microseconds(200));
    {
      const obs::ProfScope inner(child, nullptr);
      spin(std::chrono::microseconds(300));
    }
  }
  prof.set_enabled(false);
  // Inclusive time nests; self time is what no nested scope took.
  EXPECT_GT(child->wall_ns, 0u);
  EXPECT_EQ(child->self_ns, child->wall_ns);
  EXPECT_GT(parent->wall_ns, child->wall_ns);
  EXPECT_EQ(parent->self_ns, parent->wall_ns - child->wall_ns);

  // wall_fraction divides self time by the profiled total: the shares add
  // up to one instead of double-counting the nested child.
  const std::string json = obs::profile_json();
  double sum = 0.0;
  const std::string key = "\"wall_fraction\":";
  for (std::size_t at = json.find(key); at != std::string::npos;
       at = json.find(key, at + 1))
    sum += std::stod(json.substr(at + key.size()));
  EXPECT_NEAR(sum, 1.0, 1e-5);  // six significant digits each
  EXPECT_NE(json.find("\"self_ns\""), std::string::npos);
  prof.reset();
}

// --- time-series sampler -----------------------------------------------------

TEST(TimeSeriesSampler, SamplesOnDemandAndSerializes) {
  obs::TimeSeriesSampler sampler(8);
  double v = 1.0;
  sampler.add_series("test.ts.live", "node=n0", [&] { return v; });
  sampler.sample(100);
  v = 2.5;
  sampler.sample(200);
  ASSERT_EQ(sampler.series_count(), 1u);
  const auto pts = sampler.points(0);
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0].t, 100u);
  EXPECT_DOUBLE_EQ(pts[0].v, 1.0);
  EXPECT_DOUBLE_EQ(pts[1].v, 2.5);
  const std::string json = sampler.to_json(100);
  EXPECT_TRUE(JsonChecker(json).ok()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"schema\":\"mercury.timeseries.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("test.ts.live"), std::string::npos);
  EXPECT_NE(json.find("node=n0"), std::string::npos);
}

TEST(TimeSeriesSampler, RingDropsOldestPastCapacity) {
  obs::TimeSeriesSampler sampler(4);
  double v = 0.0;
  sampler.add_series("test.ts.ring", "", [&] { return v; });
  for (int i = 0; i < 10; ++i) {
    v = i;
    sampler.sample(static_cast<hw::Cycles>(1000 + i));
  }
  const auto pts = sampler.points(0);
  ASSERT_EQ(pts.size(), 4u);
  EXPECT_EQ(pts.front().t, 1006u);  // oldest six dropped
  EXPECT_DOUBLE_EQ(pts.back().v, 9.0);
  EXPECT_EQ(sampler.dropped(), 6u);
  EXPECT_EQ(sampler.samples_taken(), 10u);
}

// --- postmortem bundles ------------------------------------------------------

TEST(Postmortem, JsonIsWellFormedAndCarriesContext) {
  obs::PostmortemContext ctx;
  ctx.reason = "fault-rollback";
  ctx.detail = "unit test \"quoted\" detail";
  ctx.switch_from = "native";
  ctx.switch_target = "partial-virtual";
  ctx.has_fault = true;
  ctx.fault_site = "vmm.adopt_protect";
  ctx.fault_kind = "fail";
  ctx.fault_cpu = 2;
  ctx.active_refs = 0;
  ctx.cpu_clocks = {{0, 9000}, {1, 9000}};
  ctx.extra = {{"page_info.shard_count", 8}};

  const std::string json = obs::postmortem_json(ctx);
  EXPECT_TRUE(JsonChecker(json).ok()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"schema\":\"mercury.postmortem.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"fault-rollback\""), std::string::npos);
  EXPECT_NE(json.find("vmm.adopt_protect"), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);  // escaped detail
  EXPECT_NE(json.find("\"mercury.metrics.v1\""), std::string::npos);  // embed
  EXPECT_NE(json.find("page_info.shard_count"), std::string::npos);
}

TEST(Postmortem, OmitsFaultSectionWhenNoFault) {
  obs::PostmortemContext ctx;
  ctx.reason = "assert";
  const std::string json = obs::postmortem_json(ctx);
  EXPECT_TRUE(JsonChecker(json).ok());
  EXPECT_EQ(json.find("\"fault\""), std::string::npos);
}

TEST(Postmortem, WriteRotatesSlotsAndBumpsCount) {
  obs::set_postmortem_dir(::testing::TempDir());
  obs::PostmortemContext ctx;
  ctx.reason = "assert";
  ctx.detail = "slot rotation test";

  const std::uint64_t before = obs::postmortem_count();
  const std::string p1 = obs::write_postmortem(ctx);
  const std::string p2 = obs::write_postmortem(ctx);
  obs::set_postmortem_dir("");

  ASSERT_FALSE(p1.empty());
  ASSERT_FALSE(p2.empty());
  EXPECT_NE(p1, p2);  // consecutive dumps land in different slots
  EXPECT_EQ(obs::postmortem_count(), before + 2);
  EXPECT_EQ(obs::last_postmortem_path(), p2);
  // Slot files are per process: parallel test processes sharing the temp
  // directory never write to the same file.
  const std::string own_prefix =
      "mercury-postmortem-" + std::to_string(::getpid()) + "-";
  EXPECT_NE(p1.find(own_prefix), std::string::npos) << p1;
  EXPECT_NE(p2.find(own_prefix), std::string::npos) << p2;

  // The file on disk is the serialized bundle, renamed into place: no temp
  // file stays behind.
  std::FILE* f = std::fopen(p2.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) content.append(buf, n);
  std::fclose(f);
  EXPECT_TRUE(JsonChecker(content).ok());
  EXPECT_NE(content.find("slot rotation test"), std::string::npos);
  const auto exists = [](const std::string& path) {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file != nullptr) std::fclose(file);
    return file != nullptr;
  };
  const std::size_t slash = p2.find_last_of('/');
  const std::string tmp =
      p2.substr(0, slash + 1) + "." + p2.substr(slash + 1) + ".tmp";
  EXPECT_FALSE(exists(tmp)) << tmp;

  obs::set_postmortem_dir(::testing::TempDir());
  obs::remove_own_postmortems();
  obs::set_postmortem_dir("");
  EXPECT_FALSE(exists(p1)) << "not removed: " << p1;
  EXPECT_FALSE(exists(p2)) << "not removed: " << p2;
}

// --- pause observatory -------------------------------------------------------

TEST(HistogramTail, QuantileOneReturnsLargestRecordedBucketBound) {
  util::Histogram h;
  h.add(100);
  h.add(5000);
  // The tail query is a bucket upper bound: at least the max sample, and
  // monotone in q.
  EXPECT_GE(h.quantile(1.0), 5000u);
  EXPECT_GE(h.quantile(1.0), h.quantile(0.5));
  EXPECT_GE(h.quantile(0.5), h.quantile(0.0));
}

TEST(HistogramTail, EmptyHistogramReturnsZeroForEveryQuantile) {
  util::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  for (double q : {0.0, 0.5, 0.99, 1.0}) EXPECT_EQ(h.quantile(q), 0u);
}

TEST(HistogramTail, MergeFoldsSamplesIn) {
  util::Histogram a, b;
  a.add(100);
  b.add(70000);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_GE(a.quantile(1.0), 70000u);
}

TEST(PauseLedger, QuantileAtOneIsExactMaxNotBucketBound) {
  obs::PauseLedger pl;
  pl.record(obs::PauseCause::kRendezvousParked, 0, 1000, 8777);
  // Span 7777: the log2 bucket bound would be 8191, but q >= 1.0 must
  // return the exact recorded max — worst-case numbers must not round.
  EXPECT_EQ(pl.quantile(obs::PauseCause::kRendezvousParked, 1.0), 7777u);
  EXPECT_EQ(pl.quantile(obs::PauseCause::kRendezvousParked, 2.0), 7777u);
  // Below 1.0 the bucket bound applies (and may exceed the exact max).
  EXPECT_GE(pl.quantile(obs::PauseCause::kRendezvousParked, 0.99), 7777u);
}

TEST(PauseLedger, EmptyLedgerEdgeCases) {
  obs::PauseLedger pl;
  EXPECT_EQ(pl.intervals(), 0u);
  EXPECT_EQ(pl.quantile(obs::PauseCause::kTlbShootdown, 0.5), 0u);
  EXPECT_EQ(pl.quantile(obs::PauseCause::kTlbShootdown, 1.0), 0u);
  EXPECT_EQ(pl.cpu_total(99), 0u);
  EXPECT_FALSE(pl.worst().valid);
  const std::string json = pl.to_json();
  EXPECT_TRUE(JsonChecker(json).ok()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"mercury.pause.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"none\""), std::string::npos);  // worst-cause sentinel
}

TEST(PauseLedger, WorstSurvivesClearButNotReset) {
  obs::PauseLedger pl;
  pl.record(obs::PauseCause::kRollbackUnwind, 1, 0, 90000, "big");
  pl.clear();
  EXPECT_EQ(pl.intervals(), 0u);  // distributions dropped...
  ASSERT_TRUE(pl.worst().valid);  // ...but the run's worst interval is kept
  EXPECT_EQ(pl.worst().span(), 90000u);
  pl.record(obs::PauseCause::kCrewShardWork, 0, 0, 100);
  EXPECT_EQ(pl.worst().span(), 90000u);  // a smaller pause can't displace it
  EXPECT_EQ(pl.worst().cause, obs::PauseCause::kRollbackUnwind);
  pl.reset();
  EXPECT_FALSE(pl.worst().valid);
}

TEST(PauseLedger, WorstTracksLargestSpanAcrossCauses) {
  obs::PauseLedger pl;
  pl.record(obs::PauseCause::kRendezvousParked, 0, 0, 500);
  pl.record(obs::PauseCause::kTlbShootdown, 2, 1000, 4000, "flush");
  pl.record(obs::PauseCause::kCrewShardWork, 1, 0, 2000);
  ASSERT_TRUE(pl.worst().valid);
  EXPECT_EQ(pl.worst().cause, obs::PauseCause::kTlbShootdown);
  EXPECT_EQ(pl.worst().cpu, 2u);
  EXPECT_EQ(pl.worst().span(), 3000u);
}

TEST(PauseLedger, InvertedIntervalClampsToZeroSpan) {
  obs::PauseLedger pl;
  pl.record(obs::PauseCause::kRendezvousParked, 0, 900, 100);
  EXPECT_EQ(pl.count(obs::PauseCause::kRendezvousParked), 1u);
  EXPECT_EQ(pl.total(obs::PauseCause::kRendezvousParked), 0u);
}

TEST(PauseLedger, MergeFoldsCountsCpuTotalsAndWorst) {
  obs::PauseLedger a;
  obs::PauseLedger b;
  a.record(obs::PauseCause::kRendezvousParked, 0, 0, 1000);
  b.record(obs::PauseCause::kRendezvousParked, 0, 0, 7000);
  b.record(obs::PauseCause::kTlbShootdown, 3, 0, 50);
  b.record(obs::PauseCause::kCauseCount, 1, 0, 5);  // unattributed, b's
  a.merge(b);
  EXPECT_EQ(a.intervals(), 3u);
  EXPECT_EQ(a.count(obs::PauseCause::kRendezvousParked), 2u);
  EXPECT_EQ(a.cpu_total(0), 8000u);
  EXPECT_EQ(a.cpu_total(3), 50u);
  EXPECT_EQ(a.unattributed(), 1u);
  ASSERT_TRUE(a.worst().valid);
  EXPECT_EQ(a.worst().span(), 7000u);  // b's worst displaced a's
  // The exact max folds through the moments merge, not the bucket bound.
  EXPECT_EQ(a.quantile(obs::PauseCause::kRendezvousParked, 1.0), 7000u);
}

TEST(PauseLedger, ScopeInstallsAndRestoresAmbientLedger) {
  obs::PauseLedger local;
  const std::uint64_t global_before = obs::pause_ledger().intervals();
  {
    obs::PauseLedgerScope scope(local);
    EXPECT_EQ(&obs::pause_ledger(), &local);
    obs::record_interval(obs::IntervalKind::kRendezvousParked, 0, 100, 300);
  }
  EXPECT_NE(&obs::pause_ledger(), &local);
  EXPECT_EQ(obs::pause_ledger().intervals(), global_before);
  // The ledger is a result, kept in both builds.
  EXPECT_EQ(local.intervals(), 1u);
  EXPECT_EQ(local.total(obs::PauseCause::kRendezvousParked), 200u);
}

// --- interval stream: pairing ------------------------------------------------

// Pairing is structural: an unpaired half fails a MERC_CHECK inside the
// stream's noexcept close, so the process dies, and the assert hook's
// postmortem names the interval and the CPU.
TEST(IntervalStreamDeathTest, UnpairedHalvesFailACheckNamingIntervalAndCpu) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("interval-pairing-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  obs::set_postmortem_dir(dir.string());
  obs::install_assert_postmortem_hook();

  // A paired begin and end is one hypercall-emulation stop.
  obs::PauseLedger pl;
  {
    obs::PauseLedgerScope scope(pl);
    obs::open_interval(obs::IntervalKind::kHypercall, 0, 100);
    obs::close_interval(obs::IntervalKind::kHypercall, 0, 400, false);
  }
  EXPECT_EQ(pl.count(obs::PauseCause::kHypercallEmulation), 1u);
  EXPECT_EQ(pl.total(obs::PauseCause::kHypercallEmulation), 300u);

  // An end with no begin.
  EXPECT_DEATH(
      obs::close_interval(obs::IntervalKind::kHypercall, 3, 500, false),
      "interval end with no open begin: vmm\\.hypercall on cpu 3");
  // A begin still open when the interval around it ends.
  EXPECT_DEATH(
      {
        obs::open_interval(obs::IntervalKind::kPteWriteEmulate, 1, 100);
        obs::open_interval(obs::IntervalKind::kHypercall, 1, 200);
        obs::close_interval(obs::IntervalKind::kPteWriteEmulate, 1, 300,
                            false);
      },
      "interval begin still open when its scope ends: vmm\\.hypercall on "
      "cpu 1");
  obs::set_postmortem_dir("");

  // Each dying child left a postmortem naming the interval and the CPU.
  std::string bundles;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path());
    std::stringstream content;
    content << in.rdbuf();
    bundles += content.str();
  }
  std::filesystem::remove_all(dir);
  EXPECT_NE(bundles.find("vmm.hypercall on cpu 3"), std::string::npos);
  EXPECT_NE(bundles.find("vmm.hypercall on cpu 1"), std::string::npos);
}

TEST(PauseLedger, JsonCarriesAllCausesAndWorst) {
  obs::PauseLedger pl;
  pl.record(obs::PauseCause::kSupervisorRetryBackoff, 0, 0, 4000, "backoff");
  const std::string json = pl.to_json();
  EXPECT_TRUE(JsonChecker(json).ok()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"schema\":\"mercury.pause.v1\""), std::string::npos);
  // Silent causes still appear in the attribution table.
  EXPECT_NE(json.find("\"rendezvous-parked\""), std::string::npos);
  EXPECT_NE(json.find("\"supervisor-retry-backoff\""), std::string::npos);
  EXPECT_NE(json.find("\"unattributed\":0"), std::string::npos);
  EXPECT_NE(json.find("\"flight\""), std::string::npos);
}

TEST(SummaryTable, RendersCountersAndHistograms) {
  obs::registry().counter("test.obs.table_counter").inc(5);
  obs::registry().histogram("test.obs.table_hist").record(1234);
  const std::string table = obs::summary_table(obs::snapshot());
  EXPECT_NE(table.find("test.obs.table_counter"), std::string::npos);
  EXPECT_NE(table.find("test.obs.table_hist"), std::string::npos);
}

}  // namespace
}  // namespace mercury::testing
