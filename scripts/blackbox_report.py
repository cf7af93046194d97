#!/usr/bin/env python3
"""Render Mercury observability artifacts as human-readable reports.

Usage:
    scripts/blackbox_report.py mercury-postmortem-<pid>-0.json
    scripts/blackbox_report.py bundle.json --tail 80
    scripts/blackbox_report.py timeseries.json
    scripts/blackbox_report.py profile.json

Dispatches on the document's `schema` field. For a `mercury.postmortem.v1`
bundle (see obs/postmortem.hpp) it prints: the failure header, per-CPU
clocks, the phase timeline reconstructed from paired phase.begin/phase.end
flight events (an interval ended by an exception shows as aborted), the
supervisor timeline (attempts, backoffs, resolutions, health transitions),
refcount-retry storms, crew shard utilization, and the raw tail of the
flight ring. For `mercury.timeseries.v1` it prints each series as a
unicode sparkline with min/max/last stats; for `mercury.profile.v1`, the
engine-loop buckets ranked by self time, beside their inclusive time; for
`mercury.pause.v1`, the per-cause pause-attribution table, per-CPU
unavailability totals, and the flight tail surrounding the worst-case
interval. Stdlib-only, importable: render(doc) / render_timeseries(doc) /
render_profile(doc) / render_pause(doc) return the reports as strings.
Failures (unreadable, truncated, or malformed documents) are one-line
diagnostics, never tracebacks.
"""

import argparse
import json
import sys

CYCLES_PER_US = 3000.0  # the simulator's 3 GHz clock (hw/types.hpp)


def _us(cycles):
    return cycles / CYCLES_PER_US


def _fmt_event(ev):
    args = ev.get("args", [0, 0, 0])
    return (
        f"seq {ev['seq']:>8}  cpu {ev['cpu']:>2}  "
        f"{_us(ev['cycles']):>12.3f}us  {ev['type']:<17} {ev['name']}"
        f"  [{args[0]}, {args[1]}, {args[2]}]"
    )


# IntervalKind enum values (obs/interval.hpp), as arg0 of every phase.begin
# and phase.end. Only the kinds this report singles out are named here; a
# static_assert in obs/interval.cpp pins them.
CREW_PHASE_KIND = 5
CREW_SHARD_KIND = 6
SUPERVISOR_BACKOFF_KIND = 26


def phase_timeline(events):
    """Pair phase.begin/phase.end by (cpu, name), innermost-first. Returns
    [(begin_cycles, cpu, name, duration_cycles_or_None, aborted)] — None
    marks a phase still open when the recording stopped (the likely crime
    scene); aborted marks one ended by an exception (phase.end arg2 = 1)."""
    open_phases = {}  # (cpu, name) -> stack of open rows
    rows = []
    for ev in events:
        key = (ev["cpu"], ev["name"])
        if ev["type"] == "phase.begin":
            row = [ev["cycles"], ev["cpu"], ev["name"], None, False]
            open_phases.setdefault(key, []).append(row)
            rows.append(row)
        elif ev["type"] == "phase.end" and open_phases.get(key):
            row = open_phases[key].pop()
            row[3] = ev["cycles"] - row[0]
            row[4] = ev.get("args", [0, 0, 0])[2] == 1
    return [tuple(r) for r in rows]


def crew_utilization(events):
    """Per-phase crew summary from crew-phase and crew-shard intervals.
    Returns [(phase_name, shards, busy_cycles, span_cycles, per_worker)]
    where per_worker maps cpu -> busy cycles of the shards it ran."""
    out = []
    per_worker = {}
    shards = 0
    for ev in events:
        if ev["type"] != "phase.end":
            continue
        kind, elapsed = ev["args"][0], ev["args"][1]
        if kind == CREW_SHARD_KIND:
            shards += 1
            per_worker[ev["cpu"]] = per_worker.get(ev["cpu"], 0) + elapsed
        elif kind == CREW_PHASE_KIND:
            busy = sum(per_worker.values())
            out.append((ev["name"], shards, busy, elapsed, dict(per_worker)))
            per_worker = {}
            shards = 0
    return out


# SupervisorHealth enum values (core/switch_supervisor.hpp).
HEALTH_NAMES = {0: "healthy", 1: "degraded", 2: "quarantined"}
# ExecMode enum values (core/mode.hpp), as supervisor.attempt's arg2.
MODE_NAMES = {0: "native", 1: "partial-virtual", 2: "full-virtual"}
# FaultKind enum values (core/fault_inject.hpp), as fault.hit's arg1.
KIND_NAMES = {0: "fail", 1: "timeout", 2: "corrupt-frame"}


def kind_name(index):
    return KIND_NAMES.get(index, f"kind#{index}")


def supervisor_timeline(events):
    """Supervised-request activity from supervisor.* flight events, in ring
    order. Returns [(cycles, description)] rows — the retry/backoff/health
    story the switch supervisor recorded before the bundle was dumped."""
    rows = []
    backoff = None  # args of the open backoff interval's begin
    for ev in events:
        args = ev.get("args", [0, 0, 0])
        backoff_kind = args[0] == SUPERVISOR_BACKOFF_KIND
        if ev["type"] == "phase.begin" and backoff_kind:
            backoff = args  # [kind, request id, attempt #]
        elif ev["type"] == "phase.end" and backoff_kind and backoff:
            rows.append(
                (ev["cycles"] - args[1],
                 f"request {backoff[1]} backoff after attempt #{backoff[2]} "
                 f"({_us(args[1]):.3f} us)")
            )
            backoff = None
        elif ev["type"] == "supervisor.attempt":
            target = MODE_NAMES.get(args[2], f"mode#{args[2]}")
            rows.append(
                (ev["cycles"],
                 f"request {args[0]} attempt #{args[1]} -> {target}")
            )
        elif ev["type"] == "supervisor.resolve":
            rows.append(
                (ev["cycles"],
                 f"request {args[0]} resolved {ev['name']} "
                 f"after {args[2]} attempt(s)")
            )
        elif ev["type"] == "supervisor.health":
            frm = HEALTH_NAMES.get(args[0], f"health#{args[0]}")
            to = HEALTH_NAMES.get(args[1], f"health#{args[1]}")
            rows.append(
                (ev["cycles"],
                 f"health {frm} -> {to} (failure streak {args[2]})")
            )
    return rows


def render(doc, tail_n=40):
    """Render the bundle as a report string; raises KeyError/TypeError only
    on documents that check_bench_json.py --schema postmortem would reject."""
    lines = []
    add = lines.append

    add("=== Mercury black-box postmortem ===")
    add(f"reason : {doc['reason']}")
    if doc.get("detail"):
        add(f"detail : {doc['detail']}")
    sw = doc.get("switch", {})
    if sw.get("from") or sw.get("target"):
        add(f"switch : {sw.get('from') or '?'} -> {sw.get('target') or '?'}")
    fault = doc.get("fault")
    if fault:
        add(
            f"fault  : site={fault['site']} kind={fault['kind']} "
            f"cpu={fault['cpu']}"
        )
    add(f"active_refs: {doc.get('active_refs')}")

    clocks = doc.get("cpu_clocks", [])
    if clocks:
        add("")
        add("--- per-CPU simulated clocks ---")
        for c in clocks:
            add(f"  cpu {c['cpu']:>2}: {_us(c['cycles']):>14.3f} us")

    flight = doc.get("flight", {})
    events = flight.get("events", [])
    add("")
    add(
        f"--- flight ring: {flight.get('recorded', 0)} recorded, "
        f"{flight.get('dropped', 0)} dropped, {len(events)} in tail ---"
    )

    timeline = phase_timeline(events)
    if timeline:
        add("")
        add("--- phase timeline ---")
        for begin, cpu, name, dur, aborted in timeline:
            dur_txt = (
                "   (unfinished)" if dur is None
                else f"{_us(dur):>12.3f} us" + (" (aborted)" if aborted else "")
            )
            add(f"  {_us(begin):>14.3f}us  cpu {cpu:>2}  {name:<32} {dur_txt}")

    supervisor = supervisor_timeline(events)
    if supervisor:
        add("")
        add("--- supervisor timeline ---")
        for cycles, desc in supervisor:
            add(f"  {_us(cycles):>14.3f}us  {desc}")

    retries = [e for e in events if e["type"] == "refcount.retry"]
    if retries:
        add("")
        max_refs = max(e["args"][0] for e in retries)
        add(
            f"--- refcount retry storm: {len(retries)} deferrals in tail, "
            f"max observed active_refs {max_refs} ---"
        )

    crews = crew_utilization(events)
    if crews:
        add("")
        add("--- crew utilization ---")
        for name, shards, busy, span, per_worker in crews:
            util = busy / span if span else 0.0
            add(
                f"  {name:<28} {shards:>4} shards  busy {_us(busy):>12.3f}us"
                f"  span {_us(span):>12.3f}us  busy/span {util:.2f}"
            )
            for cpu in sorted(per_worker):
                add(f"    cpu {cpu:>2}: {_us(per_worker[cpu]):>12.3f} us busy")

    # A fault.hit event is named after its site (fault_site_name in
    # core/fault_inject.cpp), so no site table is kept here.
    hits = [e for e in events if e["type"] == "fault.hit"]
    if hits:
        add("")
        add("--- fault hits ---")
        for e in hits:
            add(
                f"  {e['name']} on cpu {e['cpu']} "
                f"(visit #{e['args'][2]}, kind {kind_name(e['args'][1])})"
            )

    rollback = [e for e in events if e["type"] == "rollback.step"]
    if rollback:
        add("")
        add("--- rollback steps ---")
        for e in rollback:
            add(f"  step {e['args'][0]}: {e['name']} (cpu {e['cpu']})")

    if events:
        add("")
        add(f"--- last {min(tail_n, len(events))} flight events ---")
        for ev in events[-tail_n:]:
            add("  " + _fmt_event(ev))

    extra = doc.get("extra", [])
    if extra:
        add("")
        add("--- extra ---")
        for e in extra:
            add(f"  {e['name']} = {e['value']}")
    return "\n".join(lines) + "\n"


SPARK_CHARS = "▁▂▃▄▅▆▇█"


def sparkline(values, width=48):
    """Downsample `values` to at most `width` buckets and render them as a
    unicode sparkline. Flat series render as a line of the lowest glyph."""
    if not values:
        return ""
    if len(values) > width:
        # Bucket means, so a spike inside a bucket still moves the glyph.
        step = len(values) / width
        values = [
            sum(vs) / len(vs)
            for vs in (
                values[int(i * step):max(int((i + 1) * step),
                                         int(i * step) + 1)]
                for i in range(width)
            )
        ]
    lo, hi = min(values), max(values)
    span = hi - lo
    if span == 0:
        return SPARK_CHARS[0] * len(values)
    return "".join(
        SPARK_CHARS[min(int((v - lo) / span * len(SPARK_CHARS)),
                        len(SPARK_CHARS) - 1)]
        for v in values
    )


def render_timeseries(doc):
    """Render a mercury.timeseries.v1 document: one sparkline row per
    series, grouped by label (node), with min/max/last stats."""
    lines = []
    add = lines.append
    add("=== Mercury time series ===")
    add(
        f"interval: {_us(doc.get('interval_cycles', 0)):.3f} us, "
        f"{doc.get('samples', 0)} samples, "
        f"{doc.get('dropped', 0)} dropped, "
        f"{len(doc.get('series', []))} series"
    )
    by_label = {}
    for s in doc.get("series", []):
        by_label.setdefault(s.get("label", ""), []).append(s)
    for label in sorted(by_label):
        add("")
        add(f"--- {label or 'fleet'} ---")
        width = max((len(s['name']) for s in by_label[label]), default=0)
        for s in by_label[label]:
            values = [p[1] for p in s.get("points", [])]
            if not values:
                add(f"  {s['name']:<{width}}  (no samples)")
                continue
            add(
                f"  {s['name']:<{width}}  {sparkline(values)}  "
                f"min {min(values):g}  max {max(values):g}  "
                f"last {values[-1]:g}"
            )
    return "\n".join(lines) + "\n"


def render_profile(doc):
    """Render a mercury.profile.v1 document: buckets ranked by self time
    (the wall time no nested bucket took; its share is wall_fraction), with
    inclusive wall time, per-event costs and the sim attribution."""
    lines = []
    add = lines.append
    add("=== Mercury engine profile ===")
    state = "enabled" if doc.get("enabled") else "disabled"
    wall_total = doc.get("wall_ns_total", 0)
    add(
        f"profiler {state}: {doc.get('events_total', 0)} events, "
        f"{wall_total / 1e6:.3f} ms wall total"
    )
    buckets = sorted(
        doc.get("buckets", []),
        key=lambda b: b.get("self_ns", 0),
        reverse=True,
    )
    if not buckets:
        add("(no buckets recorded)")
        return "\n".join(lines) + "\n"
    width = max(len(b["name"]) for b in buckets)
    add("")
    add(
        f"  {'bucket':<{width}}  {'count':>8}  {'self ms':>10}  "
        f"{'self %':>7}  {'wall ms':>10}  {'ns/event':>9}  {'sim us':>12}"
    )
    for b in buckets:
        count = b.get("count", 0)
        wall = b.get("wall_ns", 0)
        per_event = wall / count if count else 0.0
        add(
            f"  {b['name']:<{width}}  {count:>8}  "
            f"{b.get('self_ns', 0) / 1e6:>10.3f}  "
            f"{b.get('wall_fraction', 0.0):>7.1%}  {wall / 1e6:>10.3f}  "
            f"{per_event:>9.0f}  {_us(b.get('sim_cycles', 0)):>12.3f}"
        )
    return "\n".join(lines) + "\n"


def render_pause(doc, tail_n=40):
    """Render a mercury.pause.v1 ledger: the per-cause attribution table,
    per-CPU unavailability totals, the worst-case interval, and the flight
    tail surrounding it (cut around worst.flight_seq when it is still in
    the ring)."""
    lines = []
    add = lines.append
    add("=== Mercury pause observatory ===")
    add(
        f"intervals: {doc['intervals']} recorded, "
        f"{doc['unattributed']} unattributed"
    )
    worst = doc["worst"]
    if worst["cause"] == "none":
        add("worst    : (no intervals recorded)")
    else:
        add(
            f"worst    : {_us(worst['span']):.3f} us on cpu {worst['cpu']} — "
            f"{worst['cause']}"
            + (f" ({worst['detail']})" if worst.get("detail") else "")
            + f", [{_us(worst['begin']):.3f} .. {_us(worst['end']):.3f}] us, "
            f"flight seq {worst['flight_seq']}"
        )

    causes = doc.get("causes", [])
    if causes:
        add("")
        add("--- attribution by cause (nested windows; not additive) ---")
        width = max(len(c["name"]) for c in causes)
        add(
            f"  {'cause':<{width}}  {'count':>8}  {'total us':>14}  "
            f"{'p50<= us':>12}  {'p99<= us':>12}  {'worst us':>12}"
        )
        for c in causes:
            add(
                f"  {c['name']:<{width}}  {c['count']:>8}  "
                f"{_us(c['total_cycles']):>14.3f}  {_us(c['p50']):>12.3f}  "
                f"{_us(c['p99']):>12.3f}  {_us(c['max']):>12.3f}"
            )

    cpus = doc.get("cpus", [])
    if cpus:
        add("")
        add("--- per-CPU unavailability ---")
        for c in cpus:
            add(f"  cpu {c['cpu']:>2}: {_us(c['total_cycles']):>14.3f} us")

    events = doc.get("flight", {}).get("events", [])
    if events:
        add("")
        # Cut the tail around the worst interval's flight event when the
        # ring still holds it; otherwise fall back to the newest events.
        seqs = [e["seq"] for e in events]
        target = worst.get("flight_seq")
        if worst["cause"] != "none" and target in seqs:
            at = seqs.index(target)
            lo = max(0, at - tail_n + 1)
            window = events[lo:at + 1]
            add(
                f"--- {len(window)} flight events up to the worst interval "
                f"(seq {target}) ---"
            )
        else:
            window = events[-tail_n:]
            add(f"--- last {len(window)} flight events ---")
        for ev in window:
            add("  " + _fmt_event(ev))
    return "\n".join(lines) + "\n"


def render_depend(doc):
    """Render a mercury.depend.v1 verdict: per-arc outcome lines, the
    dependability-window decomposition, and the pause-ledger attribution
    of each arc's downtime."""
    lines = []
    add = lines.append
    add("=== Mercury dependability arcs ===")
    add(
        f"seed {doc.get('seed')}, storm rate {doc.get('storm_rate', 0.0):g}, "
        f"{doc.get('storm_fires', 0)} storm fires, "
        f"{len(doc.get('arcs', []))} arc(s)"
    )
    for a in doc.get("arcs", []):
        verdict = (
            "success" if a.get("success")
            else "quarantined" if a.get("quarantined")
            else "INCOMPLETE"
        )
        flags = [
            f for f, on in (
                ("rolled-back", a.get("rolled_back")),
                ("verified", a.get("verified")),
                ("postmortem", a.get("postmortem_written")),
            ) if on
        ]
        add("")
        add(f"--- {a.get('service', '?')}: {verdict}"
            + (f" ({', '.join(flags)})" if flags else "") + " ---")
        add(
            f"  window   : {_us(a.get('window_cycles', 0)):>12.3f} us  "
            f"(attach {_us(a.get('attach_cycles', 0)):.3f}, "
            f"service {_us(a.get('service_cycles', 0)):.3f}, "
            f"detach {_us(a.get('detach_cycles', 0)):.3f})"
        )
        add(f"  downtime : {_us(a.get('downtime_cycles', 0)):>12.3f} us")
        add(
            f"  attempts : {a.get('attempts', 0)} service "
            f"({a.get('retries', 0)} retries, {a.get('faults', 0)} faults), "
            f"{a.get('switch_attempts', 0)} switch "
            f"({a.get('switch_retries', 0)} retries)"
        )
        add(
            f"  health   : {a.get('stranded_requests', 0)} stranded, "
            f"{a.get('invariant_violations', 0)} invariant violation(s)"
        )
        if a.get("pages_total"):
            add(
                f"  pre-copy : {a.get('pages_sent', 0)}/"
                f"{a.get('pages_total', 0)} pages over "
                f"{a.get('precopy_rounds', 0)} round(s)"
            )
        pause = a.get("pause", {})
        parts = [
            f"{label} {_us(pause.get(key, 0)):.3f}"
            for label, key in (
                ("rendezvous", "rendezvous_cycles"),
                ("stop-copy", "stopcopy_cycles"),
                ("checkpoint", "checkpoint_cycles"),
                ("backoff", "backoff_cycles"),
                ("rollback", "rollback_cycles"),
            ) if pause.get(key)
        ]
        add(
            f"  pauses   : {pause.get('intervals', 0)} interval(s), "
            f"{pause.get('unattributed', 0)} unattributed"
            + (f" — us by cause: {', '.join(parts)}" if parts else "")
        )
    return "\n".join(lines) + "\n"


RENDERERS = {
    "mercury.postmortem.v1": None,  # render(doc, tail_n) — takes --tail
    "mercury.timeseries.v1": render_timeseries,
    "mercury.profile.v1": render_profile,
    "mercury.pause.v1": None,  # render_pause(doc, tail_n) — takes --tail
    "mercury.depend.v1": render_depend,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "path",
        help="artifact to render (postmortem bundle, time series, or "
        "engine profile)",
    )
    ap.add_argument(
        "--tail",
        type=int,
        default=40,
        metavar="N",
        help="raw flight events to print at the end (default 40)",
    )
    args = ap.parse_args()

    # Every failure mode — unreadable file, truncated JSON, a non-object
    # document, or a renderer tripping over a malformed section — is a
    # one-line diagnostic carrying (file, schema, reason), never a
    # traceback.
    try:
        with open(args.path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"blackbox_report: FAIL: {args.path}: cannot parse: {e}",
              file=sys.stderr)
        sys.exit(2)
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema not in RENDERERS:
        print(
            f"blackbox_report: FAIL: {args.path}: schema is {schema!r}, "
            f"expected one of {sorted(RENDERERS)}",
            file=sys.stderr,
        )
        sys.exit(2)
    try:
        if schema == "mercury.postmortem.v1":
            out = render(doc, args.tail)
        elif schema == "mercury.pause.v1":
            out = render_pause(doc, args.tail)
        else:
            out = RENDERERS[schema](doc)
    except (KeyError, TypeError, IndexError, ValueError) as e:
        print(
            f"blackbox_report: FAIL: {args.path}: schema {schema}: "
            f"malformed document ({type(e).__name__}: {e})",
            file=sys.stderr,
        )
        sys.exit(2)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
