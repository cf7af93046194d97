#!/usr/bin/env python3
"""Validate Mercury JSON artifacts: bench metrics, postmortem bundles,
chaos-soak verdicts, sampled time series, engine profiles, and Chrome
traces.

Usage:
    scripts/check_bench_json.py out.json
    scripts/check_bench_json.py out.json --require switch.attach.total_cycles \
        --require switch.detach.total_cycles
    scripts/check_bench_json.py mercury-postmortem-<pid>-0.json --schema postmortem
    scripts/check_bench_json.py soak.json --schema soak
    scripts/check_bench_json.py ts.json --schema timeseries
    scripts/check_bench_json.py prof.json --schema profile
    scripts/check_bench_json.py pause.json --schema pause
    scripts/check_bench_json.py depend.json --schema depend
    scripts/check_bench_json.py out.json.trace.json --schema chrome \
        --require switch.attach

Exits 0 when the document is well-formed against the selected schema
(mercury.metrics.v1 by default; mercury.postmortem.v1 with
--schema postmortem, mercury.soak.v1 with --schema soak,
mercury.timeseries.v1 with --schema timeseries, mercury.profile.v1 with
--schema profile, mercury.pause.v1 with --schema pause, mercury.depend.v1
with --schema depend, a Chrome trace_event document with --schema chrome)
and every --require name is present as an instrument (for a Chrome trace:
an event name); nonzero otherwise. The soak schema additionally *gates*: zero
unresolved requests, zero invariant violations, zero workload corruptions,
zero unattributed pause intervals (document-wide and per node), and
converged == true — the CI soak job fails on any of them. The pause schema
gates zero unattributed intervals the same way. The depend schema gates
the dependability dichotomy: every arc landed its service (success) or
abandoned it cleanly (quarantined, with a postmortem written), with zero
stranded requests, zero invariant violations, and a downtime no larger
than its dependability window. Every failure is a single line carrying
the file, the schema, and the reason. Stdlib-only on purpose: usable on
any machine that can run the benches. The validators are importable (see
scripts/test_check_bench_json.py).
"""

import argparse
import json
import sys

METRICS_SCHEMA = "mercury.metrics.v1"
POSTMORTEM_SCHEMA = "mercury.postmortem.v1"
SOAK_SCHEMA = "mercury.soak.v1"
TIMESERIES_SCHEMA = "mercury.timeseries.v1"
PROFILE_SCHEMA = "mercury.profile.v1"
PAUSE_SCHEMA = "mercury.pause.v1"
DEPEND_SCHEMA = "mercury.depend.v1"
HIST_FIELDS = ("count", "sum", "min", "mean", "max", "p50", "p90", "p99")
# Chrome event phases the flight-ring export writes: complete spans and
# instants.
CHROME_PHASES = ("X", "i")

# The attribution causes a mercury.pause.v1 ledger always reports
# (silent causes appear with zero counts).
PAUSE_CAUSES = (
    "rendezvous-parked",
    "crew-shard-work",
    "tlb-shootdown",
    "hypercall-emulation",
    "rollback-unwind",
    "supervisor-retry-backoff",
    "migrate-stop-copy",
    "checkpoint-copy",
)

# Boolean / numeric fields a mercury.depend.v1 arc must carry.
DEPEND_ARC_BOOLS = (
    "success",
    "quarantined",
    "rolled_back",
    "verified",
    "postmortem_written",
)
DEPEND_ARC_NUMBERS = (
    "attempts",
    "retries",
    "faults",
    "switch_attempts",
    "switch_retries",
    "stranded_requests",
    "invariant_violations",
    "window_cycles",
    "attach_cycles",
    "service_cycles",
    "detach_cycles",
    "downtime_cycles",
    "pages_sent",
    "pages_total",
    "precopy_rounds",
)
DEPEND_ARC_PAUSE_NUMBERS = (
    "intervals",
    "unattributed",
    "rendezvous_cycles",
    "stopcopy_cycles",
    "checkpoint_cycles",
    "backoff_cycles",
    "rollback_cycles",
)

# Section -> numeric fields a mercury.soak.v1 document must carry.
SOAK_SECTIONS = {
    "storm": ("rate", "burst", "decay", "fires", "windows"),
    "requests": (
        "submitted",
        "committed",
        "failed_deadline",
        "failed_attempts",
        "failed_quarantined",
        "cancelled",
        "unresolved",
    ),
    "supervisor": (
        "attempts",
        "retries",
        "backoffs",
        "quarantines",
        "recoveries",
        "probes",
    ),
    "engine": ("rollbacks", "cancels"),
    "invariants": ("checks", "violations"),
    "availability": ("fraction", "interruptions", "downtime_cycles",
                     "span_cycles"),
    "workload": ("ops", "bytes", "corruptions"),
    "pause": ("intervals", "unattributed", "worst_cycles"),
}

# Numeric fields of a per-node rollup inside a fleet soak verdict.
SOAK_NODE_FIELDS = (
    "submitted",
    "committed",
    "failed",
    "retries",
    "quarantines",
    "availability",
    "interruptions",
    "downtime_cycles",
    "span_cycles",
    "pause_intervals",
    "pause_unattributed",
    "pause_worst_cycles",
)


class SchemaError(Exception):
    """Raised by the validators on the first schema violation found."""


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_entry(section, i, entry, extra_fields):
    where = f"{section}[{i}]"
    if not isinstance(entry, dict):
        raise SchemaError(f"{where} is not an object")
    name = entry.get("name")
    if not isinstance(name, str) or not name:
        raise SchemaError(f"{where} lacks a non-empty string 'name'")
    if "label" in entry and not isinstance(entry["label"], str):
        raise SchemaError(f"{where} ('{name}') has a non-string 'label'")
    for field in extra_fields:
        if field not in entry:
            raise SchemaError(f"{where} ('{name}') lacks '{field}'")
        if not _is_number(entry[field]):
            raise SchemaError(
                f"{where} ('{name}') field '{field}' is not a number"
            )
    return name


def validate_metrics(doc):
    """Validate a mercury.metrics.v1 document; returns the set of
    instrument names. Raises SchemaError on the first violation."""
    if not isinstance(doc, dict):
        raise SchemaError("top-level value is not an object")
    if doc.get("schema") != METRICS_SCHEMA:
        raise SchemaError(
            f"schema is {doc.get('schema')!r}, expected {METRICS_SCHEMA!r}"
        )

    names = set()
    for section, extra in (
        ("counters", ("value",)),
        ("gauges", ("value",)),
        ("histograms", HIST_FIELDS),
    ):
        entries = doc.get(section)
        if not isinstance(entries, list):
            raise SchemaError(f"'{section}' is missing or not an array")
        for i, entry in enumerate(entries):
            names.add(_check_entry(section, i, entry, extra))

    for i, entry in enumerate(doc["histograms"]):
        name = entry["name"]
        if entry["count"] > 0:
            if not entry["min"] <= entry["mean"] <= entry["max"]:
                raise SchemaError(
                    f"histograms[{i}] ('{name}'): min <= mean <= max violated"
                )
            if not entry["p50"] <= entry["p90"] <= entry["p99"]:
                raise SchemaError(
                    f"histograms[{i}] ('{name}'): quantiles not monotonic"
                )
        if entry["count"] < 0:
            raise SchemaError(f"histograms[{i}] ('{name}'): negative count")
    return names


def validate_flight_event(i, ev):
    where = f"flight.events[{i}]"
    if not isinstance(ev, dict):
        raise SchemaError(f"{where} is not an object")
    for field in ("seq", "cpu", "cycles"):
        if not _is_number(ev.get(field)):
            raise SchemaError(f"{where} field '{field}' is not a number")
    for field in ("type", "name"):
        if not isinstance(ev.get(field), str) or not ev[field]:
            raise SchemaError(
                f"{where} lacks a non-empty string '{field}'"
            )
    args = ev.get("args")
    if not isinstance(args, list) or len(args) != 3 or not all(
        _is_number(a) for a in args
    ):
        raise SchemaError(f"{where} 'args' is not a list of 3 numbers")


def validate_postmortem(doc):
    """Validate a mercury.postmortem.v1 bundle (including its embedded
    metrics snapshot). Returns the set of embedded instrument names.
    Raises SchemaError on the first violation."""
    if not isinstance(doc, dict):
        raise SchemaError("top-level value is not an object")
    if doc.get("schema") != POSTMORTEM_SCHEMA:
        raise SchemaError(
            f"schema is {doc.get('schema')!r}, expected {POSTMORTEM_SCHEMA!r}"
        )
    if not isinstance(doc.get("reason"), str) or not doc["reason"]:
        raise SchemaError("'reason' is missing or not a non-empty string")
    if not isinstance(doc.get("detail"), str):
        raise SchemaError("'detail' is missing or not a string")

    sw = doc.get("switch")
    if not isinstance(sw, dict):
        raise SchemaError("'switch' is missing or not an object")
    for field in ("from", "target"):
        if not isinstance(sw.get(field), str):
            raise SchemaError(f"switch.{field} is not a string")

    if "fault" in doc:
        fault = doc["fault"]
        if not isinstance(fault, dict):
            raise SchemaError("'fault' is not an object")
        for field in ("site", "kind"):
            if not isinstance(fault.get(field), str) or not fault[field]:
                raise SchemaError(
                    f"fault.{field} is missing or not a non-empty string"
                )
        if not _is_number(fault.get("cpu")):
            raise SchemaError("fault.cpu is not a number")

    if not _is_number(doc.get("active_refs")):
        raise SchemaError("'active_refs' is missing or not a number")

    clocks = doc.get("cpu_clocks")
    if not isinstance(clocks, list):
        raise SchemaError("'cpu_clocks' is missing or not an array")
    for i, c in enumerate(clocks):
        if not isinstance(c, dict) or not _is_number(c.get("cpu")) or not (
            _is_number(c.get("cycles"))
        ):
            raise SchemaError(f"cpu_clocks[{i}] lacks numeric cpu/cycles")

    flight = doc.get("flight")
    if not isinstance(flight, dict):
        raise SchemaError("'flight' is missing or not an object")
    for field in ("recorded", "dropped"):
        if not _is_number(flight.get(field)):
            raise SchemaError(f"flight.{field} is not a number")
    events = flight.get("events")
    if not isinstance(events, list):
        raise SchemaError("flight.events is missing or not an array")
    prev_seq = None
    for i, ev in enumerate(events):
        validate_flight_event(i, ev)
        if prev_seq is not None and ev["seq"] <= prev_seq:
            raise SchemaError(
                f"flight.events[{i}]: seq {ev['seq']} not strictly increasing"
            )
        prev_seq = ev["seq"]

    extra = doc.get("extra")
    if not isinstance(extra, list):
        raise SchemaError("'extra' is missing or not an array")
    for i, e in enumerate(extra):
        if not isinstance(e, dict) or not isinstance(e.get("name"), str) or (
            not _is_number(e.get("value"))
        ):
            raise SchemaError(f"extra[{i}] lacks string name / numeric value")

    if "metrics" not in doc:
        raise SchemaError("'metrics' (embedded snapshot) is missing")
    return validate_metrics(doc["metrics"])


def validate_soak(doc):
    """Validate a mercury.soak.v1 verdict (including its embedded metrics
    snapshot) and enforce the soak gates: no unresolved requests, no
    invariant violations, no workload corruption, converged == true.
    Returns the set of embedded instrument names. Raises SchemaError on the
    first violation."""
    if not isinstance(doc, dict):
        raise SchemaError("top-level value is not an object")
    if doc.get("schema") != SOAK_SCHEMA:
        raise SchemaError(
            f"schema is {doc.get('schema')!r}, expected {SOAK_SCHEMA!r}"
        )
    for field in ("seed", "cpus", "planned_cycles"):
        if not _is_number(doc.get(field)):
            raise SchemaError(f"'{field}' is missing or not a number")
    for section, fields in SOAK_SECTIONS.items():
        sec = doc.get(section)
        if not isinstance(sec, dict):
            raise SchemaError(f"'{section}' is missing or not an object")
        for field in fields:
            if not _is_number(sec.get(field)):
                raise SchemaError(
                    f"{section}.{field} is missing or not a number"
                )
    if not isinstance(doc["supervisor"].get("final_health"), str):
        raise SchemaError("supervisor.final_health is not a string")
    if not isinstance(doc["pause"].get("worst_cause"), str) or not (
        doc["pause"]["worst_cause"]
    ):
        raise SchemaError(
            "pause.worst_cause is missing or not a non-empty string"
        )
    if not isinstance(doc.get("final_mode"), str) or not doc["final_mode"]:
        raise SchemaError("'final_mode' is missing or not a non-empty string")
    if not isinstance(doc.get("converged"), bool):
        raise SchemaError("'converged' is missing or not a boolean")
    if "metrics" not in doc:
        raise SchemaError("'metrics' (embedded snapshot) is missing")
    names = validate_metrics(doc["metrics"])

    # The gates. A soak that strands a request, breaks an invariant, or
    # corrupts the workload is a failed soak regardless of how pretty the
    # rest of the document is.
    if doc["requests"]["unresolved"] != 0:
        raise SchemaError(
            f"soak gate: {doc['requests']['unresolved']} unresolved "
            "request(s) — a supervised request was stranded"
        )
    if doc["invariants"]["violations"] != 0:
        raise SchemaError(
            f"soak gate: {doc['invariants']['violations']} invariant "
            "violation(s)"
        )
    if doc["workload"]["corruptions"] != 0:
        raise SchemaError(
            f"soak gate: {doc['workload']['corruptions']} workload "
            "corruption(s)"
        )
    if doc["pause"]["unattributed"] != 0:
        raise SchemaError(
            f"soak gate: {doc['pause']['unattributed']} unattributed "
            "unavailability interval(s) — a pause begin/end pairing bug"
        )
    if not doc["converged"]:
        raise SchemaError("soak gate: run did not converge")
    if not 0.0 <= doc["availability"]["fraction"] <= 1.0:
        raise SchemaError("availability.fraction outside [0, 1]")

    # Optional per-node rollups (fleet soaks). Single-machine verdicts omit
    # the section entirely.
    if "nodes" in doc:
        nodes = doc["nodes"]
        if not isinstance(nodes, list) or not nodes:
            raise SchemaError("'nodes' is present but not a non-empty array")
        for i, node in enumerate(nodes):
            where = f"nodes[{i}]"
            if not isinstance(node, dict):
                raise SchemaError(f"{where} is not an object")
            for field in (
                "name",
                "final_health",
                "final_mode",
                "pause_worst_cause",
            ):
                if not isinstance(node.get(field), str) or not node[field]:
                    raise SchemaError(
                        f"{where} lacks a non-empty string '{field}'"
                    )
            for field in SOAK_NODE_FIELDS:
                if not _is_number(node.get(field)):
                    raise SchemaError(
                        f"{where} ('{node['name']}') field '{field}' is "
                        "missing or not a number"
                    )
            if not 0.0 <= node["availability"] <= 1.0:
                raise SchemaError(
                    f"{where} ('{node['name']}') availability outside [0, 1]"
                )
            if node["pause_unattributed"] != 0:
                raise SchemaError(
                    f"soak gate: {where} ('{node['name']}') has "
                    f"{node['pause_unattributed']} unattributed "
                    "unavailability interval(s)"
                )
    return names


def validate_pause(doc):
    """Validate a mercury.pause.v1 unavailability ledger and enforce its
    gate: zero unattributed intervals (an orphaned begin/end half is a
    pairing bug in an instrumentation site). Returns the set of cause
    names. Raises SchemaError on the first violation."""
    if not isinstance(doc, dict):
        raise SchemaError("top-level value is not an object")
    if doc.get("schema") != PAUSE_SCHEMA:
        raise SchemaError(
            f"schema is {doc.get('schema')!r}, expected {PAUSE_SCHEMA!r}"
        )
    for field in ("intervals", "unattributed"):
        if not _is_number(doc.get(field)):
            raise SchemaError(f"'{field}' is missing or not a number")

    worst = doc.get("worst")
    if not isinstance(worst, dict):
        raise SchemaError("'worst' is missing or not an object")
    for field in ("cause", "detail"):
        if not isinstance(worst.get(field), str):
            raise SchemaError(f"worst.{field} is missing or not a string")
    if not worst["cause"]:
        raise SchemaError("worst.cause is empty ('none' when no intervals)")
    for field in ("cpu", "begin", "end", "span", "flight_seq"):
        if not _is_number(worst.get(field)):
            raise SchemaError(f"worst.{field} is missing or not a number")
    if worst["end"] < worst["begin"]:
        raise SchemaError("worst interval ends before it begins")
    if worst["span"] != worst["end"] - worst["begin"]:
        raise SchemaError("worst.span does not equal end - begin")

    causes = doc.get("causes")
    if not isinstance(causes, list) or not causes:
        raise SchemaError("'causes' is missing or not a non-empty array")
    names = set()
    for i, c in enumerate(causes):
        where = f"causes[{i}]"
        if not isinstance(c, dict):
            raise SchemaError(f"{where} is not an object")
        name = c.get("name")
        if not isinstance(name, str) or not name:
            raise SchemaError(f"{where} lacks a non-empty string 'name'")
        for field in ("count", "total_cycles", "p50", "p99", "max"):
            if not _is_number(c.get(field)):
                raise SchemaError(
                    f"{where} ('{name}') field '{field}' is missing or not "
                    "a number"
                )
        # p50/p99 are log2-bucket upper bounds and the max is exact, so the
        # bounds are monotone against each other but may exceed the max.
        if c["p50"] > c["p99"]:
            raise SchemaError(f"{where} ('{name}'): p50 > p99")
        if c["count"] == 0 and c["total_cycles"] != 0:
            raise SchemaError(
                f"{where} ('{name}'): cycles recorded with zero intervals"
            )
        names.add(name)
    missing = [c for c in PAUSE_CAUSES if c not in names]
    if missing:
        raise SchemaError(f"causes absent from ledger: {', '.join(missing)}")

    cpus = doc.get("cpus")
    if not isinstance(cpus, list):
        raise SchemaError("'cpus' is missing or not an array")
    for i, c in enumerate(cpus):
        if not isinstance(c, dict) or not _is_number(c.get("cpu")) or not (
            _is_number(c.get("total_cycles"))
        ):
            raise SchemaError(f"cpus[{i}] lacks numeric cpu/total_cycles")

    flight = doc.get("flight")
    if not isinstance(flight, dict):
        raise SchemaError("'flight' is missing or not an object")
    events = flight.get("events")
    if not isinstance(events, list):
        raise SchemaError("flight.events is missing or not an array")
    prev_seq = None
    for i, ev in enumerate(events):
        validate_flight_event(i, ev)
        if prev_seq is not None and ev["seq"] <= prev_seq:
            raise SchemaError(
                f"flight.events[{i}]: seq {ev['seq']} not strictly increasing"
            )
        prev_seq = ev["seq"]

    # The gate: every recorded unavailability interval must carry a cause.
    if doc["unattributed"] != 0:
        raise SchemaError(
            f"pause gate: {doc['unattributed']} unattributed unavailability "
            "interval(s) — a pause begin/end pairing bug"
        )
    return names


def validate_depend(doc):
    """Validate a mercury.depend.v1 verdict and enforce the dependability
    gates: every arc completed its service (success) or abandoned it
    cleanly (quarantined with a postmortem), with zero stranded requests,
    zero invariant violations, zero unattributed pause intervals, and a
    downtime bounded by the dependability window. Returns the set of arc
    service names. Raises SchemaError on the first violation."""
    if not isinstance(doc, dict):
        raise SchemaError("top-level value is not an object")
    if doc.get("schema") != DEPEND_SCHEMA:
        raise SchemaError(
            f"schema is {doc.get('schema')!r}, expected {DEPEND_SCHEMA!r}"
        )
    for field in ("seed", "storm_rate", "storm_fires"):
        if not _is_number(doc.get(field)):
            raise SchemaError(f"'{field}' is missing or not a number")
    arcs = doc.get("arcs")
    if not isinstance(arcs, list) or not arcs:
        raise SchemaError("'arcs' is missing or not a non-empty array")

    names = set()
    for i, arc in enumerate(arcs):
        where = f"arcs[{i}]"
        if not isinstance(arc, dict):
            raise SchemaError(f"{where} is not an object")
        service = arc.get("service")
        if not isinstance(service, str) or not service:
            raise SchemaError(f"{where} lacks a non-empty string 'service'")
        where = f"{where} ('{service}')"
        for field in DEPEND_ARC_BOOLS:
            if not isinstance(arc.get(field), bool):
                raise SchemaError(
                    f"{where} field '{field}' is missing or not a boolean"
                )
        for field in DEPEND_ARC_NUMBERS:
            if not _is_number(arc.get(field)):
                raise SchemaError(
                    f"{where} field '{field}' is missing or not a number"
                )
        pause = arc.get("pause")
        if not isinstance(pause, dict):
            raise SchemaError(f"{where} 'pause' is missing or not an object")
        for field in DEPEND_ARC_PAUSE_NUMBERS:
            if not _is_number(pause.get(field)):
                raise SchemaError(
                    f"{where} pause.{field} is missing or not a number"
                )

        # The gates: the completion dichotomy, no stranded work, no broken
        # invariants, and a coherent window decomposition.
        if not arc["success"] and not arc["quarantined"]:
            raise SchemaError(
                f"depend gate: {where} neither succeeded nor quarantined — "
                "the arc abandoned its service without a clean verdict"
            )
        if arc["success"] and arc["quarantined"]:
            raise SchemaError(
                f"depend gate: {where} both succeeded and quarantined"
            )
        if arc["quarantined"] and not arc["postmortem_written"]:
            raise SchemaError(
                f"depend gate: {where} quarantined without a postmortem"
            )
        if arc["stranded_requests"] != 0:
            raise SchemaError(
                f"depend gate: {where} stranded "
                f"{arc['stranded_requests']} supervised request(s)"
            )
        if arc["invariant_violations"] != 0:
            raise SchemaError(
                f"depend gate: {where} has {arc['invariant_violations']} "
                "invariant violation(s)"
            )
        if arc["attempts"] < 1:
            raise SchemaError(f"{where} reports zero service attempts")
        if arc["window_cycles"] <= 0:
            raise SchemaError(f"{where} has an empty dependability window")
        if arc["downtime_cycles"] > arc["window_cycles"]:
            raise SchemaError(
                f"{where} downtime exceeds its dependability window"
            )
        if arc["pages_sent"] < arc["pages_total"]:
            raise SchemaError(
                f"{where} sent fewer pages than the domain holds"
            )
        if pause["unattributed"] != 0:
            raise SchemaError(
                f"depend gate: {where} has {pause['unattributed']} "
                "unattributed unavailability interval(s)"
            )
        names.add(service)
    return names


def validate_timeseries(doc):
    """Validate a mercury.timeseries.v1 document. Returns the set of series
    names. Raises SchemaError on the first violation."""
    if not isinstance(doc, dict):
        raise SchemaError("top-level value is not an object")
    if doc.get("schema") != TIMESERIES_SCHEMA:
        raise SchemaError(
            f"schema is {doc.get('schema')!r}, expected {TIMESERIES_SCHEMA!r}"
        )
    for field in ("interval_cycles", "capacity", "samples", "dropped"):
        if not _is_number(doc.get(field)):
            raise SchemaError(f"'{field}' is missing or not a number")
    series = doc.get("series")
    if not isinstance(series, list) or not series:
        raise SchemaError("'series' is missing or not a non-empty array")
    names = set()
    for i, s in enumerate(series):
        where = f"series[{i}]"
        if not isinstance(s, dict):
            raise SchemaError(f"{where} is not an object")
        name = s.get("name")
        if not isinstance(name, str) or not name:
            raise SchemaError(f"{where} lacks a non-empty string 'name'")
        if not isinstance(s.get("label"), str):
            raise SchemaError(f"{where} ('{name}') has a non-string 'label'")
        points = s.get("points")
        if not isinstance(points, list):
            raise SchemaError(
                f"{where} ('{name}') 'points' is missing or not an array"
            )
        prev_t = None
        for j, p in enumerate(points):
            if (
                not isinstance(p, list)
                or len(p) != 2
                or not all(_is_number(v) for v in p)
            ):
                raise SchemaError(
                    f"{where} ('{name}') points[{j}] is not a [t, value] "
                    "pair of numbers"
                )
            if prev_t is not None and p[0] < prev_t:
                raise SchemaError(
                    f"{where} ('{name}') points[{j}]: timestamp {p[0]} "
                    "decreases"
                )
            prev_t = p[0]
        names.add(name)
    return names


def validate_profile(doc):
    """Validate a mercury.profile.v1 document. Returns the set of bucket
    names. Raises SchemaError on the first violation."""
    if not isinstance(doc, dict):
        raise SchemaError("top-level value is not an object")
    if doc.get("schema") != PROFILE_SCHEMA:
        raise SchemaError(
            f"schema is {doc.get('schema')!r}, expected {PROFILE_SCHEMA!r}"
        )
    if not isinstance(doc.get("enabled"), bool):
        raise SchemaError("'enabled' is missing or not a boolean")
    for field in ("wall_ns_total", "events_total"):
        if not _is_number(doc.get(field)):
            raise SchemaError(f"'{field}' is missing or not a number")
    buckets = doc.get("buckets")
    if not isinstance(buckets, list):
        raise SchemaError("'buckets' is missing or not an array")
    if doc["enabled"] and not buckets:
        raise SchemaError("profiler enabled but no buckets recorded")
    names = set()
    for i, b in enumerate(buckets):
        where = f"buckets[{i}]"
        if not isinstance(b, dict):
            raise SchemaError(f"{where} is not an object")
        name = b.get("name")
        if not isinstance(name, str) or not name:
            raise SchemaError(f"{where} lacks a non-empty string 'name'")
        for field in ("count", "wall_ns", "self_ns", "sim_cycles",
                      "wall_fraction"):
            if not _is_number(b.get(field)):
                raise SchemaError(
                    f"{where} ('{name}') field '{field}' is missing or not "
                    "a number"
                )
        if not 0.0 <= b["wall_fraction"] <= 1.0:
            raise SchemaError(
                f"{where} ('{name}') wall_fraction outside [0, 1]"
            )
        if b["self_ns"] > b["wall_ns"]:
            raise SchemaError(
                f"{where} ('{name}') self_ns exceeds its inclusive wall_ns"
            )
        names.add(name)
    # wall_fraction is each bucket's share of the self-time total, so the
    # shares add up to one (each is printed to six significant digits).
    if buckets and doc["wall_ns_total"] > 0:
        share = sum(b["wall_fraction"] for b in buckets)
        if abs(share - 1.0) > 1e-3:
            raise SchemaError(
                f"wall_fraction values sum to {share:.6f}, expected 1"
            )
    return names


def validate_chrome(doc):
    """Validate a Chrome trace_event document as the benches write it
    (--trace-json, a view over the flight ring): named X spans and i
    instants with numeric ts/pid/tid, a non-negative dur on every span, and
    a unique flight seq in args. Returns the set of event names. Raises
    SchemaError on the first violation."""
    if not isinstance(doc, dict):
        raise SchemaError("top-level value is not an object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise SchemaError("'traceEvents' is missing or not an array")
    names = set()
    seqs = set()
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            raise SchemaError(f"{where} is not an object")
        name = ev.get("name")
        if not isinstance(name, str) or not name:
            raise SchemaError(f"{where} lacks a non-empty string 'name'")
        where = f"{where} ('{name}')"
        if not isinstance(ev.get("cat"), str):
            raise SchemaError(f"{where} lacks a string 'cat'")
        if ev.get("ph") not in CHROME_PHASES:
            raise SchemaError(f"{where} 'ph' is {ev.get('ph')!r}, not X or i")
        for field in ("ts", "pid", "tid"):
            if not _is_number(ev.get(field)):
                raise SchemaError(f"{where} field '{field}' is not a number")
        if ev["ph"] == "X" and not (_is_number(ev.get("dur"))
                                    and ev["dur"] >= 0):
            raise SchemaError(f"{where} span lacks a 'dur' >= 0")
        args = ev.get("args")
        seq = args.get("seq") if isinstance(args, dict) else None
        if not _is_number(seq):
            raise SchemaError(f"{where} 'args.seq' is not a number")
        if seq in seqs:
            raise SchemaError(f"{where} repeats seq {seq}")
        seqs.add(seq)
        names.add(name)
    return names


def fail(msg):
    print(f"check_bench_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("path", help="JSON artifact to validate")
    ap.add_argument(
        "--schema",
        choices=("metrics", "postmortem", "soak", "timeseries", "profile",
                 "pause", "depend", "chrome"),
        default="metrics",
        help="document schema to validate against (default: metrics)",
    )
    ap.add_argument(
        "--require",
        action="append",
        default=[],
        metavar="NAME",
        help="instrument name that must be present (repeatable)",
    )
    args = ap.parse_args()

    schema_names = {
        "metrics": METRICS_SCHEMA,
        "postmortem": POSTMORTEM_SCHEMA,
        "soak": SOAK_SCHEMA,
        "timeseries": TIMESERIES_SCHEMA,
        "profile": PROFILE_SCHEMA,
        "pause": PAUSE_SCHEMA,
        "depend": DEPEND_SCHEMA,
        "chrome": "Chrome trace_event",
    }
    # Every failure is one line carrying (file, schema, reason): a truncated
    # or non-object artifact must diagnose itself, not raise a traceback.
    try:
        with open(args.path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"{args.path}: schema {schema_names[args.schema]}: "
             f"cannot parse: {e}")

    validators = {
        "metrics": validate_metrics,
        "postmortem": validate_postmortem,
        "soak": validate_soak,
        "timeseries": validate_timeseries,
        "profile": validate_profile,
        "pause": validate_pause,
        "depend": validate_depend,
        "chrome": validate_chrome,
    }
    try:
        names = validators[args.schema](doc)
    except SchemaError as e:
        fail(f"{args.path}: schema {schema_names[args.schema]}: {e}")

    missing = [n for n in args.require if n not in names]
    if missing:
        fail(f"required instruments absent: {', '.join(missing)}")

    if args.schema == "metrics":
        print(
            f"check_bench_json: OK: {args.path} — "
            f"{len(doc['counters'])} counters, {len(doc['gauges'])} gauges, "
            f"{len(doc['histograms'])} histograms"
        )
    elif args.schema == "postmortem":
        print(
            f"check_bench_json: OK: {args.path} — postmortem "
            f"({doc['reason']}), {len(doc['flight']['events'])} flight events"
        )
    elif args.schema == "soak":
        req = doc["requests"]
        nodes = doc.get("nodes", [])
        node_txt = f", {len(nodes)} node(s)" if nodes else ""
        print(
            f"check_bench_json: OK: {args.path} — soak converged: "
            f"{req['submitted']} requests ({req['committed']} committed), "
            f"{doc['storm']['fires']} storm fires, "
            f"final health {doc['supervisor']['final_health']}{node_txt}"
        )
    elif args.schema == "timeseries":
        print(
            f"check_bench_json: OK: {args.path} — {len(doc['series'])} "
            f"series, {doc['samples']} samples, {doc['dropped']} dropped"
        )
    elif args.schema == "pause":
        worst = doc["worst"]
        print(
            f"check_bench_json: OK: {args.path} — pause ledger: "
            f"{doc['intervals']} intervals, 0 unattributed, worst "
            f"{worst['span']} cycles ({worst['cause']})"
        )
    elif args.schema == "depend":
        ok = sum(1 for a in doc["arcs"] if a["success"])
        quar = sum(1 for a in doc["arcs"] if a["quarantined"])
        print(
            f"check_bench_json: OK: {args.path} — depend verdict: "
            f"{len(doc['arcs'])} arc(s), {ok} succeeded, {quar} quarantined, "
            f"{doc['storm_fires']} storm fires"
        )
    elif args.schema == "chrome":
        spans = sum(1 for ev in doc["traceEvents"] if ev["ph"] == "X")
        print(
            f"check_bench_json: OK: {args.path} — Chrome trace: "
            f"{len(doc['traceEvents'])} events, {spans} spans"
        )
    else:
        print(
            f"check_bench_json: OK: {args.path} — profile "
            f"({'enabled' if doc['enabled'] else 'disabled'}), "
            f"{len(doc['buckets'])} buckets, "
            f"{doc['events_total']} events"
        )


if __name__ == "__main__":
    main()
