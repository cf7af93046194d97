#!/usr/bin/env python3
"""Gate bench_modeswitch, bench_depend and perfbench against committed
baselines.

Usage:
    scripts/bench_compare.py BENCH_modeswitch.json bench-new.json
    scripts/bench_compare.py baseline.json current.json --tolerance 0.10
    scripts/bench_compare.py BENCH_perfbench.json perfbench-run.out

Compares the `bench.modeswitch.*` gauges of two mercury.metrics.v1
documents. Latency gauges (*.attach_ms, *.detach_ms, *.attach_transfer_ms,
*.detach_transfer_ms, the warm sweep's *.cold_attach_ms /
*.warm_attach_ms, and the per-cause pause tails *.pause_p50_us /
*.pause_p99_us / *.pause_worst_us) regress when the current value exceeds
baseline * (1 + tolerance); speedup gauges (crew_speedup_largest_mem,
warm_reattach_speedup) regress when the current value falls below
baseline * (1 - tolerance). A baseline gauge
missing from the current run is a failure (a silently dropped sweep cell is
a regression in coverage); new gauges in the current run are fine.

The simulator is deterministic, so identical code produces byte-identical
numbers — the tolerance only absorbs intentional cost-model adjustments.

A baseline whose schema is mercury.perfbench-baseline.v1
(BENCH_perfbench.json) is compared against the standard output of
`perfbench/run.py --workload <name> --seed <n> --trace 0` instead. The
workload and seed come from the run's `workload <name>, seed <n>, ...`
line, the result object from its last line. The run fails the comparison
when its seed is not the one recorded for the workload, when it is not
`correct` (some operation failed), or when any simulated end-to-end value
recorded for the workload differs from the result's, however slightly.
The host metrics (setup_s, run_s, peak_rss_mb) are printed as ratios
against the medians recorded for the change that wrote the file, and never
fail: they were measured on one machine, and a CI runner is a different
one. --tolerance and --prefix do not apply to this comparison.

Exits nonzero (and lists every offender) when anything regressed.
Stdlib-only, importable (see scripts/test_check_bench_json.py).
"""

import argparse
import json
import re
import sys

PREFIX = "bench.modeswitch."
PERFBENCH_SCHEMA = "mercury.perfbench-baseline.v1"
LATENCY_SUFFIXES = (
    ".attach_ms",
    ".detach_ms",
    ".attach_transfer_ms",
    ".detach_transfer_ms",
    ".cold_attach_ms",
    ".warm_attach_ms",
    # Pause-observatory tails: per-cell, per-cause unavailability in us.
    ".pause_p50_us",
    ".pause_p99_us",
    ".pause_worst_us",
    # Dependability-arc windows (bench.depend.*, gated with
    # --prefix bench.depend.): per-service native-to-native window,
    # interior service phase, and guest-frozen downtime.
    ".window_ms",
    ".service_ms",
    ".downtime_ms",
)
SPEEDUP_KEYS = (
    "bench.modeswitch.crew_speedup_largest_mem",
    "bench.modeswitch.warm_reattach_speedup",
)
# Sub-millisecond jitter floor: values this small are dominated by rounding
# in the ms conversion, not by a real cost change.
ABS_FLOOR_MS = 1e-6


def gauges(doc):
    """name -> value for every numerically-valued gauge in a
    mercury.metrics.v1 document."""
    out = {}
    entries = doc.get("gauges", []) if isinstance(doc, dict) else []
    if not isinstance(entries, list):
        entries = []
    for entry in entries:
        if (
            isinstance(entry, dict)
            and isinstance(entry.get("name"), str)
            and isinstance(entry.get("value"), (int, float))
            and not isinstance(entry.get("value"), bool)
        ):
            out[entry["name"]] = entry["value"]
    return out


def compare(baseline_doc, current_doc, tolerance=0.10, prefix=PREFIX):
    """Returns (regressions, rows): regressions is a list of human-readable
    failure strings, rows is [(name, baseline, current, verdict)] for every
    compared gauge."""
    base = gauges(baseline_doc)
    cur = gauges(current_doc)
    regressions = []
    rows = []
    for name in sorted(base):
        if not name.startswith(prefix):
            continue
        is_latency = name.endswith(LATENCY_SUFFIXES)
        is_speedup = name in SPEEDUP_KEYS
        if not is_latency and not is_speedup:
            continue
        b = base[name]
        if name not in cur:
            regressions.append(f"{name}: present in baseline, missing now")
            rows.append((name, b, None, "MISSING"))
            continue
        c = cur[name]
        if is_latency:
            limit = b * (1.0 + tolerance) + ABS_FLOOR_MS
            ok = c <= limit
            kind = f"latency over baseline*{1.0 + tolerance:.2f}"
        else:
            limit = b * (1.0 - tolerance)
            ok = c >= limit
            kind = f"speedup under baseline*{1.0 - tolerance:.2f}"
        rows.append((name, b, c, "ok" if ok else "REGRESSED"))
        if not ok:
            regressions.append(
                f"{name}: {c:.6g} vs baseline {b:.6g} ({kind})"
            )
    return regressions, rows


PERFBENCH_HEADER = re.compile(r"^workload (\S+), seed (\d+),", re.MULTILINE)


def perfbench_run(text):
    """(workload, seed, result) of a perfbench run's standard output: the
    workload and seed from its `workload <name>, seed <n>, ...` line, the
    result object from its last non-empty line."""
    header = PERFBENCH_HEADER.search(text)
    if header is None:
        raise ValueError("no 'workload <name>, seed <n>, ...' line")
    lines = [line for line in text.splitlines() if line.strip()]
    result = json.loads(lines[-1])
    if not isinstance(result, dict):
        raise ValueError("the last line is not a result object")
    return header.group(1), int(header.group(2)), result


def compare_perfbench(baseline_doc, workload, seed, result):
    """Returns (failures, rows) for one perfbench run: failures lists a
    workload the baseline does not record, a seed other than the recorded
    one, a run that is not correct, and every simulated value that moved or
    is missing; rows is [(name, recorded, current, verdict)] for every
    simulated value and host metric. Host metrics are reported as a ratio
    and never fail."""
    entry = baseline_doc.get("workloads", {}).get(workload)
    if entry is None:
        return [f"workload {workload!r} is not recorded"], []
    failures = []
    if seed != entry["seed"]:
        failures.append(f"seed {seed}: the recorded values are for seed "
                        f"{entry['seed']}")
    if result.get("correct") is not True:
        failures.append(f"run not correct: {result.get('failed')!r} of "
                        f"{result.get('attempted')!r} operations failed")
    metrics = result.get("metrics", {})

    def value(name):
        v = metrics.get(name)
        v = v.get("value") if isinstance(v, dict) else None
        numeric = isinstance(v, (int, float)) and not isinstance(v, bool)
        return v if numeric else None

    rows = []
    for name, want in sorted(entry["simulated"].items()):
        got = value(name)
        if got is None:
            failures.append(f"{name}: recorded, missing now")
            rows.append((name, want, None, "MISSING"))
        elif got != want:
            failures.append(f"{name}: {got!r} vs recorded {want!r} "
                            "(simulated values must not move)")
            rows.append((name, want, got, "MOVED"))
        else:
            rows.append((name, want, got, "ok"))
    for name, median in sorted(entry["host"]["change"].items()):
        got = value(name)
        verdict = ("not gated" if got is None or not median
                   else f"x{got / median:.2f} of recorded (not gated)")
        rows.append((name, median, got, verdict))
    return failures, rows


def main_perfbench(baseline, baseline_path, current_path):
    try:
        with open(current_path, encoding="utf-8") as f:
            workload, seed, result = perfbench_run(f.read())
    except (OSError, ValueError) as e:
        print(f"bench_compare: FAIL: cannot parse {current_path}: {e}",
              file=sys.stderr)
        sys.exit(2)
    failures, rows = compare_perfbench(baseline, workload, seed, result)
    width = max((len(r[0]) for r in rows), default=0)
    for name, want, got, verdict in rows:
        got_txt = "missing" if got is None else f"{got:.6g}"
        print(f"  {name:<{width}}  recorded {want:.6g}  now {got_txt}  "
              f"{verdict}")
    if failures:
        print(f"bench_compare: FAIL: {workload}, seed {seed}, against "
              f"{baseline_path}:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)
    print(f"bench_compare: OK: {workload}, seed {seed}: simulated values "
          f"identical to {baseline_path}")


def load_object(path):
    """The JSON object in `path`; exits 2 when it cannot be read or is not
    an object."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: FAIL: cannot parse {path}: {e}",
              file=sys.stderr)
        sys.exit(2)
    if not isinstance(doc, dict):
        print(f"bench_compare: FAIL: {path}: top-level JSON value is "
              f"{type(doc).__name__}, not an object", file=sys.stderr)
        sys.exit(2)
    return doc


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", help="committed baseline JSON")
    ap.add_argument("current", help="freshly produced metrics JSON, or a "
                    "perfbench run's standard output")
    ap.add_argument(
        "--tolerance",
        type=float,
        help="fractional slack before a change counts as a regression "
        "(default 0.10)",
    )
    ap.add_argument(
        "--prefix",
        help=f"gauge-name prefix to compare (default {PREFIX})",
    )
    args = ap.parse_args()
    baseline = load_object(args.baseline)
    if baseline.get("schema") == PERFBENCH_SCHEMA:
        if args.tolerance is not None or args.prefix is not None:
            ap.error("--tolerance and --prefix do not apply to a perfbench "
                     "baseline")
        main_perfbench(baseline, args.baseline, args.current)
        return
    if args.tolerance is None:
        args.tolerance = 0.10
    if args.prefix is None:
        args.prefix = PREFIX
    docs = [baseline, load_object(args.current)]

    regressions, rows = compare(docs[0], docs[1], args.tolerance, args.prefix)
    if not rows:
        print("bench_compare: FAIL: baseline has no comparable gauges "
              f"(prefix {args.prefix!r})", file=sys.stderr)
        sys.exit(2)

    width = max(len(r[0]) for r in rows)
    for name, b, c, verdict in rows:
        cur_txt = "missing" if c is None else f"{c:12.6f}"
        print(f"  {name:<{width}}  base {b:12.6f}  now {cur_txt}  {verdict}")

    if regressions:
        print(f"bench_compare: FAIL: {len(regressions)} regression(s):",
              file=sys.stderr)
        for r in regressions:
            print(f"  {r}", file=sys.stderr)
        sys.exit(1)
    print(f"bench_compare: OK: {len(rows)} gauges within "
          f"{args.tolerance:.0%} of baseline")


if __name__ == "__main__":
    main()
