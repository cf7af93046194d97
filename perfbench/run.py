#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark package (perfbench/) is built
with CMake together with the Mercury sources in src/, into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The benchmark
program prints every metric with its unit; the last line of this script's
standard output is one JSON object {"correct", "attempted", "failed",
"metrics"}, whose metric names and units are checked against BENCHMARK.json.
"""
import argparse
import fcntl
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PKG = ROOT / "perfbench"
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(target):
    """Configure once, then build `target`; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"Mercury sources not found under {ROOT / 'src'}")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(out / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per tree
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(PKG), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "-j", jobs,
                      "--target", target])
        for cmd in steps:
            r = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True,
                               timeout=BUILD_TIMEOUT_S)
            if r.returncode != 0:
                sys.stderr.write(r.stdout[-4000:])
                fail(f"build step failed: {' '.join(cmd)}")
    return out / target


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        sys.exit(subprocess.run([str(binary)], timeout=900).returncode)

    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0:
        fail("--seed must be non-negative")
    expected = expected_metrics(args.trace)
    binary = build("mercury_perfbench")
    out_dir = build_dir() / "out"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", f"{args.seconds:g}", "--trace", str(args.trace),
           "--out-dir", str(out_dir)]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=args.seconds + 150)
    # The simulator logs every rollback to stderr; keep it beside the run.
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"stderr-{args.workload}-seed{args.seed}.log").write_text(r.stderr)
    lines = r.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(r.stderr[-4000:])
        fail(f"benchmark exited {r.returncode} without a result")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        fail("metric names or units differ from BENCHMARK.json: "
             f"missing {sorted(set(expected) - set(got))}, "
             f"unexpected {sorted(set(got) - set(expected))}, "
             f"unit mismatches {sorted(k for k in got if k in expected and got[k] != expected[k])}")
    print("\n".join(lines))
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
