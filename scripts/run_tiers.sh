#!/usr/bin/env bash
# Build and run the Mercury test tiers.
#
#   scripts/run_tiers.sh [tier1|tier2|stress|soak|profile|depend|obsoff|asan|ubsan|tsan|all]
#
#   tier1  - the fast regression suite (default; every unit/integration test)
#   tier2  - the dependability sweeps: fault matrix + seeded switch fuzzer
#   stress - the tests that write postmortem bundles, 8 processes at a
#            time, repeated until one fails (at most 20 rounds): a test
#            that passes serially but fails in parallel is a bug
#   soak   - the chaos soak: hundreds of supervised switch cycles under a
#            seeded fault storm (ctest -L soak; each test fails on its
#            verdict's gates), writing mercury.soak.v1 verdicts to
#            build/soak-artifacts/ and checking their structure with
#            scripts/check_bench_json.py --schema soak
#   profile - bench_soak with the engine profiler and cluster time-series
#            enabled (it exits non-zero when a gate of the single-machine
#            or the fleet soak verdict fails), writing mercury.timeseries.v1
#            / mercury.profile.v1 / mercury.soak.v1 to
#            build/profile-artifacts/ and checking the structure of all
#            three with scripts/check_bench_json.py
#   depend - the dependability tier: bench_depend runs the three service
#            arcs (live-update, checkpoint-restart, migrate) clean and
#            under a fault storm and exits non-zero when an arc gate of
#            either run fails, writes mercury.depend.v1 verdicts to
#            build/depend-artifacts/, checks their structure with
#            scripts/check_bench_json.py --schema depend, validates the
#            Chrome trace with --schema chrome, renders the verdicts via
#            scripts/blackbox_report.py, and gates the clean window/downtime
#            gauges against BENCH_depend.json with scripts/bench_compare.py
#   obsoff - tier1 with -DMERCURY_OBS=OFF (build-obsoff/), then diff the
#            CYCLE_IDENTITY probe lines against the normal build: telemetry
#            must compile away without moving a single simulated cycle. The
#            normal build's lines must also equal the committed
#            tests/cycle_identity.golden, so a host-side change cannot move
#            a simulated cycle in both builds alike
#   asan   - full suite under AddressSanitizer  (build-asan/)
#   ubsan  - full suite under UBSanitizer       (build-ubsan/)
#   tsan   - the switch-path tests under ThreadSanitizer (build-tsan/):
#            rendezvous, crews, engine, supervisor, and the soak — the
#            code that would race first if a threaded driver ever lands
#   all    - every tier above: tier1, tier2 + soak, stress, soak, profile,
#            depend, obsoff, then all three sanitizer suites
#
# Seeded tests print MERCURY_TEST_SEED=<n> on start; export that variable to
# replay a failure exactly (see TESTING.md).
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
# An empty test selection is an error, not a pass.
CTEST_FLAGS=(--output-on-failure --no-tests=error -j "$JOBS")

configure_and_build() {
  local dir="$1"; shift
  # Fail fast on configure errors: a failed configure leaves a stale (or
  # half-written) CMakeCache that a subsequent --build could silently reuse,
  # and the quiet stdout redirect would hide what went wrong.
  if ! cmake -S . -B "$dir" -DCMAKE_BUILD_TYPE=RelWithDebInfo "$@" >/dev/null; then
    echo "run_tiers: cmake configure failed for $dir/" >&2
    echo "run_tiers: rerun verbosely: cmake -S . -B $dir $*" >&2
    exit 1
  fi
  cmake --build "$dir" -j "$JOBS"
}

run_label() {
  local dir="$1" label="$2"
  ctest --test-dir "$dir" -L "$label" "${CTEST_FLAGS[@]}"
}

run_sanitizer() {
  local kind="$1"  # address | undefined | thread
  local dir="build-${kind}"
  [[ $kind == address ]] && dir=build-asan
  [[ $kind == undefined ]] && dir=build-ubsan
  [[ $kind == thread ]] && dir=build-tsan
  configure_and_build "$dir" -DMERCURY_SANITIZE="$kind"
  if [[ $kind == thread ]]; then
    # TSan covers the switch path: rendezvous/crew/engine (SwitchEngine),
    # stress, supervisor, fuzz, and the chaos soak. The rest of the suite is
    # single-threaded by construction and just slows the job down.
    ctest --test-dir "$dir" -R 'Switch' "${CTEST_FLAGS[@]}"
  else
    ctest --test-dir "$dir" "${CTEST_FLAGS[@]}"
  fi
}

# The obs-off guard: the interval stream, MERC_FLIGHT and metrics must be
# free when compiled out, and — because instrumentation never cpu.charge()s —
# the *simulated* switch cost must be identical with them compiled in. The
# CycleIdentityProbe tests print that cost; the same lines from both builds
# must match exactly.
cycle_identity_of() {
  local dir="$1" bin="$2"
  "$dir"/tests/"$bin" --gtest_filter='*CycleIdentityProbe*' \
    --gtest_brief=1 | grep '^CYCLE_IDENTITY'
}

check_cycle_identity() {
  local bin="$1"
  local on off
  on="$(cycle_identity_of build "$bin")"
  off="$(cycle_identity_of build-obsoff "$bin")"
  if [[ "$on" != "$off" ]]; then
    echo "run_tiers: FAIL: $bin cycle counts differ between MERCURY_OBS=ON and OFF" >&2
    diff <(echo "$on") <(echo "$off") >&2 || true
    exit 1
  fi
  echo "$on"
}

# Obs-on against obs-off cannot see a cycle that moved in both builds; the
# committed golden file pins the simulated clock itself.
CYCLE_GOLDEN=tests/cycle_identity.golden

run_obsoff() {
  configure_and_build build
  configure_and_build build-obsoff -DMERCURY_OBS=OFF
  run_label build-obsoff tier1
  # The switch path, the dependability services (checkpoint/restore/
  # migrate carry interval and flight hooks that must stay weightless, and
  # the update and checkpoint arcs read their downtime from the ledger), the
  # two-kernel netperf run on the shared stepper, and the file path (dbench
  # through the guest and backend block caches).
  local lines
  lines="$(check_cycle_identity core_switch_test
           check_cycle_identity checkpoint_restore_test
           check_cycle_identity kernel_net_test
           check_cycle_identity workloads_test)"
  if ! diff <(echo "$lines") "$CYCLE_GOLDEN" >&2; then
    echo "run_tiers: FAIL: CYCLE_IDENTITY lines differ from $CYCLE_GOLDEN" >&2
    exit 1
  fi
  echo "run_tiers: obsoff OK — cycle identity holds and matches $CYCLE_GOLDEN:"
  echo "$lines"
}

# Every test that writes postmortem bundles, in parallel and repeated: the
# bundles of concurrent processes must never collide.
run_stress() {
  configure_and_build build
  ctest --test-dir build --output-on-failure --no-tests=error \
    --repeat until-fail:20 -j 8 -R "FaultMatrix|DependFault|Supervisor|Soak"
}

# The chaos soak: run the soak-labelled tests with MERCURY_SOAK_JSON pointed
# at an artifact directory (the tests fail on SoakReport::gate_failures():
# unresolved requests, invariant violations, workload corruption or
# non-convergence), then check the structure of every verdict emitted.
run_soak() {
  configure_and_build build
  local art="$PWD/build/soak-artifacts"
  mkdir -p "$art"
  rm -f "$art"/*.json
  MERCURY_SOAK_JSON="$art/" ctest --test-dir build -L soak "${CTEST_FLAGS[@]}"
  local found=0
  for verdict in "$art"/*.json; do
    [[ -e $verdict ]] || break
    python3 scripts/check_bench_json.py "$verdict" --schema soak \
      --require switch.supervisor.attempts
    found=1
  done
  if [[ $found -eq 0 ]]; then
    echo "run_tiers: FAIL: the soak run emitted no mercury.soak.v1 verdicts" >&2
    exit 1
  fi
}

# The observability plane end-to-end: run bench_soak with the cluster soak
# and engine profiler attached, then check the structure of the three
# artifacts it writes. Fails if the bench fails (a gate of either soak
# verdict failed), an artifact is missing, or any document violates its
# schema.
run_profile() {
  configure_and_build build
  local art="$PWD/build/profile-artifacts"
  mkdir -p "$art"
  rm -f "$art"/*.json
  build/bench/bench_soak \
    --soak-json "$art/soak.json" \
    --timeseries-json "$art/timeseries.json" \
    --profile-json "$art/profile.json"
  python3 scripts/check_bench_json.py "$art/soak.json" --schema soak
  # The fleet verdict also carries nodes[], its per-node rollups.
  python3 scripts/check_bench_json.py "$art/soak.json.fleet.json" \
    --schema soak
  python3 scripts/check_bench_json.py "$art/timeseries.json" \
    --schema timeseries
  python3 scripts/check_bench_json.py "$art/profile.json" --schema profile
  echo "run_tiers: profile OK — artifacts in $art/"
}

# The dependability tier: the three arcs end-to-end, clean and under a 5%
# storm. bench_depend's exit code is both runs' arc gates; the documents'
# structure is checked, and the clean-run window decomposition is gated
# against the committed baseline.
run_depend() {
  configure_and_build build
  local art="$PWD/build/depend-artifacts"
  mkdir -p "$art"
  rm -f "$art"/*.json
  build/bench/bench_depend \
    --depend-json "$art/depend.json" \
    --depend-storm-json "$art/depend-storm.json" \
    --metrics-json "$art/metrics.json"
  python3 scripts/check_bench_json.py "$art/depend.json" --schema depend
  python3 scripts/check_bench_json.py "$art/depend-storm.json" --schema depend
  python3 scripts/check_bench_json.py "$art/metrics.json"
  python3 scripts/check_bench_json.py "$art/metrics.json.trace.json" \
    --schema chrome --require switch.attach --require switch.detach
  python3 scripts/blackbox_report.py "$art/depend-storm.json"
  python3 scripts/bench_compare.py BENCH_depend.json "$art/metrics.json" \
    --prefix bench.depend.
  echo "run_tiers: depend OK — artifacts in $art/"
}

mode="${1:-tier1}"
case "$mode" in
  tier1)
    configure_and_build build
    run_label build tier1
    ;;
  tier2)
    # -L is a regex: the chaos soak (label "soak") rides along with the
    # dependability sweeps.
    configure_and_build build
    run_label build "tier2|soak"
    ;;
  stress)
    run_stress
    ;;
  soak)
    run_soak
    ;;
  profile)
    run_profile
    ;;
  depend)
    run_depend
    ;;
  obsoff)
    run_obsoff
    ;;
  asan)
    run_sanitizer address
    ;;
  ubsan)
    run_sanitizer undefined
    ;;
  tsan)
    run_sanitizer thread
    ;;
  all)
    configure_and_build build
    run_label build tier1
    run_label build "tier2|soak"
    run_stress
    run_soak
    run_profile
    run_depend
    run_obsoff
    run_sanitizer address
    run_sanitizer undefined
    run_sanitizer thread
    ;;
  *)
    echo "usage: $0 [tier1|tier2|stress|soak|profile|depend|obsoff|asan|ubsan|tsan|all]" >&2
    exit 2
    ;;
esac
