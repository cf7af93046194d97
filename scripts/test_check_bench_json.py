#!/usr/bin/env python3
"""Unit tests for the stdlib JSON tooling: check_bench_json.py (both
schemas), bench_compare.py, and blackbox_report.py.

Run directly (`python3 scripts/test_check_bench_json.py`) or via ctest
(`ctest -L tier1 -R py_json_tools`). Stdlib-only: unittest + json.
"""

import copy
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_compare  # noqa: E402
import blackbox_report  # noqa: E402
import check_bench_json as cbj  # noqa: E402


def metrics_doc():
    return {
        "schema": "mercury.metrics.v1",
        "counters": [
            {"name": "switch.attach.count", "value": 4},
            {"name": "switch.rollbacks", "label": "engine", "value": 1},
        ],
        "gauges": [
            {"name": "bench.modeswitch.up.mem_kb=1024.attach_ms",
             "value": 1.25},
            {"name": "bench.modeswitch.up.mem_kb=1024.detach_ms",
             "value": 0.75},
            {"name": "bench.modeswitch.crew_speedup_largest_mem",
             "value": 3.1},
            {"name": "obs.flight.recorded", "value": 512},
            {"name": "bench.modeswitch.warm.mem_kb=921600.cold_attach_ms",
             "value": 16.0},
            {"name": "bench.modeswitch.warm.mem_kb=921600.warm_attach_ms",
             "value": 0.8},
            {"name": "bench.modeswitch.warm.mem_kb=921600.dirty_frames",
             "value": 359},
            {"name": "bench.modeswitch.warm_reattach_speedup",
             "value": 19.9},
            {"name": "bench.modeswitch.up.mem_kb=1024."
                     "rendezvous-parked.pause_p50_us", "value": 1.5},
            {"name": "bench.modeswitch.up.mem_kb=1024."
                     "rendezvous-parked.pause_p99_us", "value": 3.2},
            {"name": "bench.modeswitch.up.mem_kb=1024."
                     "rendezvous-parked.pause_worst_us", "value": 4.0},
        ],
        "histograms": [
            {"name": "switch.attach.total_cycles", "count": 4, "sum": 400.0,
             "min": 50.0, "mean": 100.0, "max": 200.0,
             "p50": 90.0, "p90": 150.0, "p99": 200.0},
            {"name": "empty.hist", "count": 0, "sum": 0, "min": 0,
             "mean": 0, "max": 0, "p50": 0, "p90": 0, "p99": 0},
        ],
    }


def flight_event(seq, cpu=0, cycles=3000, type_="phase.begin",
                 name="switch.attach.total_cycles", args=(0, 0, 0)):
    return {"seq": seq, "cpu": cpu, "cycles": cycles, "type": type_,
            "name": name, "args": list(args)}


def postmortem_doc():
    return {
        "schema": "mercury.postmortem.v1",
        "reason": "fault-rollback",
        "detail": "fault at vmm.adopt_protect during attach",
        "switch": {"from": "native", "target": "full-virtual"},
        "fault": {"site": "vmm.adopt_protect", "kind": "fail", "cpu": 2},
        "active_refs": 0,
        "cpu_clocks": [
            {"cpu": 0, "cycles": 9000000},
            {"cpu": 1, "cycles": 9000000},
        ],
        "flight": {
            "recorded": 8,
            "dropped": 0,
            "events": [
                flight_event(1, 0, 3000, "switch.request", "attach"),
                # Interval records carry their IntervalKind in arg0: 0 is
                # the attach commit, 5 a crew phase, 6 a crew shard.
                flight_event(2, 0, 6000, "phase.begin", "switch.attach",
                             (0, 0, 1)),
                flight_event(3, 0, 9000, "refcount.retry", "attach",
                             (2, 1, 0)),
                flight_event(4, 0, 12000, "phase.begin",
                             "switch.crew.rebuild", (5, 64, 8)),
                flight_event(5, 1, 10500, "phase.begin",
                             "switch.crew.rebuild", (6, 0, 8)),
                flight_event(6, 1, 15000, "phase.end", "switch.crew.rebuild",
                             (6, 4500, 0)),
                flight_event(7, 0, 21000, "phase.end", "switch.crew.rebuild",
                             (5, 9000, 0)),
                flight_event(8, 2, 24000, "fault.hit", "vmm.adopt_protect",
                             (4, 0, 1)),
            ],
        },
        "metrics": metrics_doc(),
        "extra": [{"name": "page_info.shard_count", "value": 8}],
    }


def soak_doc():
    return {
        "schema": "mercury.soak.v1",
        "seed": 1234,
        "cpus": 4,
        "planned_cycles": 200,
        "storm": {"rate": 0.05, "burst": 2, "decay": 0.97, "fires": 63,
                  "windows": 101},
        "requests": {"submitted": 250, "committed": 40, "failed_deadline": 0,
                     "failed_attempts": 46, "failed_quarantined": 164,
                     "cancelled": 0, "unresolved": 0},
        "supervisor": {"attempts": 103, "retries": 15, "backoffs": 15,
                       "quarantines": 2, "recoveries": 2, "probes": 48,
                       "final_health": "healthy"},
        "engine": {"rollbacks": 63, "cancels": 0},
        "invariants": {"checks": 200, "violations": 0},
        "availability": {"fraction": 0.958, "interruptions": 36,
                         "downtime_cycles": 271820325,
                         "span_cycles": 6444303519},
        "workload": {"ops": 52862, "bytes": 108261376, "corruptions": 0},
        "pause": {"intervals": 112, "unattributed": 0,
                  "worst_cycles": 41900, "worst_cause": "rendezvous-parked"},
        "converged": True,
        "final_mode": "native",
        "metrics": metrics_doc(),
    }


def soak_node():
    return {
        "name": "n0",
        "submitted": 8,
        "committed": 8,
        "failed": 0,
        "retries": 0,
        "quarantines": 0,
        "availability": 0.99,
        "interruptions": 8,
        "downtime_cycles": 1183727,
        "span_cycles": 121216327,
        "pause_intervals": 14,
        "pause_unattributed": 0,
        "pause_worst_cycles": 9000,
        "pause_worst_cause": "tlb-shootdown",
        "final_health": "healthy",
        "final_mode": "native",
    }


def pause_cause(name, count=0, total=0, p50=0, p99=0, mx=0):
    return {"name": name, "count": count, "total_cycles": total,
            "p50": p50, "p99": p99, "max": mx}


def pause_doc():
    return {
        "schema": "mercury.pause.v1",
        "intervals": 5,
        "unattributed": 0,
        "worst": {"cause": "rendezvous-parked", "cpu": 2, "begin": 3000,
                  "end": 11000, "span": 8000, "detail": "switch.attach",
                  "flight_seq": 17},
        # Every cause the ledger knows, with counts on the two active ones:
        # the validator rejects a ledger missing any canonical cause.
        "causes": [
            pause_cause("rendezvous-parked", 4, 20000, 4095, 8191, 8000),
            pause_cause("crew-shard-work", 1, 600, 1023, 1023, 600),
        ] + [
            pause_cause(n) for n in cbj.PAUSE_CAUSES
            if n not in ("rendezvous-parked", "crew-shard-work")
        ],
        "cpus": [{"cpu": 0, "total_cycles": 3000},
                 {"cpu": 2, "total_cycles": 17600}],
        "flight": {
            "events": [
                flight_event(16, 2, 3000, "pause.begin",
                             "rendezvous-parked"),
                flight_event(17, 2, 11000, "pause.worst",
                             "rendezvous-parked", (8000, 0, 0)),
                flight_event(18, 0, 12000, "pause.begin",
                             "crew-shard-work"),
            ],
        },
    }


def timeseries_doc():
    return {
        "schema": "mercury.timeseries.v1",
        "interval_cycles": 3000600,
        "capacity": 256,
        "samples": 42,
        "dropped": 0,
        "series": [
            {"name": "switch.committed", "label": "node=n0",
             "points": [[0, 0.0], [3000600, 1.0], [6001200, 1.0]]},
            {"name": "fleet.inflight", "label": "",
             "points": [[0, 0.0], [3000600, 4.0]]},
        ],
    }


def profile_doc():
    return {
        "schema": "mercury.profile.v1",
        "enabled": True,
        "wall_ns_total": 100000000,
        "events_total": 3012,
        # switch.commit runs inside kernel.step.timer: the timer's wall_ns
        # includes it, its self_ns does not.
        "buckets": [
            {"name": "kernel.step.timer", "count": 2816,
             "wall_ns": 100000000, "self_ns": 76543211,
             "sim_cycles": 4000000, "wall_fraction": 0.765432},
            {"name": "switch.commit", "count": 196, "wall_ns": 23456789,
             "self_ns": 23456789, "sim_cycles": 9000000,
             "wall_fraction": 0.234568},
        ],
    }


def depend_arc(service="live-update", **over):
    arc = {
        "service": service,
        "success": True,
        "quarantined": False,
        "rolled_back": False,
        "verified": True,
        "postmortem_written": False,
        "attempts": 1,
        "retries": 0,
        "faults": 0,
        "switch_attempts": 2,
        "switch_retries": 0,
        "stranded_requests": 0,
        "invariant_violations": 0,
        "window_cycles": 30494627,
        "attach_cycles": 30032892,
        "service_cycles": 450000,
        "detach_cycles": 488923,
        "downtime_cycles": 880,
        "pages_sent": 0,
        "pages_total": 0,
        "precopy_rounds": 0,
        "pause": {
            "intervals": 8,
            "unattributed": 0,
            "rendezvous_cycles": 880,
            "stopcopy_cycles": 0,
            "checkpoint_cycles": 0,
            "backoff_cycles": 0,
            "rollback_cycles": 0,
        },
    }
    arc.update(over)
    return arc


def depend_doc():
    return {
        "schema": "mercury.depend.v1",
        "seed": 3734902746,
        "storm_rate": 0.05,
        "storm_fires": 2,
        "arcs": [
            depend_arc("live-update"),
            depend_arc(
                "migrate",
                window_cycles=511321040,
                service_cycles=460313446,
                downtime_cycles=120000,
                pages_sent=17000,
                pages_total=16384,
                precopy_rounds=2,
            ),
        ],
    }


def chrome_doc():
    # A switch span, a zero-length interval exported as an instant, and a
    # point event, as the flight-ring export writes them.
    return {
        "displayTimeUnit": "ms",
        "traceEvents": [
            {"name": "switch.attach", "cat": "switch", "ph": "X",
             "ts": 1.0, "dur": 239.5, "pid": 0, "tid": 0,
             "args": {"seq": 7, "trace": 3, "span": 4, "parent": 0}},
            {"name": "vmm.tlb_shootdown_all", "cat": "vmm", "ph": "i",
             "s": "t", "ts": 2.0, "pid": 0, "tid": 1,
             "args": {"seq": 5, "trace": 3, "span": 6, "parent": 4}},
            {"name": "switch.refcount_retry", "cat": "refcount.retry",
             "ph": "i", "s": "t", "ts": 240.5, "pid": 2, "tid": 0,
             "args": {"seq": 9}},
        ],
    }


class MetricsSchemaTest(unittest.TestCase):
    def test_valid_doc_returns_names(self):
        names = cbj.validate_metrics(metrics_doc())
        self.assertIn("switch.attach.count", names)
        self.assertIn("switch.attach.total_cycles", names)
        self.assertIn("obs.flight.recorded", names)

    def test_warm_reattach_gauges_are_requirable(self):
        # The CI bench gate passes these as --require flags; the names the
        # validator returns are what that presence check runs against.
        names = cbj.validate_metrics(metrics_doc())
        self.assertIn("bench.modeswitch.warm_reattach_speedup", names)
        self.assertIn("bench.modeswitch.warm.mem_kb=921600.warm_attach_ms",
                      names)
        self.assertIn("bench.modeswitch.warm.mem_kb=921600.cold_attach_ms",
                      names)

    def test_wrong_schema_string(self):
        doc = metrics_doc()
        doc["schema"] = "mercury.metrics.v2"
        with self.assertRaisesRegex(cbj.SchemaError, "schema"):
            cbj.validate_metrics(doc)

    def test_missing_section(self):
        doc = metrics_doc()
        del doc["gauges"]
        with self.assertRaisesRegex(cbj.SchemaError, "gauges"):
            cbj.validate_metrics(doc)

    def test_non_numeric_value(self):
        doc = metrics_doc()
        doc["counters"][0]["value"] = "4"
        with self.assertRaisesRegex(cbj.SchemaError, "not a number"):
            cbj.validate_metrics(doc)

    def test_bool_is_not_a_number(self):
        doc = metrics_doc()
        doc["gauges"][0]["value"] = True
        with self.assertRaises(cbj.SchemaError):
            cbj.validate_metrics(doc)

    def test_non_monotonic_quantiles(self):
        doc = metrics_doc()
        doc["histograms"][0]["p90"] = 500.0  # p90 > p99
        with self.assertRaisesRegex(cbj.SchemaError, "quantiles"):
            cbj.validate_metrics(doc)

    def test_mean_outside_min_max(self):
        doc = metrics_doc()
        doc["histograms"][0]["mean"] = 1000.0
        with self.assertRaisesRegex(cbj.SchemaError, "mean"):
            cbj.validate_metrics(doc)

    def test_empty_histogram_skips_ordering_checks(self):
        cbj.validate_metrics(metrics_doc())  # empty.hist has count == 0


class PostmortemSchemaTest(unittest.TestCase):
    def test_valid_bundle(self):
        names = cbj.validate_postmortem(postmortem_doc())
        self.assertIn("switch.rollbacks", names)  # embedded metrics names

    def test_fault_section_optional(self):
        doc = postmortem_doc()
        del doc["fault"]
        cbj.validate_postmortem(doc)

    def test_empty_flight_tail_is_valid(self):
        # Obs-off builds still dump bundles, with zero flight events.
        doc = postmortem_doc()
        doc["flight"] = {"recorded": 0, "dropped": 0, "events": []}
        cbj.validate_postmortem(doc)

    def test_missing_reason(self):
        doc = postmortem_doc()
        doc["reason"] = ""
        with self.assertRaisesRegex(cbj.SchemaError, "reason"):
            cbj.validate_postmortem(doc)

    def test_non_increasing_seq(self):
        doc = postmortem_doc()
        doc["flight"]["events"][3]["seq"] = 2  # duplicates event 2's seq
        with self.assertRaisesRegex(cbj.SchemaError, "strictly increasing"):
            cbj.validate_postmortem(doc)

    def test_bad_flight_args(self):
        doc = postmortem_doc()
        doc["flight"]["events"][0]["args"] = [1, 2]
        with self.assertRaisesRegex(cbj.SchemaError, "3 numbers"):
            cbj.validate_postmortem(doc)

    def test_fault_without_cpu(self):
        doc = postmortem_doc()
        del doc["fault"]["cpu"]
        with self.assertRaisesRegex(cbj.SchemaError, "fault.cpu"):
            cbj.validate_postmortem(doc)

    def test_embedded_metrics_validated(self):
        doc = postmortem_doc()
        doc["metrics"]["histograms"][0]["p90"] = 500.0
        with self.assertRaisesRegex(cbj.SchemaError, "quantiles"):
            cbj.validate_postmortem(doc)

    def test_missing_embedded_metrics(self):
        doc = postmortem_doc()
        del doc["metrics"]
        with self.assertRaisesRegex(cbj.SchemaError, "metrics"):
            cbj.validate_postmortem(doc)


class SoakSchemaTest(unittest.TestCase):
    def test_valid_verdict(self):
        names = cbj.validate_soak(soak_doc())
        self.assertIn("switch.rollbacks", names)  # embedded metrics names

    def test_wrong_schema_string(self):
        doc = soak_doc()
        doc["schema"] = "mercury.soak.v2"
        with self.assertRaisesRegex(cbj.SchemaError, "schema"):
            cbj.validate_soak(doc)

    def test_missing_section(self):
        doc = soak_doc()
        del doc["supervisor"]
        with self.assertRaisesRegex(cbj.SchemaError, "supervisor"):
            cbj.validate_soak(doc)

    def test_missing_section_field(self):
        doc = soak_doc()
        del doc["requests"]["unresolved"]
        with self.assertRaisesRegex(cbj.SchemaError, "unresolved"):
            cbj.validate_soak(doc)

    def test_non_numeric_field(self):
        doc = soak_doc()
        doc["storm"]["fires"] = "63"
        with self.assertRaisesRegex(cbj.SchemaError, "storm.fires"):
            cbj.validate_soak(doc)

    def test_gate_unresolved_requests(self):
        doc = soak_doc()
        doc["requests"]["unresolved"] = 3
        with self.assertRaisesRegex(cbj.SchemaError, "stranded"):
            cbj.validate_soak(doc)

    def test_gate_invariant_violations(self):
        doc = soak_doc()
        doc["invariants"]["violations"] = 1
        with self.assertRaisesRegex(cbj.SchemaError, "invariant"):
            cbj.validate_soak(doc)

    def test_gate_workload_corruption(self):
        doc = soak_doc()
        doc["workload"]["corruptions"] = 2
        with self.assertRaisesRegex(cbj.SchemaError, "corruption"):
            cbj.validate_soak(doc)

    def test_gate_not_converged(self):
        doc = soak_doc()
        doc["converged"] = False
        with self.assertRaisesRegex(cbj.SchemaError, "converge"):
            cbj.validate_soak(doc)

    def test_converged_must_be_boolean(self):
        doc = soak_doc()
        doc["converged"] = 1  # truthy is not good enough
        with self.assertRaisesRegex(cbj.SchemaError, "boolean"):
            cbj.validate_soak(doc)

    def test_availability_fraction_bounded(self):
        doc = soak_doc()
        doc["availability"]["fraction"] = 1.2
        with self.assertRaisesRegex(cbj.SchemaError, "fraction"):
            cbj.validate_soak(doc)

    def test_gate_unattributed_pause(self):
        doc = soak_doc()
        doc["pause"]["unattributed"] = 2
        with self.assertRaisesRegex(cbj.SchemaError, "unattributed"):
            cbj.validate_soak(doc)

    def test_missing_pause_section(self):
        doc = soak_doc()
        del doc["pause"]
        with self.assertRaisesRegex(cbj.SchemaError, "pause"):
            cbj.validate_soak(doc)

    def test_pause_worst_cause_must_be_named(self):
        # "none" is the no-intervals sentinel; empty is a serializer bug.
        doc = soak_doc()
        doc["pause"]["worst_cause"] = ""
        with self.assertRaisesRegex(cbj.SchemaError, "worst_cause"):
            cbj.validate_soak(doc)

    def test_quarantined_final_health_is_not_gated(self):
        # Clean quarantine converges: degraded-to-native is a pass.
        doc = soak_doc()
        doc["supervisor"]["final_health"] = "quarantined"
        cbj.validate_soak(doc)

    def test_embedded_metrics_validated(self):
        doc = soak_doc()
        doc["metrics"]["histograms"][0]["p90"] = 500.0
        with self.assertRaisesRegex(cbj.SchemaError, "quantiles"):
            cbj.validate_soak(doc)

    def test_missing_embedded_metrics(self):
        doc = soak_doc()
        del doc["metrics"]
        with self.assertRaisesRegex(cbj.SchemaError, "metrics"):
            cbj.validate_soak(doc)


class SoakNodesSectionTest(unittest.TestCase):
    def test_nodes_section_optional(self):
        cbj.validate_soak(soak_doc())  # no nodes at all

    def test_valid_nodes_section(self):
        doc = soak_doc()
        doc["nodes"] = [soak_node(), dict(soak_node(), name="n1")]
        cbj.validate_soak(doc)

    def test_empty_nodes_array_rejected(self):
        doc = soak_doc()
        doc["nodes"] = []
        with self.assertRaisesRegex(cbj.SchemaError, "nodes"):
            cbj.validate_soak(doc)

    def test_node_missing_numeric_field(self):
        doc = soak_doc()
        node = soak_node()
        del node["retries"]
        doc["nodes"] = [node]
        with self.assertRaisesRegex(cbj.SchemaError, "retries"):
            cbj.validate_soak(doc)

    def test_node_missing_name(self):
        doc = soak_doc()
        node = soak_node()
        node["name"] = ""
        doc["nodes"] = [node]
        with self.assertRaisesRegex(cbj.SchemaError, "name"):
            cbj.validate_soak(doc)

    def test_node_availability_bounded(self):
        doc = soak_doc()
        node = soak_node()
        node["availability"] = -0.8
        doc["nodes"] = [node]
        with self.assertRaisesRegex(cbj.SchemaError, "availability"):
            cbj.validate_soak(doc)

    def test_node_missing_pause_field(self):
        doc = soak_doc()
        node = soak_node()
        del node["pause_intervals"]
        doc["nodes"] = [node]
        with self.assertRaisesRegex(cbj.SchemaError, "pause_intervals"):
            cbj.validate_soak(doc)

    def test_node_gate_unattributed_pause(self):
        doc = soak_doc()
        node = soak_node()
        node["pause_unattributed"] = 1
        doc["nodes"] = [node]
        with self.assertRaisesRegex(cbj.SchemaError, "unattributed"):
            cbj.validate_soak(doc)

    def test_node_missing_pause_worst_cause(self):
        doc = soak_doc()
        node = soak_node()
        node["pause_worst_cause"] = ""
        doc["nodes"] = [node]
        with self.assertRaisesRegex(cbj.SchemaError, "pause_worst_cause"):
            cbj.validate_soak(doc)


class PauseSchemaTest(unittest.TestCase):
    def test_valid_doc_returns_cause_names(self):
        names = cbj.validate_pause(pause_doc())
        self.assertEqual(names, set(cbj.PAUSE_CAUSES))

    def test_wrong_schema_string(self):
        doc = pause_doc()
        doc["schema"] = "mercury.pause.v2"
        with self.assertRaisesRegex(cbj.SchemaError, "schema"):
            cbj.validate_pause(doc)

    def test_gate_unattributed_intervals(self):
        doc = pause_doc()
        doc["unattributed"] = 1
        with self.assertRaisesRegex(cbj.SchemaError, "pairing bug"):
            cbj.validate_pause(doc)

    def test_silent_cause_must_still_be_listed(self):
        # Every cause appears even at zero count; a missing row means the
        # emitter and the attribution table disagree about the cause set.
        doc = pause_doc()
        doc["causes"] = [c for c in doc["causes"]
                         if c["name"] != "rollback-unwind"]
        with self.assertRaisesRegex(cbj.SchemaError, "rollback-unwind"):
            cbj.validate_pause(doc)

    def test_empty_ledger_is_valid(self):
        # An obs-on run with no pauses: zero counts, worst cause "none".
        doc = pause_doc()
        doc["intervals"] = 0
        doc["worst"] = {"cause": "none", "cpu": 0, "begin": 0, "end": 0,
                        "span": 0, "detail": "", "flight_seq": 0}
        doc["causes"] = [pause_cause(n) for n in cbj.PAUSE_CAUSES]
        doc["cpus"] = []
        doc["flight"] = {"events": []}
        cbj.validate_pause(doc)

    def test_worst_span_must_match_bounds(self):
        doc = pause_doc()
        doc["worst"]["span"] = 7999
        with self.assertRaisesRegex(cbj.SchemaError, "span"):
            cbj.validate_pause(doc)

    def test_worst_inverted_interval_rejected(self):
        doc = pause_doc()
        doc["worst"]["end"] = doc["worst"]["begin"] - 1
        with self.assertRaisesRegex(cbj.SchemaError, "before it begins"):
            cbj.validate_pause(doc)

    def test_empty_worst_cause_rejected(self):
        doc = pause_doc()
        doc["worst"]["cause"] = ""
        with self.assertRaisesRegex(cbj.SchemaError, "worst.cause"):
            cbj.validate_pause(doc)

    def test_p50_above_p99_rejected(self):
        doc = pause_doc()
        doc["causes"][0]["p50"] = doc["causes"][0]["p99"] + 1
        with self.assertRaisesRegex(cbj.SchemaError, "p50 > p99"):
            cbj.validate_pause(doc)

    def test_p99_bucket_bound_may_exceed_exact_max(self):
        # p50/p99 are log2-bucket upper bounds while max is exact, so
        # p99 > max is legitimate (8191 > 8000 in the fixture already).
        doc = pause_doc()
        self.assertGreater(doc["causes"][0]["p99"], doc["causes"][0]["max"])
        cbj.validate_pause(doc)

    def test_cycles_without_intervals_rejected(self):
        doc = pause_doc()
        doc["causes"][2]["total_cycles"] = 500  # tlb-shootdown has count 0
        with self.assertRaisesRegex(cbj.SchemaError, "zero intervals"):
            cbj.validate_pause(doc)

    def test_non_increasing_flight_seq(self):
        doc = pause_doc()
        doc["flight"]["events"][2]["seq"] = 17
        with self.assertRaisesRegex(cbj.SchemaError, "strictly increasing"):
            cbj.validate_pause(doc)


class TimeseriesSchemaTest(unittest.TestCase):
    def test_valid_doc_returns_series_names(self):
        names = cbj.validate_timeseries(timeseries_doc())
        self.assertIn("switch.committed", names)
        self.assertIn("fleet.inflight", names)

    def test_wrong_schema_string(self):
        doc = timeseries_doc()
        doc["schema"] = "mercury.timeseries.v2"
        with self.assertRaisesRegex(cbj.SchemaError, "schema"):
            cbj.validate_timeseries(doc)

    def test_missing_interval(self):
        doc = timeseries_doc()
        del doc["interval_cycles"]
        with self.assertRaisesRegex(cbj.SchemaError, "interval_cycles"):
            cbj.validate_timeseries(doc)

    def test_empty_series_rejected(self):
        doc = timeseries_doc()
        doc["series"] = []
        with self.assertRaisesRegex(cbj.SchemaError, "series"):
            cbj.validate_timeseries(doc)

    def test_non_string_label_rejected(self):
        doc = timeseries_doc()
        doc["series"][0]["label"] = 7
        with self.assertRaisesRegex(cbj.SchemaError, "label"):
            cbj.validate_timeseries(doc)

    def test_empty_points_allowed(self):
        # A series that never got sampled still names itself.
        doc = timeseries_doc()
        doc["series"][0]["points"] = []
        cbj.validate_timeseries(doc)

    def test_malformed_point_rejected(self):
        doc = timeseries_doc()
        doc["series"][0]["points"][1] = [3000600]  # missing the value
        with self.assertRaisesRegex(cbj.SchemaError, r"\[t, value\]"):
            cbj.validate_timeseries(doc)

    def test_non_numeric_point_rejected(self):
        doc = timeseries_doc()
        doc["series"][0]["points"][1] = [3000600, "fast"]
        with self.assertRaisesRegex(cbj.SchemaError, r"\[t, value\]"):
            cbj.validate_timeseries(doc)

    def test_decreasing_timestamps_rejected(self):
        doc = timeseries_doc()
        doc["series"][0]["points"][2][0] = 1  # jumps backward
        with self.assertRaisesRegex(cbj.SchemaError, "decreases"):
            cbj.validate_timeseries(doc)

    def test_equal_timestamps_allowed(self):
        # Back-to-back samples at the same sim instant are legal (e.g. the
        # final settling sample).
        doc = timeseries_doc()
        doc["series"][0]["points"][2][0] = 3000600
        cbj.validate_timeseries(doc)


class ProfileSchemaTest(unittest.TestCase):
    def test_valid_doc_returns_bucket_names(self):
        names = cbj.validate_profile(profile_doc())
        self.assertIn("kernel.step.timer", names)
        self.assertIn("switch.commit", names)

    def test_wrong_schema_string(self):
        doc = profile_doc()
        doc["schema"] = "mercury.profile.v2"
        with self.assertRaisesRegex(cbj.SchemaError, "schema"):
            cbj.validate_profile(doc)

    def test_enabled_must_be_boolean(self):
        doc = profile_doc()
        doc["enabled"] = 1
        with self.assertRaisesRegex(cbj.SchemaError, "boolean"):
            cbj.validate_profile(doc)

    def test_enabled_with_no_buckets_rejected(self):
        doc = profile_doc()
        doc["buckets"] = []
        with self.assertRaisesRegex(cbj.SchemaError, "no buckets"):
            cbj.validate_profile(doc)

    def test_disabled_with_no_buckets_allowed(self):
        doc = profile_doc()
        doc["enabled"] = False
        doc["buckets"] = []
        cbj.validate_profile(doc)

    def test_bucket_missing_field(self):
        doc = profile_doc()
        del doc["buckets"][0]["wall_ns"]
        with self.assertRaisesRegex(cbj.SchemaError, "wall_ns"):
            cbj.validate_profile(doc)

    def test_wall_fraction_bounded(self):
        doc = profile_doc()
        doc["buckets"][0]["wall_fraction"] = 1.5
        with self.assertRaisesRegex(cbj.SchemaError, "wall_fraction"):
            cbj.validate_profile(doc)

    def test_non_numeric_total(self):
        doc = profile_doc()
        doc["wall_ns_total"] = "lots"
        with self.assertRaisesRegex(cbj.SchemaError, "wall_ns_total"):
            cbj.validate_profile(doc)

    def test_self_time_above_inclusive_rejected(self):
        doc = profile_doc()
        doc["buckets"][1]["self_ns"] = doc["buckets"][1]["wall_ns"] + 1
        with self.assertRaisesRegex(cbj.SchemaError, "self_ns"):
            cbj.validate_profile(doc)

    def test_inclusive_fractions_that_double_count_rejected(self):
        doc = profile_doc()
        doc["buckets"][0]["wall_fraction"] = 1.0  # inclusive share
        with self.assertRaisesRegex(cbj.SchemaError, "sum to"):
            cbj.validate_profile(doc)


class ChromeSchemaTest(unittest.TestCase):
    def test_valid_doc_returns_event_names(self):
        names = cbj.validate_chrome(chrome_doc())
        self.assertEqual(
            names,
            {"switch.attach", "vmm.tlb_shootdown_all",
             "switch.refcount_retry"},
        )

    def test_empty_trace_is_valid(self):
        cbj.validate_chrome({"traceEvents": []})

    def test_missing_trace_events(self):
        with self.assertRaisesRegex(cbj.SchemaError, "traceEvents"):
            cbj.validate_chrome({"displayTimeUnit": "ms"})

    def test_empty_name_rejected(self):
        doc = chrome_doc()
        doc["traceEvents"][0]["name"] = ""
        with self.assertRaisesRegex(cbj.SchemaError, "name"):
            cbj.validate_chrome(doc)

    def test_missing_cat_rejected(self):
        doc = chrome_doc()
        del doc["traceEvents"][1]["cat"]
        with self.assertRaisesRegex(cbj.SchemaError, "cat"):
            cbj.validate_chrome(doc)

    def test_unknown_phase_rejected(self):
        doc = chrome_doc()
        doc["traceEvents"][0]["ph"] = "B"
        with self.assertRaisesRegex(cbj.SchemaError, "'ph'"):
            cbj.validate_chrome(doc)

    def test_non_numeric_ts_pid_tid_rejected(self):
        for field in ("ts", "pid", "tid"):
            doc = chrome_doc()
            doc["traceEvents"][2][field] = "0"
            with self.assertRaisesRegex(cbj.SchemaError, field):
                cbj.validate_chrome(doc)

    def test_span_without_dur_rejected(self):
        doc = chrome_doc()
        del doc["traceEvents"][0]["dur"]
        with self.assertRaisesRegex(cbj.SchemaError, "dur"):
            cbj.validate_chrome(doc)

    def test_negative_dur_rejected(self):
        doc = chrome_doc()
        doc["traceEvents"][0]["dur"] = -1.0
        with self.assertRaisesRegex(cbj.SchemaError, "dur"):
            cbj.validate_chrome(doc)

    def test_missing_seq_rejected(self):
        doc = chrome_doc()
        del doc["traceEvents"][2]["args"]
        with self.assertRaisesRegex(cbj.SchemaError, "args.seq"):
            cbj.validate_chrome(doc)

    def test_repeated_seq_rejected(self):
        doc = chrome_doc()
        doc["traceEvents"][2]["args"]["seq"] = 7
        with self.assertRaisesRegex(cbj.SchemaError, "repeats seq 7"):
            cbj.validate_chrome(doc)


class BenchCompareTest(unittest.TestCase):
    def test_identical_docs_pass(self):
        doc = metrics_doc()
        regressions, rows = bench_compare.compare(doc, doc)
        self.assertEqual(regressions, [])
        # 4 latency gauges + 2 speedups + 3 pause tails
        self.assertEqual(len(rows), 9)

    def test_latency_regression_detected(self):
        base = metrics_doc()
        cur = copy.deepcopy(base)
        cur["gauges"][0]["value"] = 1.25 * 1.5  # 50% slower attach
        regressions, _ = bench_compare.compare(base, cur, tolerance=0.10)
        self.assertEqual(len(regressions), 1)
        self.assertIn("attach_ms", regressions[0])

    def test_latency_within_tolerance_passes(self):
        base = metrics_doc()
        cur = copy.deepcopy(base)
        cur["gauges"][0]["value"] = 1.25 * 1.05  # 5% slower, 10% allowed
        regressions, _ = bench_compare.compare(base, cur, tolerance=0.10)
        self.assertEqual(regressions, [])

    def test_latency_improvement_passes(self):
        base = metrics_doc()
        cur = copy.deepcopy(base)
        cur["gauges"][0]["value"] = 0.5
        regressions, _ = bench_compare.compare(base, cur)
        self.assertEqual(regressions, [])

    def test_speedup_regression_detected(self):
        base = metrics_doc()
        cur = copy.deepcopy(base)
        cur["gauges"][2]["value"] = 3.1 * 0.5  # crew speedup halved
        regressions, _ = bench_compare.compare(base, cur)
        self.assertEqual(len(regressions), 1)
        self.assertIn("crew_speedup", regressions[0])

    def test_speedup_improvement_passes(self):
        base = metrics_doc()
        cur = copy.deepcopy(base)
        cur["gauges"][2]["value"] = 10.0
        regressions, _ = bench_compare.compare(base, cur)
        self.assertEqual(regressions, [])

    def test_missing_gauge_is_a_regression(self):
        base = metrics_doc()
        cur = copy.deepcopy(base)
        del cur["gauges"][1]  # drop detach_ms from the current run
        regressions, rows = bench_compare.compare(base, cur)
        self.assertEqual(len(regressions), 1)
        self.assertIn("missing", regressions[0])
        self.assertIn(("bench.modeswitch.up.mem_kb=1024.detach_ms",
                       0.75, None, "MISSING"), rows)

    def test_new_gauge_in_current_is_fine(self):
        base = metrics_doc()
        cur = copy.deepcopy(base)
        cur["gauges"].append(
            {"name": "bench.modeswitch.up.mem_kb=4096.attach_ms",
             "value": 9.0})
        regressions, _ = bench_compare.compare(base, cur)
        self.assertEqual(regressions, [])

    def test_non_bench_gauges_ignored(self):
        base = metrics_doc()
        cur = copy.deepcopy(base)
        cur["gauges"][3]["value"] = 10**9  # obs.flight.recorded exploded
        regressions, _ = bench_compare.compare(base, cur)
        self.assertEqual(regressions, [])

    def test_warm_attach_latency_regression_detected(self):
        base = metrics_doc()
        cur = copy.deepcopy(base)
        cur["gauges"][5]["value"] = 0.8 * 2.0  # warm attach twice as slow
        regressions, _ = bench_compare.compare(base, cur, tolerance=0.10)
        self.assertEqual(len(regressions), 1)
        self.assertIn("warm_attach_ms", regressions[0])

    def test_warm_speedup_regression_detected(self):
        base = metrics_doc()
        cur = copy.deepcopy(base)
        cur["gauges"][7]["value"] = 19.9 * 0.5  # warm benefit halved
        regressions, _ = bench_compare.compare(base, cur)
        self.assertEqual(len(regressions), 1)
        self.assertIn("warm_reattach_speedup", regressions[0])

    def test_warm_speedup_improvement_passes(self):
        base = metrics_doc()
        cur = copy.deepcopy(base)
        cur["gauges"][7]["value"] = 40.0
        regressions, _ = bench_compare.compare(base, cur)
        self.assertEqual(regressions, [])

    def test_missing_warm_speedup_is_a_regression(self):
        base = metrics_doc()
        cur = copy.deepcopy(base)
        del cur["gauges"][7]  # drop warm_reattach_speedup
        regressions, rows = bench_compare.compare(base, cur)
        self.assertEqual(len(regressions), 1)
        self.assertIn("missing", regressions[0])
        self.assertIn(("bench.modeswitch.warm_reattach_speedup",
                       19.9, None, "MISSING"), rows)

    def test_warm_count_gauges_not_gated(self):
        # dirty_frames / frames_retained describe the workload, not the
        # cost model; a different dirty pattern must not fail the gate.
        base = metrics_doc()
        cur = copy.deepcopy(base)
        cur["gauges"][6]["value"] = 10**6  # dirty_frames exploded
        regressions, _ = bench_compare.compare(base, cur)
        self.assertEqual(regressions, [])

    def test_pause_tail_regression_detected(self):
        base = metrics_doc()
        cur = copy.deepcopy(base)
        cur["gauges"][9]["value"] = 3.2 * 2.0  # pause p99 doubled
        regressions, _ = bench_compare.compare(base, cur, tolerance=0.10)
        self.assertEqual(len(regressions), 1)
        self.assertIn("pause_p99_us", regressions[0])

    def test_missing_pause_gauge_is_a_regression(self):
        base = metrics_doc()
        cur = copy.deepcopy(base)
        del cur["gauges"][10]  # drop the pause_worst_us cell
        regressions, _ = bench_compare.compare(base, cur)
        self.assertEqual(len(regressions), 1)
        self.assertIn("missing", regressions[0])
        self.assertIn("pause_worst_us", regressions[0])

    def test_zero_pause_baseline_stays_ok(self):
        # Silent causes emit 0.0 in every cell; the absolute jitter floor
        # must keep 0-vs-0 from tripping the multiplicative gate.
        base = metrics_doc()
        base["gauges"][8]["value"] = 0.0
        cur = copy.deepcopy(base)
        regressions, _ = bench_compare.compare(base, cur)
        self.assertEqual(regressions, [])

    def test_non_dict_docs_have_no_gauges(self):
        # compare() must not blow up on malformed documents; the CLI exits
        # with a one-line diagnostic before getting here, but the importable
        # API stays total.
        regressions, rows = bench_compare.compare([1, 2], "nope")
        self.assertEqual(regressions, [])
        self.assertEqual(rows, [])

    def test_non_numeric_gauge_value_treated_as_missing(self):
        base = metrics_doc()
        cur = copy.deepcopy(base)
        cur["gauges"][0]["value"] = "not-a-number"
        regressions, rows = bench_compare.compare(base, cur)
        self.assertEqual(len(regressions), 1)
        self.assertIn("missing", regressions[0])
        self.assertIn(("bench.modeswitch.up.mem_kb=1024.attach_ms",
                       1.25, None, "MISSING"), rows)


def perfbench_baseline():
    return {
        "schema": bench_compare.PERFBENCH_SCHEMA,
        "workloads": {
            "switch-churn": {
                "seed": 1,
                "simulated": {"attach_p50_us": 69.200333333333333,
                              "availability": 0.99347647577092513,
                              "app_sim_ms": 2270},
                "host": {
                    "parent": {"setup_s": 0.0056, "run_s": 0.19,
                               "peak_rss_mb": 19.0},
                    "change": {"setup_s": 0.0056, "run_s": 0.06,
                               "peak_rss_mb": 19.1},
                },
            },
        },
    }


def perfbench_output(workload="switch-churn", seed=1, correct=True,
                     **values):
    """perfbench/run.py's standard output: the workload line, metric lines,
    then the result object on the last line."""
    metrics = {"setup_s": 0.0056, "run_s": 0.06, "peak_rss_mb": 19.1,
               "attach_p50_us": 69.200333333333333,
               "availability": 0.99347647577092513, "app_sim_ms": 2270}
    metrics.update(values)
    result = {"correct": correct, "attempted": 7200,
              "failed": 0 if correct else 1,
              "metrics": {k: {"value": v, "unit": "x"}
                          for k, v in metrics.items()}}
    return (f"workload {workload}, seed {seed}, 120 iterations (0 traced) "
            "in 5.0 s\nrun_s  0.06 s\nfail_rate 0/7200\n" +
            json.dumps(result) + "\n")


class BenchComparePerfbenchTest(unittest.TestCase):
    def compare(self, text):
        return bench_compare.compare_perfbench(
            perfbench_baseline(), *bench_compare.perfbench_run(text))

    def test_workload_and_seed_come_from_the_run(self):
        workload, seed, result = bench_compare.perfbench_run(
            perfbench_output(workload="depend-arcs", seed=11))
        self.assertEqual((workload, seed), ("depend-arcs", 11))
        self.assertIs(result["correct"], True)

    def test_exact_match_passes(self):
        failures, rows = self.compare(perfbench_output())
        self.assertEqual(failures, [])
        self.assertEqual(len(rows), 6)  # 3 simulated + 3 host

    def test_moved_simulated_value_fails(self):
        # One cycle more (1/3000 us) is a moved value.
        moved = 69.200333333333333 + 1 / 3000
        failures, rows = self.compare(perfbench_output(attach_p50_us=moved))
        self.assertEqual(len(failures), 1)
        self.assertIn("attach_p50_us", failures[0])
        self.assertIn(("attach_p50_us", 69.200333333333333, moved, "MOVED"),
                      rows)

    def test_missing_simulated_value_fails(self):
        text = perfbench_output()
        result = json.loads(text.splitlines()[-1])
        del result["metrics"]["app_sim_ms"]
        failures, _ = self.compare(text.replace(text.splitlines()[-1],
                                                json.dumps(result)))
        self.assertEqual(failures, ["app_sim_ms: recorded, missing now"])

    def test_other_seed_fails(self):
        failures, _ = self.compare(perfbench_output(seed=7))
        self.assertEqual(failures, ["seed 7: the recorded values are for "
                                    "seed 1"])

    def test_failed_run_fails_even_with_matching_values(self):
        failures, _ = self.compare(perfbench_output(correct=False))
        self.assertEqual(len(failures), 1)
        self.assertIn("run not correct", failures[0])

    def test_unrecorded_workload_fails(self):
        failures, rows = self.compare(perfbench_output(workload="nope"))
        self.assertEqual(failures, ["workload 'nope' is not recorded"])
        self.assertEqual(rows, [])

    def test_output_without_workload_line_is_rejected(self):
        text = perfbench_output().split("\n", 1)[1]
        with self.assertRaises(ValueError):
            bench_compare.perfbench_run(text)

    def test_host_drift_alone_passes(self):
        # A CI runner is not the recording machine: 3x slower and twice the
        # memory is reported, never failed.
        failures, rows = self.compare(
            perfbench_output(run_s=0.18, setup_s=0.02, peak_rss_mb=40.0))
        self.assertEqual(failures, [])
        self.assertIn(("run_s", 0.06, 0.18, "x3.00 of recorded (not gated)"),
                      rows)


class BlackboxReportTest(unittest.TestCase):
    def test_renders_full_bundle(self):
        text = blackbox_report.render(postmortem_doc())
        self.assertIn("fault-rollback", text)
        self.assertIn("vmm.adopt_protect", text)
        self.assertIn("crew utilization", text)
        self.assertIn("retry storm", text)
        self.assertIn("native -> full-virtual", text)

    def test_renders_empty_flight_bundle(self):
        # The obs-off shape: no flight events at all must still render.
        doc = postmortem_doc()
        doc["flight"] = {"recorded": 0, "dropped": 0, "events": []}
        text = blackbox_report.render(doc)
        self.assertIn("fault-rollback", text)
        self.assertIn("0 in tail", text)

    def test_unfinished_phase_marked(self):
        doc = postmortem_doc()
        text = blackbox_report.render(doc)
        self.assertIn("(unfinished)", text)  # attach never saw phase.end

    def test_unwound_phase_marked_aborted(self):
        doc = postmortem_doc()
        doc["flight"]["events"].append(
            flight_event(9, 0, 27000, "phase.end", "switch.attach",
                         (0, 21000, 1)))
        rows = blackbox_report.phase_timeline(doc["flight"]["events"])
        self.assertEqual(rows[0][2:], ("switch.attach", 21000, True))
        text = blackbox_report.render(doc)
        self.assertIn("(aborted)", text)
        self.assertNotIn("(unfinished)", text)

    def test_phase_timeline_pairs_by_cpu_and_name(self):
        events = [
            flight_event(1, 0, 3000, "phase.begin", "p"),
            flight_event(2, 1, 3000, "phase.begin", "p"),
            flight_event(3, 1, 9000, "phase.end", "p"),
            flight_event(4, 0, 30000, "phase.end", "p"),
        ]
        rows = blackbox_report.phase_timeline(events)
        self.assertEqual(rows[0][3], 27000)  # cpu 0 pairs with its own end
        self.assertEqual(rows[1][3], 6000)

    def test_crew_utilization_sums_worker_busy(self):
        crews = blackbox_report.crew_utilization(
            postmortem_doc()["flight"]["events"])
        self.assertEqual(len(crews), 1)
        name, shards, busy, span, per_worker = crews[0]
        self.assertEqual(name, "switch.crew.rebuild")
        self.assertEqual(shards, 1)
        self.assertEqual(busy, 4500)
        self.assertEqual(span, 9000)
        self.assertEqual(per_worker, {1: 4500})

    def test_render_tail_limit(self):
        text = blackbox_report.render(postmortem_doc(), tail_n=2)
        self.assertIn("last 2 flight events", text)

    def supervisor_events(self):
        return [
            flight_event(1, 0, 3000, "supervisor.attempt",
                         "supervisor.attempt", (7, 1, 1)),
            # The backoff is an interval (IntervalKind 26): its begin
            # carries the request and attempt, its end the delay.
            flight_event(2, 0, 6000, "phase.begin", "supervisor.backoff",
                         (26, 7, 1)),
            flight_event(3, 0, 9000, "phase.end", "supervisor.backoff",
                         (26, 3000, 0)),
            flight_event(4, 0, 9000, "supervisor.attempt",
                         "supervisor.attempt", (7, 2, 1)),
            flight_event(5, 0, 12000, "supervisor.health",
                         "supervisor.health", (0, 1, 2)),
            flight_event(6, 0, 15000, "supervisor.resolve", "committed",
                         (7, 3, 2)),
        ]

    def test_supervisor_timeline_rows(self):
        rows = blackbox_report.supervisor_timeline(self.supervisor_events())
        self.assertEqual(len(rows), 5)
        self.assertIn("request 7 attempt #1 -> partial-virtual", rows[0][1])
        self.assertIn("backoff after attempt #1", rows[1][1])
        self.assertIn("health healthy -> degraded", rows[3][1])
        self.assertIn("resolved committed after 2 attempt(s)", rows[4][1])

    def test_render_includes_supervisor_timeline(self):
        doc = postmortem_doc()
        events = self.supervisor_events()
        for i, ev in enumerate(events):
            ev["seq"] = 10 + i  # keep seq strictly increasing
            ev["cycles"] += 24000
        doc["flight"]["events"].extend(events)
        text = blackbox_report.render(doc)
        self.assertIn("supervisor timeline", text)
        self.assertIn("request 7 attempt #1 -> partial-virtual", text)
        self.assertIn("health healthy -> degraded (failure streak 2)", text)

    def test_no_supervisor_section_without_events(self):
        text = blackbox_report.render(postmortem_doc())
        self.assertNotIn("supervisor timeline", text)


class TimeseriesProfileRenderTest(unittest.TestCase):
    def test_sparkline_flat_series(self):
        self.assertEqual(blackbox_report.sparkline([3, 3, 3]), "▁▁▁")

    def test_sparkline_empty(self):
        self.assertEqual(blackbox_report.sparkline([]), "")

    def test_sparkline_rises(self):
        line = blackbox_report.sparkline([0, 1, 2, 3])
        self.assertEqual(line[0], "▁")
        self.assertEqual(line[-1], "█")

    def test_sparkline_downsamples_to_width(self):
        line = blackbox_report.sparkline(list(range(1000)), width=48)
        self.assertEqual(len(line), 48)

    def test_render_timeseries_groups_by_label(self):
        text = blackbox_report.render_timeseries(timeseries_doc())
        self.assertIn("Mercury time series", text)
        self.assertIn("--- node=n0 ---", text)
        self.assertIn("--- fleet ---", text)
        self.assertIn("switch.committed", text)
        self.assertIn("last 1", text)

    def test_render_timeseries_empty_points(self):
        doc = timeseries_doc()
        doc["series"][0]["points"] = []
        text = blackbox_report.render_timeseries(doc)
        self.assertIn("(no samples)", text)

    def test_render_profile_ranks_by_wall(self):
        text = blackbox_report.render_profile(profile_doc())
        self.assertIn("Mercury engine profile", text)
        # kernel.step.timer has the larger wall_ns: it must come first.
        self.assertLess(text.index("kernel.step.timer"),
                        text.index("switch.commit"))
        self.assertIn("76.5%", text)

    def test_render_profile_no_buckets(self):
        doc = profile_doc()
        doc["enabled"] = False
        doc["buckets"] = []
        text = blackbox_report.render_profile(doc)
        self.assertIn("(no buckets recorded)", text)
        self.assertIn("disabled", text)


class PauseRenderTest(unittest.TestCase):
    def test_renders_attribution_table(self):
        text = blackbox_report.render_pause(pause_doc())
        self.assertIn("Mercury pause observatory", text)
        self.assertIn("5 recorded, 0 unattributed", text)
        self.assertIn("attribution by cause", text)
        self.assertIn("rendezvous-parked", text)
        self.assertIn("supervisor-retry-backoff", text)  # silent cause too
        self.assertIn("per-CPU unavailability", text)

    def test_tail_cut_around_worst_interval(self):
        # worst.flight_seq 17 is in the ring: the tail must end there, not
        # at the newest event (seq 18).
        text = blackbox_report.render_pause(pause_doc())
        self.assertIn("up to the worst interval (seq 17)", text)
        # Seq 18 (the crew-shard-work begin) is newer than the worst
        # interval, so it must not be in the tail; the cause name then
        # appears exactly once — in the attribution table.
        self.assertEqual(text.count("crew-shard-work"), 1)

    def test_tail_falls_back_when_worst_rotated_out(self):
        doc = pause_doc()
        doc["worst"]["flight_seq"] = 3  # no longer in the ring
        text = blackbox_report.render_pause(doc)
        self.assertIn("last 3 flight events", text)

    def test_renders_empty_ledger(self):
        doc = pause_doc()
        doc["intervals"] = 0
        doc["worst"] = {"cause": "none", "cpu": 0, "begin": 0, "end": 0,
                        "span": 0, "detail": "", "flight_seq": 0}
        doc["causes"] = [pause_cause(n) for n in cbj.PAUSE_CAUSES]
        doc["cpus"] = []
        doc["flight"] = {"events": []}
        text = blackbox_report.render_pause(doc)
        self.assertIn("(no intervals recorded)", text)


class DependSchemaTest(unittest.TestCase):
    def test_valid_verdict(self):
        names = cbj.validate_depend(depend_doc())
        self.assertEqual(names, {"live-update", "migrate"})

    def test_clean_quarantine_is_accepted(self):
        # The dichotomy's other arm: an abandoned service is fine as long
        # as it quarantined with a postmortem and stranded nothing.
        doc = depend_doc()
        doc["arcs"][0].update(success=False, quarantined=True,
                              postmortem_written=True, verified=False)
        cbj.validate_depend(doc)

    def test_wrong_schema_string(self):
        doc = depend_doc()
        doc["schema"] = "mercury.depend.v2"
        with self.assertRaisesRegex(cbj.SchemaError, "schema"):
            cbj.validate_depend(doc)

    def test_empty_arcs(self):
        doc = depend_doc()
        doc["arcs"] = []
        with self.assertRaisesRegex(cbj.SchemaError, "arcs"):
            cbj.validate_depend(doc)

    def test_missing_bool_field(self):
        doc = depend_doc()
        del doc["arcs"][0]["rolled_back"]
        with self.assertRaisesRegex(cbj.SchemaError, "rolled_back"):
            cbj.validate_depend(doc)

    def test_bool_field_must_be_boolean(self):
        doc = depend_doc()
        doc["arcs"][0]["success"] = 1  # truthy is not good enough
        with self.assertRaisesRegex(cbj.SchemaError, "boolean"):
            cbj.validate_depend(doc)

    def test_missing_pause_section(self):
        doc = depend_doc()
        del doc["arcs"][0]["pause"]
        with self.assertRaisesRegex(cbj.SchemaError, "pause"):
            cbj.validate_depend(doc)

    def test_missing_pause_field(self):
        doc = depend_doc()
        del doc["arcs"][1]["pause"]["stopcopy_cycles"]
        with self.assertRaisesRegex(cbj.SchemaError, "stopcopy_cycles"):
            cbj.validate_depend(doc)

    def test_gate_dichotomy_neither(self):
        doc = depend_doc()
        doc["arcs"][0].update(success=False, quarantined=False)
        with self.assertRaisesRegex(cbj.SchemaError, "neither"):
            cbj.validate_depend(doc)

    def test_gate_dichotomy_both(self):
        doc = depend_doc()
        doc["arcs"][0].update(success=True, quarantined=True)
        with self.assertRaisesRegex(cbj.SchemaError, "both"):
            cbj.validate_depend(doc)

    def test_gate_quarantine_without_postmortem(self):
        doc = depend_doc()
        doc["arcs"][0].update(success=False, quarantined=True,
                              postmortem_written=False)
        with self.assertRaisesRegex(cbj.SchemaError, "postmortem"):
            cbj.validate_depend(doc)

    def test_gate_stranded_requests(self):
        doc = depend_doc()
        doc["arcs"][0]["stranded_requests"] = 3
        with self.assertRaisesRegex(cbj.SchemaError, "stranded"):
            cbj.validate_depend(doc)

    def test_gate_invariant_violations(self):
        doc = depend_doc()
        doc["arcs"][1]["invariant_violations"] = 1
        with self.assertRaisesRegex(cbj.SchemaError, "invariant"):
            cbj.validate_depend(doc)

    def test_gate_zero_attempts(self):
        doc = depend_doc()
        doc["arcs"][0]["attempts"] = 0
        with self.assertRaisesRegex(cbj.SchemaError, "zero service"):
            cbj.validate_depend(doc)

    def test_gate_empty_window(self):
        doc = depend_doc()
        doc["arcs"][0]["window_cycles"] = 0
        with self.assertRaisesRegex(cbj.SchemaError, "window"):
            cbj.validate_depend(doc)

    def test_gate_downtime_exceeds_window(self):
        doc = depend_doc()
        doc["arcs"][1]["downtime_cycles"] = doc["arcs"][1]["window_cycles"] + 1
        with self.assertRaisesRegex(cbj.SchemaError, "downtime"):
            cbj.validate_depend(doc)

    def test_gate_short_page_stream(self):
        doc = depend_doc()
        doc["arcs"][1]["pages_sent"] = doc["arcs"][1]["pages_total"] - 1
        with self.assertRaisesRegex(cbj.SchemaError, "fewer pages"):
            cbj.validate_depend(doc)

    def test_gate_unattributed_pause(self):
        doc = depend_doc()
        doc["arcs"][0]["pause"]["unattributed"] = 2
        with self.assertRaisesRegex(cbj.SchemaError, "unattributed"):
            cbj.validate_depend(doc)


class DependRenderTest(unittest.TestCase):
    def test_renders_arcs(self):
        text = blackbox_report.render_depend(depend_doc())
        self.assertIn("Mercury dependability arcs", text)
        self.assertIn("live-update: success", text)
        self.assertIn("migrate: success", text)
        # Page-stream stats only show on arcs that moved pages.
        self.assertIn("17000/16384 pages over 2 round(s)", text)
        self.assertEqual(text.count("pre-copy"), 1)

    def test_renders_quarantine_and_incomplete(self):
        doc = depend_doc()
        doc["arcs"][0].update(success=False, quarantined=True,
                              rolled_back=True, postmortem_written=True)
        doc["arcs"][1].update(success=False)
        text = blackbox_report.render_depend(doc)
        self.assertIn("live-update: quarantined", text)
        self.assertIn("rolled-back", text)
        self.assertIn("migrate: INCOMPLETE", text)

    def test_unknown_fault_site_renders_gracefully(self):
        # Postmortems from newer builds may carry sites this renderer does
        # not know; they must render as site#<n>, not crash.
        self.assertEqual(blackbox_report.site_name(99), "site#99")
        self.assertEqual(blackbox_report.site_name(99, "custom"), "custom")


if __name__ == "__main__":
    unittest.main()
