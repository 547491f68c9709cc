#!/usr/bin/env python3
"""Tests of the benchmark's checks, metric names and A/B verdicts.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They need no build: the checks run on synthetic program output.
"""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import ab  # noqa: E402
import evaluate  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def registry(scheduled=100, cancelled=10, lagging=(3, 1)):
    enter, leave = lagging
    return {
        "counters": {"pubsub.lagging_enter": enter, "pubsub.lagging_exit": leave,
                     "engine.user_visits": 50},
        "gauges": {
            "sim.events_scheduled": scheduled,
            "sim.events_fired": scheduled - cancelled,
            "sim.events_cancelled": cancelled,
            "sim.queue_peak_depth": 7,
            "sim.end_time_s": 9000.0,
            "net.messages_light": 30,
            "net.messages_update": 12,
            "net.messages.poll-request": 30,
            "net.messages.poll-response-fresh": 12,
            "pubsub.lagging_subscribers": enter - leave,
        },
        "histograms": {},
    }


def job(cell, pass_, traced=False, digest="00ff", ttl_oracle=False, avg=5.05):
    return {"kind": "job", "cell": cell, "pass": pass_, "traced": traced,
            "servers": 170, "wall_s": 0.5, "error": "", "ttl_oracle": ttl_oracle,
            "server_ttl_s": 10.0, "digest": digest, "sim_time_s": 9000.0,
            "avg_server_inconsistency_s": avg, "converged_server_fraction": 1.0,
            "metrics": registry()}


def records(trace):
    """A clean program output for two cells."""
    out = [{"kind": "setup", "total_s": [0.002, 0.001, 0.003],
            "scenario_build_s": [0.001, 0.0005, 0.002],
            "trace_generate_s": [0.001, 0.0005, 0.001]}]
    cells = [("Unicast/170/TTL", "aa11", True), ("Unicast/170/Push", "bb22", False)]
    for pass_ in (0, 1):
        for cell, digest, oracle in cells:
            out.append(job(cell, pass_, digest=digest, ttl_oracle=oracle))
        out.append({"kind": "pass", "pass": pass_, "wall_s": 1.1, "job_sum_s": 1.0,
                    "workers": 1})
    if trace:
        out = [r for r in out if r.get("pass") != 1]
        for i, (cell, digest, oracle) in enumerate(cells):
            out.append(job(cell, 1, traced=True, digest=digest, ttl_oracle=oracle))
            out[-1]["user_log_rows"] = 40
            for name in ("job", "consistency.ctor", "sim.run"):
                out.append({"kind": "span", "name": name, "job": cell, "id": i,
                            "parent": -1, "start_s": 0.0, "end_s": 0.25})
    out.append({"kind": "end", "peak_rss_mb": 20.5, "workers": 1})
    return out


def load_spec():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        return json.load(f)


class ChecksTest(unittest.TestCase):
    def test_clean_output_passes(self):
        for trace in (False, True):
            s = evaluate.summarize("paper_eval", records(trace), trace)
            self.assertEqual(s["failed"], 0, s["failures"])
            self.assertEqual(s["attempted"], 4)

    def test_injected_digest_mismatch_is_a_failure(self):
        for trace in (False, True):
            recs = records(trace)
            later = [r for r in recs if r["kind"] == "job"][-1]
            later["digest"] = "dead"
            s = evaluate.summarize("paper_eval", recs, trace)
            self.assertEqual(s["failed"], 1)
            self.assertIn("digest", s["failures"][0][1])

    def test_violated_identities_are_failures(self):
        cases = {
            "sim.events_fired": lambda m: m["gauges"].update({"sim.events_fired": 1}),
            "net.messages_light": lambda m: m["gauges"].update({"net.messages_light": 1}),
            "pubsub.lagging_subscribers":
                lambda m: m["gauges"].update({"pubsub.lagging_subscribers": 9}),
        }
        for name, breaks in cases.items():
            recs = records(False)
            breaks(recs[1]["metrics"])
            s = evaluate.summarize("paper_eval", recs, False)
            self.assertEqual(s["failed"], 1, name)
            self.assertIn(name, s["failures"][0][1])

    def test_missing_identity_key_is_a_failure_not_a_skip(self):
        recs = records(False)
        del recs[1]["metrics"]["counters"]["pubsub.lagging_exit"]
        s = evaluate.summarize("paper_eval", recs, False)
        self.assertEqual(s["failed"], 1)
        self.assertIn("lacks", s["failures"][0][1])

    def test_thrown_job_is_a_failure(self):
        recs = records(False)
        recs[2]["error"] = "boom"
        del recs[2]["digest"]
        self.assertEqual(evaluate.summarize("paper_eval", recs, False)["failed"], 1)

    def test_ttl_oracle_outside_tolerance_is_a_failure(self):
        recs = records(False)
        recs[1]["avg_server_inconsistency_s"] = 6.0
        s = evaluate.summarize("paper_eval", recs, False)
        self.assertEqual(s["failed"], 1)
        self.assertAlmostEqual(s["accuracy"]["ttl_oracle_err"], 0.2)

    def test_traced_cell_without_untraced_pair_is_a_failure(self):
        recs = [r for r in records(True)
                if not (r["kind"] == "job" and not r["traced"]
                        and r["cell"] == "Unicast/170/Push")]
        s = evaluate.summarize("paper_eval", recs, True)
        self.assertEqual(s["failed"], 1)


class BenchmarkSpecTest(unittest.TestCase):
    def test_names_and_units_follow_the_naming_rule(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertTrue(1 <= len(spec["paths"]) <= 16)
        for path in spec["paths"]:
            self.assertRegex(path, PATH)
            self.assertFalse(path.startswith("/") or ".." in path.split("/"))
        self.assertTrue(1 <= len(spec["command"]) <= 32)
        self.assertTrue(isinstance(spec["run_seconds"], int)
                        and 1 <= spec["run_seconds"] <= 60)
        names = []
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])
            names.append(w["name"])
        self.assertTrue(1 <= len(spec["end_to_end"]) <= 16)
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in spec["end_to_end"]))

    def test_reported_metrics_are_the_declared_ones(self):
        spec = load_spec()
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            s = evaluate.summarize("paper_eval", records(trace), trace)
            declared = {m["name"]: m["unit"] for m in spec[key]}
            self.assertEqual({n: s["units"][n] for n in s["metrics"]}, declared)


class VerdictTest(unittest.TestCase):
    def test_wide_spread_is_unresolved(self):
        parent = [10, 14, 9, 13, 10, 12, 8, 14, 11, 10]
        change = [9, 13, 10, 12, 9, 11, 9, 13, 10, 9]
        self.assertEqual(ab.verdict(parent, change, "lower", 0.05)["verdict"],
                         "unresolved")

    def test_clear_win_is_a_gain(self):
        parent = [10.0 + 0.01 * i for i in range(10)]
        change = [9.0 + 0.01 * i for i in range(10)]
        v = ab.verdict(parent, change, "lower", 0.05)
        self.assertEqual(v["win_fraction"], 1.0)
        self.assertEqual(v["verdict"], "gain")

    def test_slowdown_beyond_bound_is_a_regression(self):
        parent = [10.0 + 0.01 * i for i in range(10)]
        change = [11.0 + 0.01 * i for i in range(10)]
        self.assertEqual(ab.verdict(parent, change, "lower", 0.05)["verdict"],
                         "regression")
        self.assertEqual(ab.verdict(change, parent, "higher", 0.05)["verdict"],
                         "regression")

    def test_wide_spread_with_every_change_run_better(self):
        parent = [4.86, 4.00]
        change = [3.94, 3.89]
        self.assertEqual(ab.verdict(parent, change, "lower", 0.05)["verdict"],
                         "better in every run")

    def test_ties_count_for_neither_side(self):
        v = ab.verdict([1.0] * 10, [1.0] * 10, "lower", 0.05)
        self.assertEqual(v["win_fraction"], 0.0)
        self.assertEqual(v["verdict"], "within bound")


if __name__ == "__main__":
    unittest.main()
