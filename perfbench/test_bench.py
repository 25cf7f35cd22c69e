"""Unit tests for the benchmark's own arithmetic and checks.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import os
import re
import unittest

import check
import metrics
import stats

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TailTest(unittest.TestCase):
    def test_ten_samples_beyond(self):
        values = list(range(1, 101))  # 1..100, shuffled order must not matter
        values.reverse()
        value, pct, n = stats.tail(values)
        self.assertEqual(value, 90)  # 91..100 are the ten beyond it
        self.assertEqual(pct, 90.0)
        self.assertEqual(n, 100)

    def test_exactly_eleven_samples(self):
        value, pct, n = stats.tail([5.0] * 10 + [1.0])
        self.assertEqual(value, 1.0)
        self.assertAlmostEqual(pct, 100.0 / 11)
        self.assertEqual(n, 11)

    def test_too_few_samples_report_the_maximum(self):
        self.assertEqual(stats.tail([3, 1, 2]), (3, 100.0, 3))
        self.assertEqual(stats.tail(list(range(10)))[0], 9)

    def test_empty(self):
        with self.assertRaises(ValueError):
            stats.tail([])


class GeomeanTest(unittest.TestCase):
    def test_values(self):
        self.assertAlmostEqual(stats.geomean([1, 4]), 2.0)
        self.assertAlmostEqual(stats.geomean([2, 8, 4]), 4.0)
        self.assertAlmostEqual(stats.geomean([7.5]), 7.5)

    def test_rejects_non_positive(self):
        with self.assertRaises(ValueError):
            stats.geomean([1, 0])
        with self.assertRaises(ValueError):
            stats.geomean([])


class SelfTimeTest(unittest.TestCase):
    def test_children_cover_union_only(self):
        spans = [
            {"start": 0, "end": 10, "parent": -1},
            {"start": 1, "end": 3, "parent": 0},
            {"start": 2, "end": 5, "parent": 0},   # overlaps the first child
            {"start": 8, "end": 12, "parent": 0},  # overhangs the parent
            {"start": 1, "end": 2, "parent": 1},   # a grandchild
        ]
        selfs = stats.self_times(spans)
        self.assertAlmostEqual(selfs[0], 10 - (4 + 2))
        self.assertAlmostEqual(selfs[1], 2 - 1)
        self.assertAlmostEqual(selfs[2], 3)
        self.assertAlmostEqual(selfs[3], 4)
        self.assertAlmostEqual(selfs[4], 1)

    def test_leaf_and_disjoint_roots(self):
        spans = [{"start": 0, "end": 1, "parent": -1},
                 {"start": 5, "end": 7, "parent": -1}]
        self.assertEqual(stats.self_times(spans), [1, 2])

    def test_self_times_sum_to_root_when_children_nest(self):
        spans = [{"start": 0.0, "end": 9.0, "parent": -1},
                 {"start": 0.0, "end": 4.0, "parent": 0},
                 {"start": 0.0, "end": 3.0, "parent": 1},
                 {"start": 4.0, "end": 6.5, "parent": 0}]
        self.assertAlmostEqual(sum(stats.self_times(spans)), 9.0)


class ErrorRateTest(unittest.TestCase):
    def test_values(self):
        self.assertEqual(stats.error_rate(10, 0), 0.0)
        self.assertEqual(stats.error_rate(10, 1), 0.1)
        self.assertEqual(stats.error_rate(4, 4), 1.0)

    def test_rejects_bad_counts(self):
        for attempted, failed in ((0, 0), (3, 4), (3, -1)):
            with self.assertRaises(ValueError):
                stats.error_rate(attempted, failed)


class QuartileSpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
        q1, med, q3 = 11.75, 14.5, 17.25  # exclusive method, n=4
        self.assertAlmostEqual(stats.quartile_spread(values), (q3 - q1) / med)


def engine(rows, value, error=""):
    return {"ms": 1.0, "rows": rows, "check": value, "faults": 10,
            "error": error}


def tpcd_raw(rounds=12, setups=3):
    """A synthetic tpcd raw document in the perfbench format: `setups`
    segments of `rounds` rounds each."""
    def pair(q):
        return {"q": q, "monet": engine(q, 100.0 * q),
                "row": dict(engine(q, 100.0 * q), ms=0.5)}

    def segment(i, total_s):
        return {"generate_s": 0.1, "load_s": 0.2, "total_s": total_s,
                "first_round_s": 0.02,
                "first_round": [pair(q) for q in metrics.QUERIES],
                "rounds": [{"round": i * rounds + r, "traced": False,
                            "queries": [pair(q) for q in metrics.QUERIES],
                            "mem_peak_mb": 2.0, "alloc_mb": 3.0}
                           for r in range(rounds)],
                "timed_wall_s": 1.0, "timed_cpu_s": 1.0}

    totals = (0.3, 0.5, 0.4, 0.6, 0.2)
    return {"context": {"workload": "tpcd"},
            "setups": [segment(i, totals[i]) for i in range(setups)]}


class CheckerTest(unittest.TestCase):
    def test_clean_run_passes(self):
        attempted, failures = check.check_run(tpcd_raw())
        # 15 queries x 2 engines x 3 segments x (12 rounds + 1 first
        # round), and 15 fault-repeat checks.
        self.assertEqual(attempted, 15 * 2 * 3 * 13 + 15)
        self.assertEqual(failures, [])

    def test_corrupted_checksum_fails(self):
        raw = tpcd_raw()
        raw["setups"][0]["rounds"][5]["queries"][6]["monet"]["check"] *= 1.001
        _, failures = check.check_run(raw)
        self.assertEqual(len(failures), 1)
        self.assertIn("round 5 Q7", failures[0])

    def test_corrupted_row_count_fails(self):
        raw = tpcd_raw()
        raw["setups"][1]["first_round"][0]["row"]["rows"] += 1
        _, failures = check.check_run(raw)
        self.assertEqual(len(failures), 1)

    def test_tolerance_is_relative(self):
        a = engine(1, 1e9)
        self.assertTrue(check.answers_agree(a, engine(1, 1e9 + 100)))
        self.assertFalse(check.answers_agree(a, engine(1, 1e9 + 10000)))
        self.assertTrue(check.answers_agree(engine(1, 0.0),
                                            engine(1, 5e-7)))

    def test_engine_error_fails(self):
        raw = tpcd_raw()
        raw["setups"][2]["rounds"][0]["queries"][0]["row"]["error"] = "boom"
        _, failures = check.check_run(raw)
        self.assertEqual(len(failures), 1)

    def test_wrong_service_answer_and_veto_fail(self):
        reqs = [{"prog": 0, "ok": True, "fp": "aa", "error": ""},
                {"prog": 1, "ok": True, "fp": "zz", "error": ""},
                {"prog": 0, "ok": False, "fp": "", "error": "vetoed: x"}]
        attempted, failures = check.check_requests(reqs, ["aa", "bb"], "r")
        self.assertEqual(attempted, 3)
        self.assertEqual(len(failures), 2)

    def test_fault_counts_must_repeat(self):
        raw = tpcd_raw()
        raw["setups"][1]["rounds"][3]["queries"][2]["monet"]["faults"] += 1
        _, failures = check.check_run(raw)
        self.assertEqual(len(failures), 1)
        self.assertIn("Q3", failures[0])

    def test_engine_time_must_fit_in_the_wall_time(self):
        def span(name, start, end, parent):
            return {"name": name, "start": start, "end": end,
                    "parent": parent, "qid": 1}
        spans = [span("tpcd.q1", 0.0, 1.0, -1),
                 span("mil.stmt", 0.0, 0.6, 0),
                 span("kernel.hash_join", 0.0, 0.5, 1),
                 span("mil.stmt", 0.6, 1.0, 0)]
        self.assertEqual(check.check_children_fit(spans), (1, []))
        # A statement measured longer than the query's outside wall time.
        spans[3]["end"] = 1.1
        self.assertEqual(len(check.check_children_fit(spans)[1]), 1)
        # A kernel measured longer than its statement.
        spans[3]["end"] = 1.0
        spans[2]["end"] = 0.7
        self.assertEqual(len(check.check_children_fit(spans)[1]), 1)

    def test_lost_acknowledged_write_fails(self):
        d = {"error": "", "last_ack": 2, "last_ack_fp": "ab",
             "recovered_fp": "ab"}
        self.assertEqual(check.check_durability(d), (1, []))
        d["recovered_fp"] = "cd"
        attempted, failures = check.check_durability(d)
        self.assertEqual(attempted, 1)
        self.assertIn("lost", failures[0])


class MetricsTest(unittest.TestCase):
    def test_tpcd_end_to_end(self):
        raw = tpcd_raw()
        m, _ = metrics.end_to_end(raw)
        self.assertEqual(set(m), {n for n, _, _ in metrics.END_TO_END})
        self.assertAlmostEqual(m["setup_s"], 0.4)
        self.assertAlmostEqual(m["monet_geomean_ms"], 1.0)
        self.assertAlmostEqual(m["row_geomean_ms"], 0.5)
        self.assertAlmostEqual(m["qppd"], 0.5)
        self.assertAlmostEqual(m["monet_total_ms"], 15.0)
        self.assertEqual(m["monet_faults"], 150)
        # 3 x 12 rounds x 15 queries x 2 engines in three seconds.
        self.assertAlmostEqual(m["queries_per_s"], 360.0)

    def test_read_rounds(self):
        reads = [{"submit_at": float(i), "latency_ms": 0.5}
                 for i in range(11)]
        self.assertEqual(metrics.read_rounds(reads), [4.5, 4.5])

    def test_kernel_names(self):
        self.assertEqual(
            metrics.kernel_metric_name("datavector_semijoin(cached)"),
            "datavector_semijoin_cached")
        self.assertEqual(metrics.kernel_metric_name("hash_join"), "hash_join")
        self.assertEqual(metrics.kernel_metric_name("sum"), "other")

    def test_other_kernels_are_named_per_round(self):
        raw = {"setups": [{"rounds": [{"traced": True}, {"traced": False},
                                      {"traced": True}]}]}
        spans = [{"name": n, "start": 0.0, "end": 1.0}
                 for n in ("kernel.fetch_join", "kernel.fetch_join",
                           "kernel.hash_join", "mil.stmt", "kernel.sum")]
        self.assertEqual(metrics.other_kernels(raw, spans),
                         {"fetch_join": 1.0, "sum": 0.5})


class BenchmarkFileTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_metrics_match_the_code(self):
        self.assertEqual(
            [(m["name"], m["unit"], m["better"])
             for m in self.bench["end_to_end"]], metrics.END_TO_END)
        self.assertEqual([(m["name"], m["unit"])
                          for m in self.bench["per_layer"]],
                         metrics.PER_LAYER)

    def test_names_units_and_bounds(self):
        name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        seen = set()
        for m in (self.bench["end_to_end"] + self.bench["per_layer"] +
                  self.bench["workloads"]):
            self.assertRegex(m["name"], name_re)
            self.assertNotIn(m["name"], seen)
            seen.add(m["name"])
            if "unit" in m:
                self.assertRegex(m["unit"], unit_re)
        for m in self.bench["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in self.bench["end_to_end"]
                 if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in self.bench["end_to_end"]))
        self.assertLessEqual(len(self.bench["per_layer"]), 128)

    def test_synthetic_per_layer_is_complete(self):
        raw = tpcd_raw()
        for r in metrics.rounds(raw)[::2]:
            r["traced"] = True
            r.update(translate_ms=0.3, parse_ms=0.2, analyze_ms=1.0)
            for e in r["queries"]:
                e.update(stmt_ms=0.5, stmts=3)
        spans = [{"name": "tpcd.q1", "start": 0.0, "end": 1.0, "parent": -1,
                  "qid": 1, "nominal": False, "rows": -1},
                 {"name": "mil.stmt", "start": 0.0, "end": 0.6, "parent": 0,
                  "qid": 1, "nominal": True, "rows": -1},
                 {"name": "kernel.hash_join", "start": 0.0, "end": 0.5,
                  "parent": 1, "qid": 1, "nominal": True, "rows": 7}]
        out = metrics.per_layer(raw, spans)
        self.assertEqual(set(out), set(metrics.PER_LAYER_UNITS))
        self.assertAlmostEqual(out["tpcd.glue_ms"], 0.4)
        self.assertAlmostEqual(out["mil.interp_ms"], 0.1)
        self.assertAlmostEqual(out["kernel.hash_join.ms"], 0.5)
        self.assertAlmostEqual(out["trace.self_sum_ratio"], 1.0)
        self.assertTrue(all(math.isfinite(v) for v in out.values()))


if __name__ == "__main__":
    unittest.main()
