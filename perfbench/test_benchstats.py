"""Tests of benchstats: quartile arithmetic, the comparison of two sets of
runs, and the result-line format check."""

import copy
import statistics
import unittest

import benchstats

SPEC = {
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "solve_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "rhs_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
    "per_layer": [
        {"name": "kernel.apply_ms", "unit": "ms", "better": "lower"},
        {"name": "runtime.steals_per_op", "unit": "count", "better": "lower"},
    ],
}


def result(setup=1.0, solve=10.0, rate=100.0, attempted=50, failed=0):
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": {"setup_s": {"value": setup, "unit": "s"},
                        "solve_ms_p50": {"value": solve, "unit": "ms"},
                        "rhs_per_s": {"value": rate, "unit": "1/s"}}}


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 6.0, 8.0, 10.0]
        self.assertEqual(benchstats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_spread_is_iqr_over_median(self):
        values = [float(v) for v in range(1, 11)]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(benchstats.spread(values), (q3 - q1) / med)
        self.assertEqual(benchstats.spread([2.0] * 10), 0.0)

    def test_too_few_values(self):
        with self.assertRaises(ValueError):
            benchstats.quartiles([1.0])

    def test_worsening_direction(self):
        self.assertAlmostEqual(benchstats.worsening([10.0] * 3, [11.0] * 3, "lower"), 0.1)
        self.assertAlmostEqual(benchstats.worsening([10.0] * 3, [11.0] * 3, "higher"), -0.1)
        self.assertAlmostEqual(benchstats.worsening([10.0] * 3, [9.0] * 3, "higher"), 0.1)


class CompareSets(unittest.TestCase):
    def test_steady_sets_pass(self):
        first = [result(solve=10.0 + 0.01 * i) for i in range(10)]
        second = [result(solve=10.02 + 0.01 * i) for i in range(10)]
        rows, ok = benchstats.compare_sets(first, second, SPEC)
        self.assertTrue(ok, rows)

    def test_wide_spread_fails(self):
        first = [result(solve=v) for v in (5, 8, 10, 12, 15, 5, 8, 10, 12, 15)]
        rows, ok = benchstats.compare_sets(first, first, SPEC)
        self.assertFalse(ok)
        bad = [r["metric"] for r in rows if not r["ok"]]
        self.assertEqual(bad, ["solve_ms_p50"])

    def test_setup_spread_is_exempt_but_its_drift_is_not(self):
        noisy = [result(setup=v) for v in (1, 2, 1, 2, 1, 2, 1, 2, 1, 2)]
        _, ok = benchstats.compare_sets(noisy, noisy, SPEC)
        self.assertTrue(ok)
        slower = [result(setup=2 * v) for v in (1, 2, 1, 2, 1, 2, 1, 2, 1, 2)]
        _, ok = benchstats.compare_sets(noisy, slower, SPEC)
        self.assertFalse(ok)

    def test_throughput_drop_fails(self):
        first = [result(rate=100.0) for _ in range(10)]
        second = [result(rate=80.0) for _ in range(10)]
        _, ok = benchstats.compare_sets(first, second, SPEC)
        self.assertFalse(ok)

    def test_failed_share_must_be_equal(self):
        first = [result(attempted=10, failed=1) for _ in range(10)]
        second = [result(attempted=10, failed=1) for _ in range(9)] + [
            result(attempted=10, failed=2)]
        rows, ok = benchstats.compare_sets(first, second, SPEC)
        self.assertFalse(ok)
        self.assertFalse(rows[-1]["ok"])


    def test_equal_failures_still_fail(self):
        runs = [result(attempted=10, failed=1) for _ in range(10)]
        rows, ok = benchstats.compare_sets(runs, runs, SPEC)
        self.assertFalse(ok)
        clean = [r for r in rows if r["metric"] == "clean_runs"][0]
        self.assertEqual(clean["dirty"], 20)
        self.assertTrue(rows[-1]["ok"])  # the shares themselves agree

    def test_incorrect_run_fails(self):
        first = [result() for _ in range(10)]
        second = [result() for _ in range(10)]
        second[3]["correct"] = False
        _, ok = benchstats.compare_sets(first, second, SPEC)
        self.assertFalse(ok)


class ResultFormat(unittest.TestCase):
    def test_well_formed_line(self):
        self.assertEqual(benchstats.check_result(result(), SPEC, trace=False), [])

    def test_all_failed_line_is_well_formed(self):
        r = result(attempted=7, failed=7)
        r["correct"] = False
        self.assertEqual(benchstats.check_result(r, SPEC, trace=False), [])

    def test_traced_line_uses_per_layer_metrics(self):
        r = {"correct": True, "attempted": 3, "failed": 0,
             "metrics": {"kernel.apply_ms": {"value": 1.5, "unit": "ms"},
                         "runtime.steals_per_op": {"value": 0, "unit": "count"}}}
        self.assertEqual(benchstats.check_result(r, SPEC, trace=True), [])
        self.assertNotEqual(benchstats.check_result(r, SPEC, trace=False), [])

    def test_rejections(self):
        cases = []
        r = result(); del r["failed"]; cases.append(r)
        r = result(); r["extra"] = 1; cases.append(r)
        r = result(); r["attempted"] = 0; cases.append(r)
        r = result(); r["attempted"] = 2.0; cases.append(r)
        r = result(); r["failed"] = 51; cases.append(r)
        r = result(); r["correct"] = "yes"; cases.append(r)
        r = result(); del r["metrics"]["rhs_per_s"]; cases.append(r)
        r = result(); r["metrics"]["x"] = {"value": 1, "unit": "s"}; cases.append(r)
        r = result(); r["metrics"]["setup_s"]["unit"] = "ms"; cases.append(r)
        r = result(); r["metrics"]["setup_s"]["value"] = None; cases.append(r)
        r = result(); r["metrics"]["setup_s"]["value"] = float("inf"); cases.append(r)
        r = result(); r["metrics"]["solve_ms_p50"]["value"] = 0.0; cases.append(r)
        r = result(); r["metrics"]["solve_ms_p50"] = {"value": 1.0}; cases.append(r)
        for i, bad in enumerate(cases):
            with self.subTest(case=i):
                self.assertNotEqual(benchstats.check_result(bad, SPEC, False), [])

    def test_spec_in_repo_is_consistent(self):
        spec = benchstats.load_spec()
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))
        self.assertTrue(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
