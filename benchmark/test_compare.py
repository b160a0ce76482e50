#!/usr/bin/env python3
"""Unit tests of compare.py's verdicts on synthetic result sets.

    python3 benchmark/test_compare.py
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402

BENCH = {
    "workloads": [{"name": "w1"}, {"name": "w2"}],
    "end_to_end": [
        {"name": "work_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "msgs_per_s", "unit": "msg/s", "better": "higher",
         "bound": 0.1},
        {"name": "latency_p99_ms", "unit": "ms", "better": "lower",
         "bound": 0.1},
    ],
}


def record(workload, seed, work_s, msgs_per_s=100.0, latency=5.0,
           attempted=100, failed=0, exact=("latency_p99_ms",), seconds=20):
    return {
        "workload": workload, "seed": seed, "trace": False,
        "seconds": seconds, "passes": 3,
        "attempted": attempted, "failed": failed, "exact": list(exact),
        "metrics": {
            "work_s": {"value": work_s, "unit": "s"},
            "msgs_per_s": {"value": msgs_per_s, "unit": "msg/s"},
            "latency_p99_ms": {"value": latency, "unit": "ms"},
        },
    }


def jitter(i):
    """Small deterministic run-to-run noise, under 1%."""
    return 1.0 + 0.002 * ((i * 7) % 5 - 2)


def rows_by_metric(runs_a, runs_b):
    rows = compare.evaluate(BENCH, runs_a, runs_b)
    return {(r["workload"], r["metric"]): r for r in rows}


class CompareTest(unittest.TestCase):
    def test_clean_win(self):
        a = [record("w1", s, 10.0 * jitter(s)) for s in range(10)]
        b = [record("w1", s, 8.0 * jitter(s + 1)) for s in range(10)]
        rows = rows_by_metric(a, b)
        self.assertEqual(rows["w1", "work_s"]["verdict"], "gain")
        self.assertEqual(rows["w1", "work_s"]["wins"], 10)
        self.assertEqual(rows["w1", "msgs_per_s"]["verdict"], "within-bound")
        self.assertEqual(rows["w1", "latency_p99_ms"]["verdict"], "exact")
        self.assertEqual(rows["w1", "failed_share"]["verdict"], "ok")

    def test_win_needs_ten_pairs(self):
        a = [record("w1", s, 10.0 * jitter(s)) for s in range(9)]
        b = [record("w1", s, 8.0 * jitter(s)) for s in range(9)]
        self.assertEqual(rows_by_metric(a, b)["w1", "work_s"]["verdict"],
                         "within-bound")

    def test_regression(self):
        a = [record("w1", s, 10.0 * jitter(s), msgs_per_s=100.0)
             for s in range(10)]
        b = [record("w1", s, 10.0 * jitter(s), msgs_per_s=85.0)
             for s in range(10)]
        rows = rows_by_metric(a, b)
        self.assertEqual(rows["w1", "msgs_per_s"]["verdict"], "regression")
        self.assertEqual(rows["w1", "work_s"]["verdict"], "within-bound")

    def test_unresolved_when_parent_spread_exceeds_bound(self):
        noisy = [7.0, 13.0, 8.0, 12.0, 9.0, 11.0, 7.5, 12.5, 10.0, 10.0]
        a = [record("w1", s, v) for s, v in enumerate(noisy)]
        b = [record("w1", s, v * 1.05) for s, v in enumerate(noisy)]
        self.assertEqual(rows_by_metric(a, b)["w1", "work_s"]["verdict"],
                         "unresolved")

    def test_noisy_parent_but_every_change_run_better(self):
        noisy = [9.0, 11.0, 9.5, 10.5, 10.0, 9.2, 10.8, 9.9, 10.1, 10.0]
        a = [record("w1", s, v) for s, v in enumerate(noisy)]
        b = [record("w1", s, 5.0 + 0.1 * s) for s in range(10)]
        self.assertNotEqual(rows_by_metric(a, b)["w1", "work_s"]["verdict"],
                            "unresolved")

    def test_exact_metric_gain(self):
        a = [record("w1", s, 10.0, latency=5.0 + 0.1 * s) for s in range(10)]
        b = [record("w1", s, 10.0, latency=4.0 + 0.1 * s) for s in range(10)]
        rows = rows_by_metric(a, b)
        self.assertEqual(rows["w1", "latency_p99_ms"]["verdict"], "gain")

    def test_exact_metric_gain_needs_every_pair(self):
        a = [record("w1", s, 10.0, latency=5.0) for s in range(10)]
        b = [record("w1", s, 10.0, latency=5.0 if s == 4 else 4.0)
             for s in range(10)]
        rows = rows_by_metric(a, b)
        self.assertEqual(rows["w1", "latency_p99_ms"]["verdict"], "changed")

    def test_exact_metric_regression(self):
        a = [record("w1", s, 10.0, latency=5.0) for s in range(10)]
        b = [record("w1", s, 10.0, latency=6.0) for s in range(10)]
        rows = rows_by_metric(a, b)
        self.assertEqual(rows["w1", "latency_p99_ms"]["verdict"],
                         "regression")

    def test_exact_metric_change_within_bound(self):
        a = [record("w1", s, 10.0, latency=5.0) for s in range(10)]
        b = [record("w1", s, 10.0, latency=5.0 if s else 5.2)
             for s in range(10)]
        rows = rows_by_metric(a, b)
        self.assertEqual(rows["w1", "latency_p99_ms"]["verdict"], "changed")

    def test_exact_metric_drift(self):
        # The change gives two values on seed 3: its output is not fixed by
        # the seed, even though it matches the parent on the other run.
        a = [record("w1", s, 10.0) for s in range(5) for _ in range(2)]
        b = [record("w1", s, 10.0, latency=4.9 if (s, r) == (3, 1) else 5.0)
             for s in range(5) for r in range(2)]
        rows = rows_by_metric(a, b)
        self.assertEqual(rows["w1", "latency_p99_ms"]["verdict"],
                         "exact-drift")
        self.assertEqual(rows["w1", "latency_p99_ms"]["pairs"], 10)

    def test_inexact_metric_is_not_held_to_equality(self):
        a = [record("w1", s, 10.0, latency=5.0, exact=()) for s in range(10)]
        b = [record("w1", s, 10.0, latency=5.01, exact=()) for s in range(10)]
        self.assertEqual(
            rows_by_metric(a, b)["w1", "latency_p99_ms"]["verdict"],
            "within-bound")

    def test_failed_share_growth(self):
        a = [record("w1", s, 10.0, failed=0) for s in range(10)]
        b = [record("w1", s, 10.0, failed=1 if s == 3 else 0)
             for s in range(10)]
        rows = rows_by_metric(a, b)
        self.assertEqual(rows["w1", "failed_share"]["verdict"],
                         "failed-share-grew")

    def test_one_row_per_metric_and_workload(self):
        a = [record(w, s, 10.0) for w in ("w1", "w2") for s in range(3)]
        b = [record(w, s, 10.0) for w in ("w1", "w2") for s in range(3)]
        rows = compare.evaluate(BENCH, a, b)
        self.assertEqual(len(rows), 2 * (len(BENCH["end_to_end"]) + 1))
        self.assertEqual(len({(r["workload"], r["metric"]) for r in rows}),
                         len(rows))

    def test_refuses_different_run_lengths(self):
        a = [record("w1", s, 10.0) for s in range(10)]
        b = [record("w1", s, 10.0, seconds=10) for s in range(10)]
        with self.assertRaises(compare.RunLengthMismatch):
            compare.evaluate(BENCH, a, b)

    def test_load_results_skips_traces(self):
        with tempfile.TemporaryDirectory() as d:
            Path(d, "w1-seed1.json").write_text(json.dumps(record("w1", 1, 1)))
            traced = dict(record("w1", 1, 1), trace=True)
            Path(d, "w1-seed1-trace.json").write_text(json.dumps(traced))
            Path(d, "w1-seed1-trace.chrome.json").write_text("{}")
            runs = compare.load_results(d)
        self.assertEqual(len(runs), 1)
        self.assertFalse(runs[0]["trace"])


if __name__ == "__main__":
    unittest.main()
