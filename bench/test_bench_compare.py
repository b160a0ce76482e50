#!/usr/bin/env python3
"""Unit tests of bench_compare.py's verdicts on synthetic records.

    python3 bench/test_bench_compare.py
"""

import contextlib
import io
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_compare  # noqa: E402


def record(events=1000, rate=1e6, **extra):
    rec = {"bench": "b", "nodes": 200, "messages": 20, "runs": 1,
           "seed": 42, "quick": True, "wall_seconds": 0.5,
           "events": events, "events_per_second": rate,
           "plumtree_events": 400, "deliver_events_per_second": 2 * rate,
           "deliver_allocs": 0, "reliability_x": 1.0,
           "queue_event_storage": 4096}
    rec.update(extra)
    return rec


def quietly(fn, *args):
    """Runs fn, returning (its result, what it printed)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = fn(*args)
    return result, out.getvalue()


def check(base, fresh):
    return quietly(bench_compare.check_baselines,
                   {"BENCH_b.json": base}, {"BENCH_b.json": fresh})


def ab(parent_rates, change_rates, change_extra=None):
    parent = [{"BENCH_b.json": record(rate=r)} for r in parent_rates]
    change = [{"BENCH_b.json": record(rate=r, **(change_extra or {}))}
              for r in change_rates]
    return quietly(bench_compare.ab_verdict, parent, change)


class BaselineTest(unittest.TestCase):
    def test_identical_counts_pass_whatever_the_wall_time(self):
        failures, _ = check(record(), record(rate=1.0, wall_seconds=99.0))
        self.assertEqual(failures, [])

    def test_event_count_drift_fails(self):
        failures, _ = check(record(), record(events=1001))
        self.assertEqual(len(failures), 1)
        self.assertIn("events changed 1,000 → 1,001", failures[0])

    def test_sub_count_drift_fails(self):
        failures, _ = check(record(), record(plumtree_events=401))
        self.assertEqual(len(failures), 1)
        self.assertIn("plumtree_events", failures[0])

    def test_missing_gated_key_fails_naming_record_and_key(self):
        for key in ("events", "plumtree_events", "deliver_allocs",
                    "queue_event_storage"):
            fresh = record()
            del fresh[key]
            failures, _ = check(record(), fresh)
            self.assertEqual(len(failures), 1, key)
            self.assertIn("BENCH_b.json", failures[0])
            self.assertIn(f"gated key {key} is missing", failures[0])

    def test_nonzero_allocs_fails(self):
        failures, _ = check(record(), record(deliver_allocs=3))
        self.assertEqual(len(failures), 1)
        self.assertIn("deliver_allocs changed 0 → 3", failures[0])
        self.assertIn("zero-allocation", failures[0])

    def test_storage_above_baseline_fails(self):
        failures, _ = check(record(), record(queue_event_storage=4112))
        self.assertEqual(len(failures), 1)
        self.assertIn("queue_event_storage grew 4,096 → 4,112", failures[0])

    def test_storage_equal_to_baseline_passes(self):
        failures, out = check(record(), record())
        self.assertEqual(failures, [])
        self.assertIn("queue_event_storage 4,096, as in the baseline", out)

    def test_storage_below_baseline_passes_with_a_note(self):
        failures, out = check(record(), record(queue_event_storage=2048))
        self.assertEqual(failures, [])
        self.assertIn("queue_event_storage 2,048, below the baseline's 4,096",
                      out)

    def test_storage_without_a_baseline_is_not_gated(self):
        base = record()
        del base["queue_event_storage"]
        failures, _ = check(base, record(queue_event_storage=1 << 30))
        self.assertEqual(failures, [])

    def test_allocs_nonzero_in_baseline_are_not_gated(self):
        failures, _ = check(record(deliver_allocs=5), record(deliver_allocs=7))
        self.assertEqual(failures, [])

    def test_scale_mismatch_skips(self):
        failures, out = quietly(
            bench_compare.check_baselines,
            {"BENCH_b.json": record(), "BENCH_c.json": record()},
            {"BENCH_b.json": record(nodes=300, events=5),
             "BENCH_c.json": record()})
        self.assertEqual(failures, [])
        self.assertIn("SKIP BENCH_b.json: scale mismatch", out)

    def test_all_skipped_fails(self):
        failures, _ = check(record(), record(seed=7))
        self.assertEqual(failures, [bench_compare.NOTHING_COMPARED])

    def test_baseline_without_fresh_record_fails(self):
        # A deleted or renamed emitter must not drop its gate silently,
        # even while other records still compare.
        failures, out = quietly(
            bench_compare.check_baselines,
            {"BENCH_b.json": record(), "BENCH_c.json": record()},
            {"BENCH_b.json": record()})
        self.assertEqual(failures,
                         ["BENCH_c.json: not emitted by this run"])
        self.assertIn("FAIL BENCH_c.json: not emitted by this run", out)
        failures, _ = quietly(bench_compare.check_baselines,
                              {"BENCH_b.json": record()},
                              {"BENCH_c.json": record()})
        self.assertEqual(failures, ["BENCH_b.json: not emitted by this run",
                                    bench_compare.NOTHING_COMPARED])


class SameRunnerTest(unittest.TestCase):
    PARENT = [1.00e6, 0.95e6, 1.10e6, 0.80e6, 1.05e6]

    def test_change_twice_as_slow_fails(self):
        failures, _ = ab(self.PARENT, [r / 2 for r in self.PARENT])
        self.assertEqual(len(failures), 2)
        self.assertIn("events_per_second median", failures[0])
        self.assertIn("deliver_events_per_second", failures[0])

    def test_fifteen_percent_either_way_passes(self):
        for factor in (0.85, 1.15):
            failures, out = ab(self.PARENT, [r * factor for r in self.PARENT])
            self.assertEqual(failures, [], factor)
            self.assertIn("OK BENCH_b.json: events_per_second", out)

    def test_one_slow_run_does_not_move_the_median(self):
        change = list(self.PARENT)
        change[2] = 0.1e6
        failures, _ = ab(self.PARENT, change)
        self.assertEqual(failures, [])

    def test_scale_mismatch_skips(self):
        failures, out = ab(self.PARENT, [r / 2 for r in self.PARENT],
                           change_extra={"nodes": 300})
        self.assertEqual(failures, [bench_compare.NOTHING_COMPARED])
        self.assertIn("SKIP BENCH_b.json: scale mismatch", out)

    def test_driver_missing_on_one_side_skips(self):
        parent = [{"BENCH_b.json": record(), "BENCH_c.json": record()}] * 5
        change = [{"BENCH_b.json": record()}] * 5
        failures, out = quietly(bench_compare.ab_verdict, parent, change)
        self.assertEqual(failures, [])
        self.assertIn("SKIP BENCH_c.json: not emitted by the change", out)


if __name__ == "__main__":
    unittest.main()
