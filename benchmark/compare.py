#!/usr/bin/env python3
"""A/B comparison of two commits on the repository benchmark.

    python3 benchmark/compare.py run --a PARENT --b CHANGE --out DIR
                                 [--pairs 10] [--seed 1000] [--workload W ...]
    python3 benchmark/compare.py report DIR/a DIR/b

`run` takes two checkouts. Pair i runs every selected workload on both of
them with seed SEED + i // 2, the parent first on even i and the change
first on odd i, each through that checkout's own benchmark/run.py (which
builds in that checkout). So every seed runs twice on each side, once in
each order. Results go to DIR/a/<i> and DIR/b/<i>, then the report is
printed. `report` reads result files that run.py wrote (its --results-dir);
runs of one side on one seed pair up with the other side's in order.

The report has one row per end-to-end metric and workload, with each side's
median and quartiles, plus one failed-share row per workload. Bounds and
directions come from BENCHMARK.json (--benchmark). Verdicts:

  gain          at least 10 pairs and the change wins at least 9 in 10 of
                them (ties count for neither side); for a metric the result
                files list as exact (a simulator output fixed by the seed)
                the change must win every pair, otherwise the medians must
                also differ by more than the parent's interquartile distance;
  regression    the change's median is worse than the parent's by more than
                the bound;
  unresolved    the parent's spread (interquartile distance over median)
                exceeds the bound, and not every change run reads better than
                every parent run;
  within-bound  none of the above;
  exact         an exact metric is equal on every pair;
  changed       an exact metric moved, but neither as a gain nor by more
                than its bound;
  exact-drift   one side gave two values of an exact metric on one seed;
  failed-share-grew
                more of the attempted operations failed on the change.

Exit code 1 when any row is a regression, an exact-drift or a grown failed
share; 2 when the two sides ran with different run lengths.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9
FAILING = {"regression", "exact-drift", "failed-share-grew"}


class RunLengthMismatch(Exception):
    """The two sides' results were not measured with the same run length."""


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def load_results(directory):
    runs = []
    for path in sorted(Path(directory).rglob("*.json")):
        if path.name.endswith(".chrome.json"):
            continue
        with open(path) as f:
            record = json.load(f)
        if record.get("trace"):
            continue
        runs.append(record)
    return runs


def better(spec, a, b):
    """True when value b is better than value a for this metric."""
    return b < a if spec["better"] == "lower" else b > a


def metric_row(spec, workload, pairs, exact, drift=False):
    """One verdict for a metric on a workload. `pairs` is a list of
    (parent value, change value) measured on the same seed; `drift` marks
    an exact metric that one side did not repeat on some seed."""
    a = [p[0] for p in pairs]
    b = [p[1] for p in pairs]
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    wins = sum(1 for x, y in pairs if better(spec, x, y))
    losses = sum(1 for x, y in pairs if better(spec, y, x))
    row = {
        "workload": workload, "metric": spec["name"], "unit": spec["unit"],
        "bound": spec["bound"], "pairs": len(pairs), "wins": wins,
        "losses": losses, "a": (a_q1, a_med, a_q3), "b": (b_q1, b_med, b_q3),
    }
    scale = abs(a_med) if a_med else 1.0
    worse_by = (b_med - a_med if spec["better"] == "lower"
                else a_med - b_med) / scale
    enough = len(pairs) >= MIN_PAIRS
    if exact:
        if drift:
            row["verdict"] = "exact-drift"
        elif a == b:
            row["verdict"] = "exact"
        elif enough and wins == len(pairs):
            row["verdict"] = "gain"
        elif worse_by > spec["bound"]:
            row["verdict"] = "regression"
        else:
            row["verdict"] = "changed"
        return row
    spread = (a_q3 - a_q1) / scale
    all_better = all(better(spec, x, y) for x in a for y in b)
    if (enough and wins >= WIN_SHARE * len(pairs)
            and worse_by < 0 and abs(b_med - a_med) > a_q3 - a_q1):
        row["verdict"] = "gain"
    elif spread > spec["bound"] and not all_better:
        row["verdict"] = "unresolved"
    elif worse_by > spec["bound"]:
        row["verdict"] = "regression"
    else:
        row["verdict"] = "within-bound"
    return row


def by_seed(runs):
    grouped = {}
    for r in runs:
        grouped.setdefault((r["workload"], r["seed"]), []).append(r)
    return grouped


def run_length(record):
    return record.get("seconds"), record.get("passes")


def repeats(runs, name):
    """True when every run of one seed gave the same value."""
    return len({r["metrics"][name]["value"] for r in runs}) <= 1


def evaluate(bench, runs_a, runs_b):
    """Rows for every end-to-end metric × workload both sides ran."""
    by_a = by_seed(runs_a)
    by_b = by_seed(runs_b)
    keys = sorted(set(by_a) & set(by_b))
    workloads = [w["name"] for w in bench["workloads"]
                 if any(k[0] == w["name"] for k in keys)]
    rows = []
    for workload in workloads:
        seeds = [k for k in keys if k[0] == workload]
        records = [r for k in seeds for r in by_a[k] + by_b[k]]
        lengths = {run_length(r) for r in records}
        if len(lengths) > 1:
            raise RunLengthMismatch(
                f"{workload}: results differ in (seconds, passes): "
                f"{sorted(lengths, key=str)}")
        exact = set(records[0].get("exact", []))
        for r in records:
            exact &= set(r.get("exact", []))
        for spec in bench["end_to_end"]:
            name = spec["name"]
            pairs = [(x["metrics"][name]["value"], y["metrics"][name]["value"])
                     for k in seeds for x, y in zip(by_a[k], by_b[k])]
            drift = not all(repeats(by_a[k], name) and repeats(by_b[k], name)
                            for k in seeds)
            rows.append(metric_row(spec, workload, pairs, name in exact,
                                   drift))
        attempted_a = sum(r["attempted"] for k in seeds for r in by_a[k])
        attempted_b = sum(r["attempted"] for k in seeds for r in by_b[k])
        failed_a = sum(r["failed"] for k in seeds for r in by_a[k])
        failed_b = sum(r["failed"] for k in seeds for r in by_b[k])
        share_a = failed_a / max(attempted_a, 1)
        share_b = failed_b / max(attempted_b, 1)
        rows.append({
            "workload": workload, "metric": "failed_share", "unit": "fraction",
            "bound": 0.0, "pairs": len(seeds), "wins": 0, "losses": 0,
            "a": (share_a, share_a, share_a), "b": (share_b, share_b, share_b),
            "verdict": "failed-share-grew" if share_b > share_a else "ok",
        })
    return rows


def format_rows(rows):
    head = (f"{'workload':20} {'metric':20} {'parent q1/med/q3':>32} "
            f"{'change q1/med/q3':>32} {'wins':>7} {'bound':>6}  verdict")
    lines = [head, "-" * len(head)]
    for r in rows:
        a = "/".join(f"{v:.4g}" for v in r["a"])
        b = "/".join(f"{v:.4g}" for v in r["b"])
        lines.append(f"{r['workload']:20} {r['metric']:20} {a:>32} {b:>32} "
                     f"{r['wins']:>3}/{r['pairs']:<3} {r['bound']:>6}  "
                     f"{r['verdict']}")
    return "\n".join(lines)


def run_pairs(args, bench):
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    sides = {"a": Path(args.a).resolve(), "b": Path(args.b).resolve()}
    out = Path(args.out).resolve()
    for i in range(args.pairs):
        order = ("a", "b") if i % 2 == 0 else ("b", "a")
        seed = args.seed + i // 2
        for workload in workloads:
            for side in order:
                cmd = [sys.executable, "benchmark/run.py", "--workload",
                       workload, "--seed", str(seed),
                       "--results-dir", str(out / side / str(i))]
                done = subprocess.run(cmd, cwd=sides[side], env=env,
                                      stdout=subprocess.DEVNULL)
                if done.returncode != 0:
                    sys.exit(f"compare.py: {side} {workload} seed {seed} "
                             f"exited {done.returncode}")
                print(f"pair {i} {side} {workload} done", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(
        description="A/B comparison on the repository benchmark")
    parser.add_argument("--benchmark", type=Path,
                        default=ROOT / "BENCHMARK.json")
    sub = parser.add_subparsers(dest="mode", required=True)
    run = sub.add_parser("run", help="run alternating pairs, then report")
    run.add_argument("--a", required=True, help="parent checkout")
    run.add_argument("--b", required=True, help="change checkout")
    run.add_argument("--out", required=True, help="results directory")
    run.add_argument("--pairs", type=int, default=MIN_PAIRS)
    run.add_argument("--seed", type=int, default=1000)
    run.add_argument("--workload", action="append")
    report = sub.add_parser("report", help="report on existing results")
    report.add_argument("a", help="parent results directory")
    report.add_argument("b", help="change results directory")
    args = parser.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    if args.mode == "run":
        run_pairs(args, bench)
        dir_a, dir_b = Path(args.out) / "a", Path(args.out) / "b"
    else:
        dir_a, dir_b = args.a, args.b
    try:
        rows = evaluate(bench, load_results(dir_a), load_results(dir_b))
    except RunLengthMismatch as e:
        print(f"compare.py: {e}", file=sys.stderr)
        sys.exit(2)
    if not rows:
        sys.exit("compare.py: no workload has results on both sides")
    print(format_rows(rows))
    sys.exit(1 if any(r["verdict"] in FAILING for r in rows) else 0)


if __name__ == "__main__":
    main()
