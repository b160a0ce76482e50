#!/usr/bin/env python3
"""Perf gates over the BENCH_*.json records the bench drivers emit.

Baseline mode (the default) diffs freshly emitted records (anywhere under
--fresh-dir, e.g. the CMake build tree after `ctest -L smoke`) against the
committed baselines in --baseline-dir. Its checks hold on any machine, and
it fails when

  * a deterministic event count (`events`, `*_events`) changed at all —
    those are bit-identical at matching scale+seed, so an exact mismatch is
    a behavior change, never noise, or
  * a zero-allocation metric (*_allocs, 0 in the baseline) became nonzero,
    or
  * a memory figure (*_storage: the event queue's storage high-water, the
    bytes of the delivered-id tables) grew past its baseline — these are
    deterministic too, so a shrink is only noted, as a gain to lock in by
    refreshing the baseline, or
  * one of those gated keys is missing from the fresh record, or
  * a committed baseline has no fresh record at all (a deleted or renamed
    emitter must take its baseline with it, not drop the gate silently).

Scale-mismatched pairs (different nodes/messages/runs/seed/quick) are
skipped with a notice instead of compared, and a run that compares nothing
fails. Wall times and throughputs are not compared here: a rate recorded on
another machine measures that machine. Refresh the baselines only when a
change intentionally moves an event count:

    ctest --test-dir build -L smoke
    python3 bench/bench_compare.py --fresh-dir build --update-baselines

A/B mode compares throughput on one machine:

    python3 bench/bench_compare.py --parent-build P --change-build C

It runs the AB_TESTS ctest entries in both build trees (each tree's own
registration, so every driver's scale stays defined in CMake) for AB_PAIRS
pairs, alternating which side runs first, and fails when the change's
median of any events/sec field is more than AB_BOUND below the parent's.
"""

import argparse
import json
import pathlib
import shutil
import statistics
import subprocess
import sys

SCALE_KEYS = ("nodes", "messages", "runs", "seed", "quick")

# Informational per-record fields: reported, never gated. phase_seconds_*
# are too machine-noisy to fail on.
# The adversarial driver's overlay-health fields (eclipse_*,
# honest_component_*, reliability_*) are deterministic measurements, not
# throughputs — drift there is a behavior change to investigate, not a perf
# regression to gate on. Same for the pub/sub driver's traffic fields
# (bytes_on_wire_*, latency_to_last_*): the hard gate for those lives in
# the driver itself (Plumtree-vs-eager reduction check) and in the exact
# *_events comparison below.
INFO_FIELD_PREFIXES = ("phase_seconds_", "eclipse_",
                       "honest_component_", "reliability_",
                       "bytes_on_wire_", "latency_to_last_")

# The smoke entries whose drivers emit a record with an events/sec field.
AB_TESTS = ("bench_micro_sim_events", "bench_fig1_smoke",
            "bench_adversarial_smoke", "bench_pubsub_smoke")
# On a 4-vCPU Xeon VM, five alternating pairs of identical binaries kept
# every rate's ratio of medians within 0.94-1.15x, while single runs spread
# 0.78-1.23x around their side's median.
AB_PAIRS = 5
AB_BOUND = 0.25

NOTHING_COMPARED = ("nothing compared (all skipped) — treated as a failure "
                    "so CI cannot silently lose the gate")


def find_bench_files(root: pathlib.Path):
    # ctest runs each driver from its registering directory, so the same
    # record can exist at several depths of the build tree (build/,
    # build/tests/, build/bench/). The newest emission is the one this run
    # produced; older duplicates are leftovers from earlier invocations.
    files = {}
    for p in sorted(root.rglob("BENCH_*.json"),
                    key=lambda p: p.stat().st_mtime):
        files[p.name] = p
    return files


def load(path: pathlib.Path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def scale(record):
    return {k: record.get(k) for k in SCALE_KEYS}


def gated_keys(base):
    """The baseline keys that must reappear in a fresh record: exact event
    counts, the allocation counters the baseline pins at zero, and the
    memory figures."""
    return sorted(k for k, v in base.items()
                  if k == "events" or k.endswith("_events")
                  or (k.endswith("_allocs") and float(v) == 0.0)
                  or k.endswith("_storage"))


def check_baselines(baselines, fresh):
    """Compares fresh records with baselines (both {file name: record}).
    Returns the failure messages; an empty list passes."""
    failures = []
    compared = 0
    for name, base in sorted(baselines.items()):
        new = fresh.get(name)
        if new is None:
            failure = "not emitted by this run"
            failures.append(f"{name}: {failure}")
            print(f"bench_compare: FAIL {name}: {failure}")
            continue
        if scale(base) != scale(new):
            print(f"bench_compare: SKIP {name}: scale mismatch "
                  f"(baseline {scale(base)}, fresh {scale(new)})")
            continue
        compared += 1

        # Informational fields (phase walls, overlay health): reported
        # when both records carry them, never gated.
        info_keys = sorted(k for k in new
                           if k.startswith(INFO_FIELD_PREFIXES) and k in base)
        for key in info_keys:
            base_v = float(base[key])
            new_v = float(new[key])
            drift = "" if base_v <= 0.0 else f" ({new_v / base_v:.2f}x)"
            print(f"bench_compare: info {name}: {key} "
                  f"{base_v:.3f} → {new_v:.3f}{drift}")

        # At matching scale+seed the simulator event count is
        # deterministic and machine-independent, so `events` (and any
        # *_events counter) must match EXACTLY. A drift here is a behavior
        # change — scheduler order, RNG draws, protocol logic — hiding in a
        # perf record, and refactor PRs lean on this as their "numbers
        # unchanged" proof.
        for key in gated_keys(base):
            if key not in new:
                failure = f"gated key {key} is missing from the fresh record"
            elif key.endswith("_storage"):
                base_v, new_v = int(base[key]), int(new[key])
                if new_v <= base_v:
                    verdict = ("as in the baseline" if new_v == base_v else
                               f"below the baseline's {base_v:,} — refresh "
                               "it to lock the gain in")
                    print(f"bench_compare: OK {name}: {key} {new_v:,}, "
                          f"{verdict}")
                    continue
                failure = (f"{key} grew {base_v:,} → {new_v:,} — memory "
                           "figures are exact at matching scale+seed")
            elif int(new[key]) != int(base[key]):
                why = ("the zero-allocation steady state regressed"
                       if key.endswith("_allocs") else
                       "event counts are exact at matching scale+seed")
                failure = (f"{key} changed {int(base[key]):,} → "
                           f"{int(new[key]):,} — {why}")
            else:
                print(f"bench_compare: OK {name}: {key} "
                      f"{int(new[key]):,}, as in the baseline")
                continue
            failures.append(f"{name}: {failure}")
            print(f"bench_compare: FAIL {name}: {failure}")

    # A fresh bench with no committed baseline is unguarded: surface it so
    # new drivers cannot silently escape the gate.
    for name in sorted(set(fresh) - set(baselines)):
        print(f"bench_compare: NOTICE {name}: no committed baseline — add "
              "one with --update-baselines to put it under the gate")

    if compared == 0:
        failures.append(NOTHING_COMPARED)
    return failures


def rate_keys(record):
    return sorted(k for k in record
                  if k == "events_per_second"
                  or k.endswith("_events_per_second"))


def ab_verdict(parent_runs, change_runs):
    """Compares throughput medians. Each argument holds one
    {file name: record} dict per run of that side. Returns the failure
    messages; an empty list passes."""
    failures = []
    compared = 0
    names = sorted(set().union(*parent_runs, *change_runs))
    for name in names:
        parent = [run[name] for run in parent_runs if name in run]
        change = [run[name] for run in change_runs if name in run]
        if not parent or not change:
            side = "parent" if not parent else "change"
            print(f"bench_compare: SKIP {name}: not emitted by the {side}")
            continue
        other = [r for r in parent + change if scale(r) != scale(parent[0])]
        if other:
            print(f"bench_compare: SKIP {name}: scale mismatch "
                  f"(parent {scale(parent[0])}, other run "
                  f"{scale(other[0])})")
            continue
        compared += 1
        for key in rate_keys(parent[0]):
            if any(key not in r for r in parent + change):
                print(f"bench_compare: SKIP {name}: {key} is not in every "
                      "record")
                continue
            parent_med = statistics.median(float(r[key]) for r in parent)
            change_med = statistics.median(float(r[key]) for r in change)
            if parent_med <= 0.0:
                continue
            ratio = change_med / parent_med
            verdict = "OK"
            if ratio < 1.0 - AB_BOUND:
                verdict = "FAIL"
                failures.append(
                    f"{name}: {key} median {parent_med:,.0f} → "
                    f"{change_med:,.0f} ({ratio:.2f}x, bound "
                    f"{1.0 - AB_BOUND:.2f}x)")
            print(f"bench_compare: {verdict} {name}: {key} median parent "
                  f"{parent_med:,.0f}, change {change_med:,.0f} "
                  f"({ratio:.2f}x)")
    if compared == 0:
        failures.append(NOTHING_COMPARED)
    return failures


def run_side(build: pathlib.Path):
    """Runs the AB_TESTS entries once in one build tree. Returns the
    records they wrote and ctest's exit code."""
    before = {p: p.stat().st_mtime_ns for p in build.rglob("BENCH_*.json")}
    proc = subprocess.run(
        ["ctest", "--test-dir", str(build), "--output-on-failure",
         "-R", "^(" + "|".join(AB_TESTS) + ")$"],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        print(proc.stdout, end="")
    records = {p.name: load(p) for p in build.rglob("BENCH_*.json")
               if before.get(p) != p.stat().st_mtime_ns}
    return records, proc.returncode


def run_ab(parent_build: pathlib.Path, change_build: pathlib.Path):
    parent_runs, change_runs = [], []
    for pair in range(AB_PAIRS):
        sides = [(parent_build, parent_runs), (change_build, change_runs)]
        if pair % 2 == 1:
            sides.reverse()
        for build, runs in sides:
            records, rc = run_side(build)
            if rc != 0 and build is change_build:
                print(f"bench_compare: ctest failed in {build} (pair "
                      f"{pair + 1})")
                return 1
            runs.append(records)
        print(f"bench_compare: pair {pair + 1}/{AB_PAIRS} done")
    failures = ab_verdict(parent_runs, change_runs)
    return report(failures, "within the same-runner bound")


def report(failures, ok_text):
    if failures:
        print("\nbench_compare: FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"bench_compare: {ok_text}.")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--baseline-dir", default="bench/baselines",
                        type=pathlib.Path)
    parser.add_argument("--fresh-dir", default="build", type=pathlib.Path)
    parser.add_argument("--update-baselines", action="store_true",
                        help="copy fresh records over the baselines instead "
                             "of comparing")
    parser.add_argument("--parent-build", type=pathlib.Path,
                        help="A/B mode: the parent commit's build tree")
    parser.add_argument("--change-build", type=pathlib.Path,
                        help="A/B mode: the change's build tree")
    args = parser.parse_args()

    if (args.parent_build is None) != (args.change_build is None):
        parser.error("--parent-build and --change-build go together")
    if args.parent_build is not None:
        return run_ab(args.parent_build, args.change_build)

    fresh = find_bench_files(args.fresh_dir)
    if not fresh:
        print(f"bench_compare: no BENCH_*.json under {args.fresh_dir} — "
              "run the smoke benches first (ctest -L smoke)")
        return 1

    if args.update_baselines:
        args.baseline_dir.mkdir(parents=True, exist_ok=True)
        for name, path in fresh.items():
            shutil.copy(path, args.baseline_dir / name)
            print(f"bench_compare: baseline updated: {name}")
        return 0

    baselines = find_bench_files(args.baseline_dir)
    if not baselines:
        print(f"bench_compare: no baselines under {args.baseline_dir}")
        return 1
    failures = check_baselines(
        {name: load(path) for name, path in baselines.items()},
        {name: load(path) for name, path in fresh.items()})
    return report(failures, "every gated count matches its baseline")


if __name__ == "__main__":
    sys.exit(main())
