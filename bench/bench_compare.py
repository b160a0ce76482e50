#!/usr/bin/env python3
"""Perf-regression gate over the BENCH_*.json records.

Every bench driver emits a machine-readable BENCH_<name>.json (wall seconds,
simulator events, events/sec, scale knobs). This script diffs freshly
emitted records (anywhere under --fresh-dir, e.g. the CMake build tree after
`ctest -L smoke`) against the committed baselines in --baseline-dir and
fails when

  * events_per_second dropped by more than --tolerance (default 25%), or
  * a zero-allocation metric (*_allocs) became nonzero, or
  * a deterministic event count (`events`, `*_events`) changed at all —
    those are bit-identical at matching scale+seed on any machine, so an
    exact mismatch is a behavior change, never noise.

Scale-mismatched pairs (different nodes/messages/runs/seed/quick) are
skipped with a notice instead of compared: throughput is only meaningful at
identical scale.

Renamed drivers keep their baselines: RENAMED_BENCHES maps an old baseline
file name to the name the driver emits today, so a rename does not silently
drop the record out of the gate (an old-named baseline whose new-named fresh
record exists is compared under the new name).

Per-phase timing fields (phase_seconds_*, emitted by the Experiment-driven
drivers) are informational: they are reported when both records carry them
but never gate — walls are too machine-noisy to fail on. Per-workload
throughputs (*_events_per_second, e.g. micro_sim_events' deliver/timer
rates) gate exactly like the aggregate.

Baselines are machine-relative. Refresh them on the reference machine with:

    ctest --test-dir build -L smoke
    python3 bench/bench_compare.py --fresh-dir build --update-baselines

Tolerance can also come from HPV_BENCH_TOLERANCE (a fraction, e.g. 0.25).
"""

import argparse
import json
import os
import pathlib
import shutil
import sys

SCALE_KEYS = ("nodes", "messages", "runs", "seed", "quick")

# Old baseline file name → the name the (renamed) driver emits today. Add an
# entry whenever a bench driver (and hence its BENCH_<name>.json) is renamed,
# then refresh the baseline under the new name at the next opportunity.
RENAMED_BENCHES = {}

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
PHASE_FIELD_PREFIX = "phase_seconds_"

# Per-workload throughput fields (e.g. micro_sim_events'
# deliver_events_per_second / timer_events_per_second) gate exactly like the
# aggregate events_per_second: a regression in one workload must not hide
# inside a combined-run aggregate.
RATE_FIELD_SUFFIX = "_events_per_second"


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", default="bench/baselines",
                        type=pathlib.Path)
    parser.add_argument("--fresh-dir", default="build", type=pathlib.Path)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("HPV_BENCH_TOLERANCE", "0.25")),
        help="allowed fractional events/sec drop (default 0.25 = 25%%)")
    parser.add_argument("--update-baselines", action="store_true",
                        help="copy fresh records over the baselines instead "
                             "of comparing")
    args = parser.parse_args()

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

    failures = []
    compared = 0
    for name, base_path in sorted(baselines.items()):
        fresh_name = RENAMED_BENCHES.get(name, name)
        if fresh_name not in fresh:
            print(f"bench_compare: SKIP {name}: not emitted by this run")
            continue
        if fresh_name != name:
            print(f"bench_compare: NOTE {name}: driver renamed, comparing "
                  f"against {fresh_name} (refresh the baseline under the "
                  "new name)")
        base = load(base_path)
        new = load(fresh[fresh_name])
        if any(base.get(k) != new.get(k) for k in SCALE_KEYS):
            base_scale = {k: base.get(k) for k in SCALE_KEYS}
            new_scale = {k: new.get(k) for k in SCALE_KEYS}
            print(f"bench_compare: SKIP {name}: scale mismatch "
                  f"(baseline {base_scale}, fresh {new_scale})")
            continue
        compared += 1

        rate_keys = ["events_per_second"] + sorted(
            k for k in base if k.endswith(RATE_FIELD_SUFFIX))
        for rate_key in rate_keys:
            base_eps = float(base.get(rate_key, 0.0))
            new_eps = float(new.get(rate_key, 0.0))
            if base_eps <= 0.0:
                continue
            ratio = new_eps / base_eps
            verdict = "OK"
            if ratio < 1.0 - args.tolerance:
                verdict = "FAIL"
                failures.append(
                    f"{name}: {rate_key} regressed {base_eps:,.0f} → "
                    f"{new_eps:,.0f} ({ratio:.2f}x, tolerance "
                    f"{1.0 - args.tolerance:.2f}x)")
            print(f"bench_compare: {verdict} {name}: {rate_key} "
                  f"{base_eps:,.0f} → {new_eps:,.0f} ({ratio:.2f}x)")

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

        # Bit-identity fields: at matching scale+seed the simulator event
        # count is deterministic and machine-independent, so `events` (and
        # any *_events counter) must match EXACTLY. A drift here is a
        # behavior change — scheduler order, RNG draws, protocol logic —
        # hiding in a perf record, and hardened-build/refactor PRs lean on
        # this as their "numbers unchanged" proof.
        for key in sorted(k for k in base
                          if k == "events" or k.endswith("_events")):
            if key not in new:
                continue
            base_events = int(base[key])
            new_events = int(new[key])
            if base_events != new_events:
                failures.append(
                    f"{name}: {key} changed {base_events:,} → "
                    f"{new_events:,} — deterministic event count must be "
                    "bit-identical at matching scale+seed")
                print(f"bench_compare: FAIL {name}: {key} "
                      f"{base_events:,} → {new_events:,} (must be exact)")
            else:
                print(f"bench_compare: OK {name}: {key} bit-identical "
                      f"({base_events:,})")

        for key, base_value in base.items():
            if key.startswith(INFO_FIELD_PREFIXES):
                continue  # informational, handled above
            if key.endswith("_allocs") and float(base_value) == 0.0:
                new_value = float(new.get(key, 0.0))
                if new_value != 0.0:
                    failures.append(
                        f"{name}: {key} was 0, now {new_value:.0f} — the "
                        "zero-allocation steady state regressed")
                    print(f"bench_compare: FAIL {name}: {key} "
                          f"0 → {new_value:.0f}")

    # A fresh bench with no committed baseline is unguarded: surface it so
    # new drivers cannot silently escape the gate.
    guarded = set(baselines) | {RENAMED_BENCHES.get(n, n) for n in baselines}
    for name in sorted(set(fresh) - guarded):
        print(f"bench_compare: NOTICE {name}: no committed baseline — add "
              "one with --update-baselines to put it under the gate")

    if compared == 0:
        print("bench_compare: nothing compared (all skipped) — treat as "
              "failure so CI cannot silently lose the gate")
        return 1
    if failures:
        print("\nbench_compare: PERF REGRESSION:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"bench_compare: {compared} bench(es) within tolerance.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
