#!/usr/bin/env python3
"""Runs every given spec through hpv_run at HPV_THREADS=1 and HPV_THREADS=4
and checks that the two BENCH json records are identical apart from their
timing fields. Two runs of one program must agree exactly, so this is also
the determinism check of every committed spec.

    python3 hpv_run_sweeps_test.py <hpv_run> <work dir> <spec.json>...

Scale: 48 nodes, 3 messages, 2 runs per point, so a spec without a sweep
block runs as two points and still spreads over two threads.
"""

import json
import os
import pathlib
import subprocess
import sys

SCALE = {"HPV_NODES": "48", "HPV_MSGS": "3", "HPV_RUNS": "2"}
TIMING_KEYS = {"wall_seconds", "events_per_second", "threads"}


def untimed(value):
    """The record with every timing field dropped, at any depth."""
    if isinstance(value, dict):
        return {k: untimed(v) for k, v in value.items()
                if k not in TIMING_KEYS and not k.startswith("phase_seconds_")}
    if isinstance(value, list):
        return [untimed(v) for v in value]
    return value


def run(hpv_run, spec, out, threads):
    env = dict(os.environ, HPV_THREADS=str(threads), **SCALE)
    subprocess.run([hpv_run, str(spec), f"--out={out}"], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    with open(out, encoding="utf-8") as f:
        return json.load(f)


def main():
    hpv_run, work = sys.argv[1], pathlib.Path(sys.argv[2])
    work.mkdir(parents=True, exist_ok=True)
    failures = []
    checked = 0
    for spec in map(pathlib.Path, sys.argv[3:]):
        serial = run(hpv_run, spec, work / f"{spec.stem}_t1.json", 1)
        threaded = run(hpv_run, spec, work / f"{spec.stem}_t4.json", 4)
        checked += 1
        if serial["threads"] != 1 or threaded["threads"] < 2:
            failures.append(f"{spec.stem}: ran on {serial['threads']} and "
                            f"{threaded['threads']} threads")
        same = untimed(serial) == untimed(threaded)
        if not same:
            failures.append(f"{spec.stem}: records differ between 1 and 4 "
                            "threads")
        print(f"{spec.stem}: {len(serial['points'])} points, "
              f"{serial['events']} events, "
              f"{'identical' if same else 'DIFFERENT'} at 1 and 4 threads")
    if checked == 0:
        failures.append("no spec was given")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
