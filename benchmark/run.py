#!/usr/bin/env python3
"""Repository benchmark: builds hpv_bench, runs the workloads, checks them.

    python3 benchmark/run.py [--workload W] [--seed N] [--seconds S]
                             [--trace [0|1]] [--results-dir DIR]

Without --workload every workload named in BENCHMARK.json runs, one after
another, each in its own single-threaded process. The build goes to
$CARGO_TARGET_DIR (default .bench_build) inside the checkout.

Each workload file fixes its number of passes, sized so that a run
measures about BENCHMARK.json's run_seconds. --seconds is accepted only
with that value, so every result comes from the same run length.

Output: one "workload metric value unit" line per metric (the end-to-end
metrics, or with --trace the per-layer ones), then, as the last line, one
JSON object {"correct", "attempted", "failed", "metrics"}. The full result,
with a machine descriptor, is written to
<results-dir>/<workload>-seed<N>[-trace].json (default
<build dir>/results). A failed correctness check is named on stderr with
its workload, and the exit code is then 1; a build or run error exits 2.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_benchmark():
    try:
        with open(ROOT / "BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(out_dir):
    """Configures once, then builds hpv_bench; tool output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out_dir), "--target", "hpv_bench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            fail(f"{cmd[0]}: {e}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return out_dir / "hpv_bench"


def machine(result):
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and \
                Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "platform": platform.platform(),
        "compiler": result["build"]["compiler"],
        "build_type": result["build"]["build_type"],
        "git_commit": commit,
    }


def select_metrics(result, specs, trace):
    """The metrics BENCHMARK.json names, with the units it names."""
    produced = result["per_layer" if trace else "end_to_end"]
    metrics = {}
    for spec in specs:
        name = spec["name"]
        m = produced.get(name)
        if m is None and trace and name.startswith("harness.") \
                and name.endswith("_s"):
            m = {"value": 0.0, "unit": "s"}  # a phase this workload lacks
        if m is None:
            fail(f"{result['workload']}: hpv_bench produced no metric {name}")
        if m["unit"] != spec["unit"]:
            fail(f"{name}: hpv_bench reports unit {m['unit']}, "
                 f"BENCHMARK.json says {spec['unit']}")
        metrics[name] = {"value": m["value"], "unit": spec["unit"]}
    return metrics


def run_workload(exe, name, args, results_dir):
    workload = BENCH_DIR / "workloads" / f"{name}.json"
    if not workload.exists():
        fail(f"no workload file {workload}")
    suffix = "-trace" if args.trace else ""
    stem = f"{name}-seed{args.seed}{suffix}"
    cmd = [str(exe), f"--workload={workload}", f"--seed={args.seed}",
           f"--trace={args.trace}"]
    if args.trace:
        cmd.append(f"--trace-out={results_dir / (stem + '.chrome.json')}")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{name}: hpv_bench ran past {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{name}: hpv_bench exited with {done.returncode}")
    return json.loads(lines[-1]), stem


def main():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"],
                        help="must equal run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1], help="per-layer traced run")
    parser.add_argument("--results-dir", type=Path)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if args.seconds != bench["run_seconds"]:
        fail(f"--seconds {args.seconds:g}: the workloads' pass counts are "
             f"sized for run_seconds {bench['run_seconds']}")

    out_dir = build_dir()
    exe = build(out_dir)
    results_dir = (args.results_dir or out_dir / "results").resolve()
    results_dir.mkdir(parents=True, exist_ok=True)
    specs = bench["per_layer" if args.trace else "end_to_end"]

    selected = [args.workload] if args.workload else names
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in selected:
        result, stem = run_workload(exe, name, args, results_dir)
        metrics = select_metrics(result, specs, args.trace)
        record = {
            "workload": name,
            "seed": args.seed,
            "trace": bool(args.trace),
            "seconds": bench["run_seconds"],
            "passes": sum(1 for p in result["passes"] if not p["traced"]),
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
            "exact": [m for m in result["exact"] if m in metrics],
            "machine": machine(result),
            "hpv_bench": result,
        }
        with open(results_dir / f"{stem}.json", "w") as f:
            json.dump(record, f, indent=2)
            f.write("\n")

        for metric, m in metrics.items():
            print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
        print(f"{name} latency_samples {result['latency_samples']} count")
        if args.trace:
            layer = {k: v["value"] for k, v in result["per_layer"].items()}
            substrate = "sim.self_s" if result["backend"] == "sim" \
                else "net.loop_self_s"
            print(f"# {name} self time: core {layer['core.handle_s']:.3f} s, "
                  f"gossip {layer['gossip.handle_s']:.3f} s, "
                  f"{substrate} {layer[substrate]:.3f} s; trace overhead "
                  f"{layer['trace.overhead']:+.1%}; "
                  f"trace file {result.get('trace_file')}")
        for c in result["checks"]:
            if not c["ok"]:
                print(f"FAIL {name}: {c['name']}: {c['detail']}",
                      file=sys.stderr)
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        if args.workload:
            summary["metrics"] = metrics
        else:
            for metric, m in metrics.items():
                summary["metrics"][f"{name}.{metric}"] = m

    print(json.dumps(summary))
    sys.exit(0 if summary["correct"] else 1)


if __name__ == "__main__":
    main()
