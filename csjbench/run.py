#!/usr/bin/env python3
"""The repository benchmark, as one command.

    python3 csjbench/run.py --workload roadnet-ssj-text --seed 3 \
        --seconds 33 --trace 0

builds the library and the measuring program from this checkout's sources
(CMake, into $CARGO_TARGET_DIR or .bench_build), generates the seed's inputs,
runs the workload and prints one JSON result line last on stdout.
--trace 1 reports the per-layer metrics instead of the end-to-end ones.

    python3 csjbench/run.py --steady 10 [--workload W] [--first-seed 1]

is the steadiness mode: it runs each workload (default: all) once per seed
and prints every metric's median, quartiles and quartile spread as a share
of the median, next to the bound BENCHMARK.json fixes. See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(message):
    print(f"csjbench: {message}", file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures once, then (re)builds the measuring program."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "csjbench", "-j", "4"])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        subprocess.run(step, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=max(1, deadline - time.monotonic()))
    return os.path.join(out, "csjbench")


def run_once(binary, workload, seed, seconds, trace):
    """One run in a fresh work directory; returns (exit code, result dict)."""
    work = os.path.join(ROOT, ".bench_work", f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    # The socket path is relative to the checkout root: keep it short.
    rel_work = os.path.relpath(work, ROOT)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        subprocess.run([binary, "gen", "--seed", str(seed), "--dir", rel_work],
                       cwd=ROOT, check=True, stdout=sys.stderr,
                       timeout=deadline - time.monotonic())
        proc = subprocess.run(
            [binary, "run", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--dir", rel_work],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=deadline - time.monotonic())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: no result line (exit {proc.returncode})")
    return proc.returncode, json.loads(lines[-1])


def check_result(result, spec, trace):
    """The result line carries exactly the metrics BENCHMARK.json declares."""
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise RuntimeError(f"result keys: {sorted(result)}")
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile as a share of the
    median (0 when the median is 0)."""
    q1, q2, q3 = quartiles(values)
    return 0.0 if q2 == 0 else (q3 - q1) / abs(q2)


def summarize(samples, declared):
    """Per-metric rows of the steadiness report. `samples` maps a metric name
    to its values over the runs; `declared` is the BENCHMARK.json metric list
    (bounds are absent for per-layer metrics)."""
    rows = []
    for metric in declared:
        values = samples.get(metric["name"], [])
        if len(values) < 2:
            continue
        q1, q2, q3 = quartiles(values)
        bound = metric.get("bound")
        s = spread(values)
        rows.append({
            "name": metric["name"], "unit": metric["unit"], "median": q2,
            "q1": q1, "q3": q3, "spread": s, "bound": bound,
            "steady": None if bound is None else s < bound / 3,
        })
    return rows


def steady(binary, spec, args):
    trace = int(args.trace)
    declared = spec["per_layer" if trace else "end_to_end"]
    workloads = ([args.workload] if args.workload
                 else [w["name"] for w in spec["workloads"]])
    report = {}
    ok = True
    for workload in workloads:
        samples = {}
        for seed in range(args.first_seed, args.first_seed + args.steady):
            code, result = run_once(binary, workload, seed, args.seconds, trace)
            check_result(result, spec, trace)
            if code != 0 or not result["correct"] or result["failed"]:
                ok = False
                log(f"{workload} seed {seed}: run failed")
            for name, metric in result["metrics"].items():
                samples.setdefault(name, []).append(metric["value"])
            log(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()))
        rows = summarize(samples, declared)
        report[workload] = {"rows": rows, "samples": samples}
        print(f"\n{workload} ({args.steady} seeds from {args.first_seed})")
        print(f"{'metric':36} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  steady")
        for r in rows:
            bound = "" if r["bound"] is None else f"{r['bound']:.2f}"
            mark = {None: "", True: "yes", False: "NO"}[r["steady"]]
            print(f"{r['name']:36} {r['median']:12.6g} {r['q1']:12.6g} "
                  f"{r['q3']:12.6g} {r['spread']:8.4f} {bound:>6}  {mark}")
            if r["steady"] is False:
                ok = False
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--steady", type=int, default=0,
                        help="steadiness mode: runs per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", help="steadiness mode: write samples here")
    args = parser.parse_args()

    # The benchmark measures this checkout's library: without its sources
    # there is nothing to build.
    for needed in ("CMakeLists.txt", os.path.join("src", "csj.h")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"{needed} not found next to {os.path.basename(BENCH_DIR)}/; "
                "run from a full checkout")
            return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        log(f"unknown workload {args.workload!r}; one of {names}")
        return 2
    binary = build()
    if args.steady:
        return steady(binary, spec, args)
    if args.workload is None:
        log("--workload is required outside the steadiness mode")
        return 2
    trace = int(args.trace)
    code, result = run_once(binary, args.workload, args.seed, args.seconds,
                            trace)
    check_result(result, spec, trace)
    print(json.dumps(result), flush=True)
    return 0 if code == 0 and result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
