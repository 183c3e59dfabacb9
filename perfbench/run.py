#!/usr/bin/env python3
"""End-to-end benchmark of the PlugVolt reproduction.

One run (run from the root of the repository):

    python3 perfbench/run.py --workload attack_matrix --seed 1 --seconds 10 --trace 0

builds the benchmark package (perfbench/CMakeLists.txt) into .bench_build
when needed, runs one workload and relays its output.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 reports the end-to-end metrics, --trace 1
the per-layer ones.

Two-set steadiness mode (same code, two sets of runs):

    python3 perfbench/run.py --two-sets --workload daemon_serve --runs 5

runs two sets of untraced runs on distinct seeds, prints each
end-to-end metric's median and quartile spread per set, compares the
spreads and the two medians against the metric's bound in
BENCHMARK.json, and checks that the exact counts of a traced run on the
first seed repeat between the sets.

    python3 perfbench/run.py --selftest

builds and runs the tests of the benchmark's own code.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(BUILD, "work")
WORKLOADS = ("fleet_characterize", "attack_matrix", "daemon_serve")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
# Per-layer units that are counts of work: they must repeat exactly
# between runs of the same code on the same seed.
EXACT_UNITS = {"count", "bytes", "cells/map", "probes/map"}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(targets):
    """Configure once, then (re)build `targets`; returns False on failure."""
    if not os.path.isfile(os.path.join(HERE, "..", "src", "serve", "daemon.hpp")):
        log("perfbench: no PlugVolt sources next to perfbench/; nothing to build")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode:
            return False
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets
    return subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode == 0


def run_once(workload, seed, seconds, trace):
    """Run one workload; returns (exit code, stdout text)."""
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK, exist_ok=True)
    cmd = [os.path.join(BUILD, "pv_e2e"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--work-dir", WORK]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return 3, ""
    finally:
        # Daemon state directories hold thousands of journals; keep only
        # the span dumps of the last run.
        for name in os.listdir(WORK) if os.path.isdir(WORK) else []:
            if name.startswith("daemon_"):
                shutil.rmtree(os.path.join(WORK, name), ignore_errors=True)
    return proc.returncode, proc.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def quartile_spread(values):
    """(Q3 - Q1) / median, with Python's default quartile method."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def two_sets(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seeds = {"A": [args.first_seed + i for i in range(args.runs)],
             "B": [args.first_seed + args.runs + i for i in range(args.runs)]}
    ok = True
    sets = []
    for label in ("A", "B"):
        values = {}
        for seed in seeds[label]:
            code, out = run_once(args.workload, seed, args.seconds, 0)
            res = result_of(out)
            if code != 0 or not res or not res["correct"]:
                log(f"set {label} seed {seed}: run failed (exit {code})")
                ok = False
                continue
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        sets.append(values)

    print(f"{args.workload}: 2 sets of {args.runs} seeds, {args.seconds} s each")
    print(f"  {'metric':<14} {'median A':>12} {'median B':>12} {'spread A':>9} "
          f"{'spread B':>9} {'B worse':>8} {'bound':>6}")
    for name in sorted(set(sets[0]) | set(sets[1])):
        a, b = sets[0].get(name, []), sets[1].get(name, [])
        if not a or not b:
            ok = False
            continue
        bound = metrics.get(name, {}).get("bound", 0.0)
        better = metrics.get(name, {}).get("better", "lower")
        sa, sb = quartile_spread(a), quartile_spread(b)
        shift = worse_by(statistics.median(a), statistics.median(b), better)
        flag = ""
        if max(sa, sb) > bound:
            flag += " SPREAD>BOUND"
        if shift > bound:
            flag += " SHIFT>BOUND"
        ok = ok and not flag
        print(f"  {name:<14} {statistics.median(a):12.5g} {statistics.median(b):12.5g} "
              f"{sa:9.4f} {sb:9.4f} {shift:8.4f} {bound:6.3f}{flag}")

    # Exact counts of the traced run repeat between the two sets.
    traced = []
    for label in ("A", "B"):
        code, out = run_once(args.workload, args.first_seed, args.seconds, 1)
        res = result_of(out)
        if code != 0 or not res or not res["correct"]:
            log(f"traced run of set {label} failed (exit {code})")
            return 1
        traced.append({k: m["value"] for k, m in res["metrics"].items()
                       if m["unit"] in EXACT_UNITS})
    same = traced[0] == traced[1]
    print(f"  exact counts ({len(traced[0])}) repeat between sets: {'yes' if same else 'NO'}")
    for name in sorted(traced[0]):
        if traced[0][name] != traced[1].get(name):
            print(f"    {name}: {traced[0][name]} vs {traced[1].get(name)}")
    return 0 if ok and same else 1


def selftest():
    if not build(["pv_e2e_selftest"]):
        return 1
    assert quartile_spread([1.0, 1.0, 1.0]) == 0.0
    assert abs(quartile_spread([1, 2, 3, 4, 5]) - (4.5 - 1.5) / 3) < 1e-12
    assert worse_by(10.0, 11.0, "lower") == 0.1
    assert worse_by(10.0, 11.0, "higher") == -0.1
    return subprocess.run([os.path.join(BUILD, "pv_e2e_selftest")]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--two-sets", action="store_true")
    parser.add_argument("--runs", type=int, default=5, help="seeds per set (--two-sets)")
    parser.add_argument("--first-seed", type=int, default=1, help="first seed (--two-sets)")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        return selftest()
    if not args.workload:
        parser.error("--workload is required")
    if not build(["pv_e2e"]):
        log("perfbench: build failed")
        return 1
    if args.two_sets:
        return two_sets(args)
    code, out = run_once(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
