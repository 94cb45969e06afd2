#!/usr/bin/env python3
"""End-to-end benchmark of the temporal k-core server.

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the library
from ../src) into the build directory, then runs one workload and forwards
its output; the last stdout line is the JSON result.

  python3 perfbench/run.py --workload cold_miss --seed 1 --seconds 25 --trace 0

Other modes:

  --spread [--runs 10]   run each given workload (default: all) twice over
                         `runs` seeds and report, per end-to-end metric, the
                         quartile spread of each set and the shift between
                         the two medians against BENCHMARK.json's bounds.
  --self-test            build and run the helper unit tests, and check that
                         the metrics a run prints match BENCHMARK.json and
                         perfbench/layer_map.json.

perfbench/layer_map.json names, for each per-layer metric, the metric and
workload it is expected to move: an end-to-end metric or, for the update
path, a figure of hot_repeat's traced live-ingest phase. A run exits
non-zero when any verdict disagrees with the reference or any operation
failed.

The build directory is $CARGO_TARGET_DIR when set, else .bench_build, both
relative to the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "tkc_perfbench"
TEST_BINARY = "perfbench_support_test"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(target):
    """Configures (once) and builds `target`; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "tkc.h")):
        log("perfbench: library sources (src/) not found; nothing to build")
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                cwd=ROOT, check=False)
        if result.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return None
    path = os.path.join(out, target)
    return path if os.path.isfile(path) else None


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, parsed JSON result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        trace_dir = os.path.join(build_dir(), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-dir", trace_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} seed {seed} exceeded {RUN_TIMEOUT_S} s")
        return 1, None
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf"), median


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / first
    return change if better == "lower" else -change


def spread_mode(binary, workloads, runs, seconds, first_seed):
    bench = load_benchmark()
    metrics = bench["end_to_end"]
    ok = True
    for workload in workloads:
        sets = []
        for s in range(2):
            values = {m["name"]: [] for m in metrics}
            for r in range(runs):
                seed = first_seed + s * runs + r
                code, result = run_once(binary, workload, seed, seconds, 0,
                                        echo=False)
                if (code != 0 or result is None or not result["correct"]
                        or result["failed"] != 0):
                    log(f"{workload} seed {seed}: bad run (exit {code}, "
                        f"result {result})")
                    ok = False
                    continue
                for m in metrics:
                    values[m["name"]].append(result["metrics"][m["name"]]["value"])
                log(f"{workload} set {s + 1} seed {seed}: " + ", ".join(
                    f"{k}={v[-1]:.4g}" for k, v in values.items() if v))
            sets.append(values)
        print(f"== {workload}: {runs} runs per set, {seconds} s each")
        print(f"{'metric':16} {'bound':>6} {'median1':>12} {'spread1':>8} "
              f"{'median2':>12} {'spread2':>8} {'worse':>7}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a, b = sets[0][name], sets[1][name]
            if len(a) < 4 or len(b) < 4:
                print(f"{name:16} too few runs")
                ok = False
                continue
            sa, ma = spread(a)
            sb, mb = spread(b)
            worse = worse_by(ma, mb, m["better"])
            good = worse <= bound and sa <= bound and sb <= bound
            steady = max(sa, sb) < bound / 3
            verdict = ("ok" if steady else "ok (spread above bound/3)") \
                if good else "FAIL"
            ok = ok and good
            print(f"{name:16} {bound:6.3f} {ma:12.5g} {sa:8.4f} {mb:12.5g} "
                  f"{sb:8.4f} {worse:7.4f}  {verdict}")
    return 0 if ok else 1


def self_test(binary):
    status = 0
    test = build(TEST_BINARY)
    if test is None:
        log("perfbench: helper tests not built (GTest missing?)")
        status = 1
    elif subprocess.run([test], check=False).returncode != 0:
        status = 1
    bench = load_benchmark()
    with open(os.path.join(HERE, "layer_map.json")) as f:
        layer_map = json.load(f)
    want_layer = [m["name"] for m in bench["per_layer"]]
    if sorted(layer_map) != sorted(want_layer):
        log("layer_map.json and BENCHMARK.json per_layer disagree: "
            f"{sorted(set(layer_map) ^ set(want_layer))}")
        status = 1
    workloads = {w["name"] for w in bench["workloads"]}
    for trace, want in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
        for workload in sorted(workloads):
            code, result = run_once(binary, workload, 1, 1, trace, echo=False)
            if code != 0 or result is None:
                log(f"{workload} trace={trace}: run failed (exit {code})")
                status = 1
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expected = {m["name"]: m["unit"] for m in want}
            if got != expected:
                log(f"{workload} trace={trace}: metrics differ from "
                    f"BENCHMARK.json: {sorted(set(got.items()) ^ set(expected.items()))}")
                status = 1
            if not result["correct"] or result["failed"] != 0:
                log(f"{workload} trace={trace}: correct={result['correct']} "
                    f"failed={result['failed']}")
                status = 1
    for metric, (moves, workload) in layer_map.items():
        if workload not in workloads and workload != "all":
            log(f"layer_map.json: {metric} names unknown workload {workload}")
            status = 1
    print("self-test", "passed" if status == 0 else "FAILED")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spread", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    binary = build(BINARY)
    if binary is None:
        return 1
    if args.self_test:
        return self_test(binary)
    seconds = args.seconds or load_benchmark()["run_seconds"]
    if args.spread:
        workloads = args.workload or [w["name"] for w in load_benchmark()["workloads"]]
        return spread_mode(binary, workloads, args.runs, seconds, args.seed)
    if not args.workload or len(args.workload) != 1:
        log("perfbench: give exactly one --workload")
        return 2
    code, result = run_once(binary, args.workload[0], args.seed, seconds,
                            args.trace)
    if result is None:
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
