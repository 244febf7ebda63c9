#!/usr/bin/env python3
"""Build, prepare and run the mflstm system benchmark for one workload.

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

Run from anywhere; paths are resolved from this file. The first run in a
checkout configures and builds benchmark/ (which builds the library from
the repository root) into .bench_build/cmake and trains the six Table II
models into .bench_build/models; both steps are untimed and later runs
reuse them. The benchmark binary then runs the workload and its
correctness checks. Its result, the last line of stdout, is checked
against BENCHMARK.json (metric names and units) before it is printed.

Exit status: the binary's (0 when every check passed, 1 when one
failed); 1 without a result line when the build, the preparation or the
result's shape fails.
"""

import argparse
import json
import math
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
BINARY = CMAKE_DIR / "mflstm_sysbench"

# A first run builds and trains within this; later runs only measure.
DEADLINE_S = 880
RUN_TIMEOUT_S = 170
START = time.monotonic()


def remaining_s(cap=DEADLINE_S):
    return max(1.0, min(cap, DEADLINE_S - (time.monotonic() - START)))


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def step(cmd):
    """Run one build/prepare step, its output to stderr; True on success."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=remaining_s())
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"{cmd[0]} failed: {e}")
        return False
    if done.returncode != 0:
        log(f"{' '.join(map(str, cmd))} exited {done.returncode}")
    return done.returncode == 0


def build():
    # A configure that failed or was cut short leaves no build system.
    if not any((CMAKE_DIR / f).exists() for f in ("Makefile", "build.ninja")):
        if not step(["cmake", "-S", ROOT / "benchmark", "-B", CMAKE_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    return step(["cmake", "--build", CMAKE_DIR, "-j4", "--target",
                 "mflstm_sysbench"])


def valid_result(line, expected):
    """Whether line is a result object with exactly the expected metrics."""
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        return False
    if not isinstance(res, dict) or set(res) != {
            "correct", "attempted", "failed", "metrics"}:
        return False
    if not isinstance(res["correct"], bool):
        return False
    for key in ("attempted", "failed"):
        if not isinstance(res[key], int) or isinstance(res[key], bool):
            return False
    metrics = res["metrics"]
    if res["attempted"] < 1 or not isinstance(metrics, dict) or \
            set(metrics) != set(expected):
        return False
    return all(isinstance(m, dict) and set(m) == {"value", "unit"} and
               m["unit"] == expected[name] and
               isinstance(m["value"], (int, float)) and
               math.isfinite(m["value"]) for name, m in metrics.items())


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 1
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 1
    listed = spec["per_layer" if args.trace == "1" else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in listed}

    if not build():
        return 1
    if not step([BINARY, "--prepare", "--cache", BUILD / "models"]):
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--cache", BUILD / "models", "--out", BUILD / "out"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=remaining_s(RUN_TIMEOUT_S))
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"benchmark run failed: {e}")
        return 1
    lines = done.stdout.strip().splitlines()
    if not lines or not valid_result(lines[-1], expected):
        log(f"no valid result line (exit {done.returncode})")
        return 1
    print(lines[-1], flush=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
