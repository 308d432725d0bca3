#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload mem_rpq64 --seed 7 --seconds 10 --trace 0

Run from the repository root. Builds the rpq library and the rpqbench program
from source into .bench_build/perfbench (CMake, Release), runs one workload,
echoes rpqbench's report and prints the result JSON object as the last
stdout line. Exits non-zero, printing no result, when the build or the run
fails or the result does not match BENCHMARK.json.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
# A run makes three rounds. Each may run an insert phase capped at --seconds,
# and the rounds' timed slices add up to --seconds; set-up, warm-up and the
# serial passes get a fixed allowance.
SETUP_ALLOWANCE_S = 90
# Knobs that would change what is measured: the registry must stay off in
# untraced runs, and injected faults would fail operations on purpose.
SCRUBBED_ENV = ("RPQ_METRICS", "RPQ_FAULTS")


def fail(msg, output=""):
    if output:
        sys.stderr.write(output)
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(1)


def build():
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release", *generator],
        ["cmake", "--build", str(BUILD_DIR), "-j", str(os.cpu_count() or 1)],
    ]
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        except OSError as e:
            fail(f"cannot run {cmd[0]}: {e}")
        if proc.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}", proc.stdout)
    return BUILD_DIR / "rpqbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError(f"{key} is not a whole number")
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")
    want = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise ValueError(f"metrics {sorted(got.items())} != {sorted(want.items())}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    exe = build()
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    timeout_s = SETUP_ALLOWANCE_S + 4 * args.seconds
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, env=env, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {timeout_s:g} s")
    if proc.returncode != 0:
        fail(f"rpqbench exited with {proc.returncode}", proc.stdout + proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        check_result(lines[-1], args.trace == 1)
    except (ValueError, KeyError, TypeError) as e:
        fail(f"malformed result: {e}", proc.stdout + proc.stderr)
    sys.stderr.write(proc.stderr)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
