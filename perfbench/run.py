#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of the repository.  The benchmark is a Cargo package of its
own (perfbench/Cargo.toml) that depends on the repository's crates by path; it
builds into $CARGO_TARGET_DIR (default .bench_build).  The last line of
standard output is the workload's JSON result.  --self-test runs the unit
tests and every workload at reduced size in both modes, and checks that each
prints every metric BENCHMARK.json names, with its unit, and no failure.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
WORKLOADS = ("fleet_stream", "search_grid", "serve_plans")
# A run must end within 180 s of its start, or of the end of its build.
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def cargo(*args):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    try:
        done = subprocess.run(
            ["cargo", *args, "--offline", "--quiet", "--manifest-path", MANIFEST],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_LIMIT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"cargo {args[0]} did not finish within {BUILD_LIMIT_S} s")
    if done.returncode != 0:
        fail(f"cargo {args[0]} failed")


def build():
    for needed in ("Cargo.toml", os.path.join("crates", "core", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a full checkout of the repository")
    cargo("build", "--release")
    return os.path.join(target_dir(), "release", "perfbench")


def git_rev():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def run_workload(binary, workload, seed, seconds, trace, scale, capture=False):
    command = [
        binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--scale", scale,
        "--out-dir", os.path.join(target_dir(), "perfbench"), "--git-rev", git_rev(),
    ]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_LIMIT_S,
                              stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_LIMIT_S} s")
    if done.returncode != 0:
        fail(f"{workload} exited with code {done.returncode}")
    return done.stdout


def self_test(binary):
    cargo("test", "--release")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = run_workload(binary, workload, 7, 1, trace, "small", capture=True)
            result = json.loads(out.strip().splitlines()[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            label = f"{workload} --trace {trace}"
            if got != wanted[trace]:
                mismatch = sorted(set(got.items()) ^ set(wanted[trace].items()))
                problems.append(f"{label}: metrics {mismatch} differ from BENCHMARK.json")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} "
                                f"attempted={result['attempted']} failed={result['failed']}")
                problems.extend(f"{label}: {line}" for line in out.splitlines()
                                if line.startswith("problem"))
            print(f"self-test {label}: {result['attempted']} ops, {result['failed']} failed, "
                  f"{len(got)} metrics")
    for problem in problems:
        print(f"self-test FAILED {problem}")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    binary = build()
    if args.self_test:
        sys.exit(self_test(binary))
    run_workload(binary, args.workload, args.seed, args.seconds, args.trace, "full")


if __name__ == "__main__":
    main()
