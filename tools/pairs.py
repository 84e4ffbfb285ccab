#!/usr/bin/env python3
"""Runs two checkouts' benchmark in alternating pairs and compares them.

    python3 tools/pairs.py --parent DIR --change DIR --workload NAME \\
        --pairs 10 --seconds 25 --seed 101 [--target-root DIR] [--save FILE]
    python3 tools/pairs.py --load FILE

Each pair runs `perfbench/run.py --trace 0` once in each checkout, with the
same seed on both sides (pair i uses seed + i).  The side that runs first
alternates from pair to pair, parent first in pair 0, so the runs go parent,
change, change, parent, parent, change, ... (ABBA), and the order is
recorded.  Each checkout builds into its own `.bench_build`, or into
`<target-root>/parent` and `<target-root>/change`; both are built before the
first pair.

For every end-to-end metric of BENCHMARK.json (read from the change's
checkout) the report gives both sides' medians, the change's median over the
parent's, the change's wins (a tie counts for neither side), the parent's
interquartile range as a share of its median, the metric's bound, and a
status:

* gain: the change won at least nine tenths of the pairs and its median is
  better than the parent's by more than the parent's interquartile range;
* worse: the change's median is worse than the parent's by more than the
  bound;
* unresolved: neither, and the parent's interquartile range is wider than
  the bound, so the runs cannot tell a change within the bound from none;
* held: neither, within the bound.

Then it lists every pair's ratio (change / parent), and in how many pairs
the side that ran first read the worse value.  --save writes every run's
result with its seed and order to a JSON file that --load reads back.
Quartiles interpolate linearly between order statistics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_side(checkout, workload, seed, seconds, target):
    """One run of `checkout`'s benchmark; returns its JSON result."""
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    if target:
        env["CARGO_TARGET_DIR"] = target
    command = [
        sys.executable, os.path.join(checkout, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=checkout, env=env, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"pairs: {checkout}: {workload} seed {seed} exited {done.returncode}")
    return json.loads(lines[-1])


def build_side(checkout, target):
    """Builds `checkout`'s benchmark where its runs will look for it."""
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = target or os.path.join(checkout, ".bench_build")
    manifest = os.path.join(checkout, "perfbench", "Cargo.toml")
    command = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(command, cwd=checkout, env=env).returncode != 0:
        raise SystemExit(f"pairs: building {checkout}'s benchmark failed")


def collect(run, pairs, seed):
    """Runs `pairs` pairs through `run(side, seed)`, alternating which side
    goes first; returns one record per pair."""
    records = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        record = {"seed": seed + i, "first": order[0]}
        for side in order:
            record[side] = run(side, seed + i)
        records.append(record)
    return records


def quartiles(values):
    """(Q1, median, Q3), interpolating linearly between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def better(a, b, direction):
    """Whether value `a` is better than `b` for a metric where `direction`
    ("lower" or "higher") is better."""
    return a < b if direction == "lower" else a > b


def analyse(records, end_to_end):
    """One row per end-to-end metric of `records` (see the module docs)."""
    rows = []
    for metric in end_to_end:
        name, direction, bound = metric["name"], metric["better"], metric["bound"]
        parent = [r["parent"]["metrics"][name]["value"] for r in records]
        change = [r["change"]["metrics"][name]["value"] for r in records]
        q1, parent_median, q3 = quartiles(parent)
        change_median = statistics.median(change)
        iqr = q3 - q1
        iqr_share = iqr / parent_median if parent_median else float("inf")
        wins = sum(better(c, p, direction) for p, c in zip(parent, change))
        first_worse = sum(
            better(r["change" if r["first"] == "parent" else "parent"]["metrics"][name]["value"],
                   r[r["first"]]["metrics"][name]["value"], direction)
            for r in records
        )
        worse_by = (change_median - parent_median) / parent_median if parent_median else 0.0
        if direction == "higher":
            worse_by = -worse_by
        gained = better(change_median, parent_median, direction)
        if wins * 10 >= 9 * len(records) and gained and abs(change_median - parent_median) > iqr:
            status = "gain"
        elif worse_by > bound:
            status = "worse"
        elif iqr_share > bound:
            status = "unresolved"
        else:
            status = "held"
        rows.append({
            "name": name,
            "unit": metric["unit"],
            "parent_median": parent_median,
            "change_median": change_median,
            "ratio": change_median / parent_median if parent_median else float("nan"),
            "wins": wins,
            "iqr_share": iqr_share,
            "bound": bound,
            "status": status,
            "pair_ratios": [c / p if p else float("nan") for p, c in zip(parent, change)],
            "first_worse": first_worse,
        })
    return rows


def failures(records):
    """Operations failed and runs not correct, per side."""
    return {
        side: (sum(r[side]["failed"] for r in records),
               sum(not r[side]["correct"] for r in records))
        for side in SIDES
    }


def report(workload, records, rows):
    """The printed comparison."""
    order = ", ".join("PC" if r["first"] == "parent" else "CP" for r in records)
    seeds = [r["seed"] for r in records]
    lines = [
        f"{workload}: {len(records)} pairs, seeds {seeds[0]}-{seeds[-1]}, "
        f"same seed on both sides of a pair",
        f"order (P parent, C change, first run first): {order}",
    ]
    for side, (failed, incorrect) in failures(records).items():
        lines.append(f"{side}: {failed} operations failed, {incorrect} runs not correct")
    header = (f"{'metric':<12} {'unit':<5} {'parent':>12} {'change':>12} {'ratio':>7} "
              f"{'wins':>6} {'IQR':>7} {'bound':>6}  status")
    lines.append(header)
    for row in rows:
        lines.append(
            f"{row['name']:<12} {row['unit']:<5} {row['parent_median']:>12.6g} "
            f"{row['change_median']:>12.6g} {row['ratio']:>7.3f} "
            f"{row['wins']:>3}/{len(records):<2} {row['iqr_share']:>6.1%} "
            f"{row['bound']:>6.0%}  {row['status']}"
        )
    lines.append("per-pair ratios (change / parent), and pairs whose first run read worse:")
    for row in rows:
        ratios = " ".join(f"{ratio:.3f}" for ratio in row["pair_ratios"])
        lines.append(f"  {row['name']:<12} {ratios}  first worse {row['first_worse']}/{len(records)}")
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--change", help="checkout of the change")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--seed", type=int, default=101, help="seed of the first pair")
    parser.add_argument("--target-root", help="build directories go in <root>/parent and /change")
    parser.add_argument("--save", help="write every run to this JSON file")
    parser.add_argument("--load", help="report runs saved by --save instead of running")
    args = parser.parse_args()
    if args.load:
        with open(args.load) as f:
            saved = json.load(f)
    else:
        if None in (args.parent, args.change, args.workload):
            parser.error("--parent, --change and --workload are required without --load")
        checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
        targets = {side: args.target_root and os.path.join(os.path.abspath(args.target_root), side)
                   for side in SIDES}
        for side in SIDES:
            build_side(checkouts[side], targets[side])

        def run(side, seed):
            return run_side(checkouts[side], args.workload, seed, args.seconds, targets[side])

        with open(os.path.join(checkouts["change"], "BENCHMARK.json")) as f:
            end_to_end = json.load(f)["end_to_end"]
        saved = {"workload": args.workload, "seconds": args.seconds, "end_to_end": end_to_end,
                 "records": collect(run, args.pairs, args.seed)}
        if args.save:
            with open(args.save, "w") as f:
                json.dump(saved, f, indent=1)
    rows = analyse(saved["records"], saved["end_to_end"])
    print(report(saved["workload"], saved["records"], rows))


if __name__ == "__main__":
    main()
