#!/usr/bin/env python3
"""A/B of two source trees on one perfbench workload, in alternating pairs.

    python3 scripts/bench_ab.py A B --workload NAME [--pairs N]
        [--seconds S] [--first-seed N] [--target-root DIR]

A and B are source checkouts (A is the baseline, usually the parent
commit). Pair i runs

    python3 perfbench/run.py --workload NAME --seed SEED_i --seconds S \\
        --trace 0

once in each tree, with seed SEED_i = first-seed + i (a distinct seed per
pair, the same in both trees), A first in even pairs and B first in odd
ones. Each tree builds into its own CARGO_TARGET_DIR: DIR/a and DIR/b
with --target-root, else <tree>/.bench_build. Both trees are built (by a
short --tiny run whose result is discarded) before the first timed run.

Prints every pair's end-to-end metrics (A, B, B/A), then per metric the
median and interquartile range of each side, the ratio of the medians
and the number of pairs B won (by the metric's direction in A's
BENCHMARK.json). Exits 1 if any *.words_per_arrival differs within a
pair or any run reports failed > 0; 2 if a run fails outright.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_metric_directions(tree):
    with open(os.path.join(tree, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def run_once(tree, target, workload, seed, seconds, tiny=False):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    if tiny:
        cmd.append("--tiny")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench_ab: {tree} seed {seed} failed "
                 f"(exit code {proc.returncode})")
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return result["failed"], metrics


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="baseline source tree")
    parser.add_argument("b", help="changed source tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--target-root")
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds positive")

    trees = {"a": os.path.abspath(args.a), "b": os.path.abspath(args.b)}
    targets = {}
    for side, tree in trees.items():
        if args.target_root:
            targets[side] = os.path.join(os.path.abspath(args.target_root),
                                         side)
        else:
            targets[side] = os.path.join(tree, ".bench_build")
    better = load_metric_directions(trees["a"])

    for side in ("a", "b"):
        run_once(trees[side], targets[side], args.workload, 0, 0.5,
                 tiny=True)

    bad = False
    rows = []  # (seed, order, metrics_a, metrics_b)
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("a", "b") if i % 2 == 0 else ("b", "a")
        got = {}
        for side in order:
            failed, metrics = run_once(trees[side], targets[side],
                                       args.workload, seed, args.seconds)
            if failed > 0:
                print(f"bench_ab: {side.upper()} seed {seed}: "
                      f"{failed} failed operations")
                bad = True
            got[side] = metrics
        rows.append((seed, order, got["a"], got["b"]))
        print(f"pair {i + 1} seed {seed} ({order[0].upper()} first)")
        for name in better:
            va, vb = got["a"].get(name), got["b"].get(name)
            if va is None or vb is None:
                continue
            ratio = vb / va if va else float("nan")
            print(f"  {name:28s} {va:14.6g} {vb:14.6g}  x{ratio:.3f}")
            if name.endswith(".words_per_arrival") and va != vb:
                print(f"bench_ab: {name} differs within pair {i + 1}")
                bad = True
        sys.stdout.flush()

    print(f"\n{args.workload}: {args.pairs} pairs, {args.seconds:g} s, "
          "median [q1, q3]")
    for name, direction in better.items():
        a_vals = [r[2][name] for r in rows if name in r[2]]
        b_vals = [r[3][name] for r in rows if name in r[3]]
        if len(a_vals) != len(rows) or len(b_vals) != len(rows):
            continue
        a1, a2, a3 = quartiles(a_vals)
        b1, b2, b3 = quartiles(b_vals)
        if direction == "higher":
            wins = sum(b > a for a, b in zip(a_vals, b_vals))
        else:
            wins = sum(b < a for a, b in zip(a_vals, b_vals))
        ratio = b2 / a2 if a2 else float("nan")
        print(f"  {name:28s} A {a2:.6g} [{a1:.6g}, {a3:.6g}] (IQR "
              f"{a3 - a1:.3g})  B {b2:.6g} [{b1:.6g}, {b3:.6g}] (IQR "
              f"{b3 - b1:.3g})  x{ratio:.3f}  B wins {wins}/{len(rows)}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
