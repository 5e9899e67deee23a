#!/usr/bin/env python3
"""Smoke test of the repo benchmark.

    python3 perfbench/smoke_test.py

Runs every workload in BENCHMARK.json at smoke-test sizes (--tiny), with
tracing off and on, and checks that the run is correct and prints exactly
the metrics BENCHMARK.json names, each with its unit. Then checks that a
deliberately perturbed estimate (--perturb) is counted as a failure: one
in-process estimate untraced, and that one plus one service fleet
estimate traced. Exits non-zero at the first problem.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, perturb=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    if perturb:
        cmd.append("--perturb")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"FAIL {' '.join(cmd[1:])}: exit {proc.returncode}\n"
                 f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            label = f"{workload} --trace {trace}"
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                sys.exit(f"FAIL {label}: correct={result['correct']} "
                         f"attempted={result['attempted']} "
                         f"failed={result['failed']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = result["metrics"]
            if set(got) != set(want):
                sys.exit(f"FAIL {label}: missing {sorted(set(want) - set(got))}"
                         f", unexpected {sorted(set(got) - set(want))}")
            for name, unit in want.items():
                value = got[name]["value"]
                if got[name]["unit"] != unit or \
                        not isinstance(value, (int, float)):
                    sys.exit(f"FAIL {label}: {name} = {got[name]}")
            print(f"ok {label}: {len(got)} metrics, "
                  f"{result['attempted']} operations")
        for trace, want_failed in ((0, 1), (1, 2)):
            perturbed = run(workload, trace, perturb=True)
            if perturbed["correct"] or perturbed["failed"] != want_failed:
                sys.exit(f"FAIL {workload} --trace {trace} --perturb: "
                         f"{perturbed['failed']} failures counted, "
                         f"want {want_failed}")
            print(f"ok {workload} --trace {trace} --perturb: "
                  f"{want_failed} failures counted")
    print("smoke test OK")


if __name__ == "__main__":
    main()
