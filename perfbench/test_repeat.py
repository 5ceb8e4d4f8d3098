#!/usr/bin/env python3
"""Exact-repeat test of the benchmark.

Runs every workload (or those named with --workload) twice on one seed
with the traced run on, and asserts that both runs print the same input
digest, the same per-class op counts, the same energy_ratio and the same
exact counts.  A count-based claim about a later change may rest only on
one of these numbers.

    python3 perfbench/test_repeat.py [--seed N] [--seconds S] [--workload NAME ...]

Exits 0 when every workload repeats exactly, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["paper-grid", "analyze-suite", "serve-mix", "serve-online"]


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, cwd=os.path.dirname(HERE))
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    repeat = [l for l in lines if l.startswith("repeat ")]
    if len(repeat) != 1:
        raise RuntimeError(f"{workload}: no repeat line in the output")
    return result, json.loads(repeat[0][len("repeat "):])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=5)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    a = ap.parse_args()
    ok = True
    for w in a.workload or WORKLOADS:
        (r1, p1), (r2, p2) = (run_once(w, a.seed, a.seconds) for _ in range(2))
        problems = [k for k in ("digest", "classes", "energy_ratio", "exact")
                    if p1.get(k) != p2.get(k)]
        if not (r1["correct"] and r2["correct"]):
            problems.append("correct")
        status = "ok" if not problems else "DIFFERS in " + ", ".join(problems)
        print(f"{w}: {status}  digest={p1['digest']} classes={p1['classes']} "
              f"energy_ratio={p1['energy_ratio']} exact={p1.get('exact')}")
        if problems:
            print(f"  first:  {p1}\n  second: {p2}")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
