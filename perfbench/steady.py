#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of the same code agree?

    python3 perfbench/steady.py [--runs 10] [--workload NAME ...]

Runs ``perfbench/run.py`` untraced for ``run_seconds`` of BENCHMARK.json,
each run with its own seed, in two sets alternated run by run (A B, then
B A, ...). For every workload and end-to-end metric it prints each set's
median and quartiles, the spread (interquartile distance over the median)
and whether the sets agree: both spreads within the metric's bound, the
two medians apart by no more than the bound in either direction, every
output correct and the same share of failed operations in both sets.
Raw results go to perfbench/out/steady-*.json. Exits 1 when some metric
disagrees.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIRST_SEED = 1000


def run_once(workload: str, seed: int, seconds: int) -> dict:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["wall_s"] = time.monotonic() - start
    return doc


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    results = {name: [[], []] for name in names}
    seed = FIRST_SEED
    for i in range(args.runs):
        for s in ((0, 1) if i % 2 == 0 else (1, 0)):
            for name in names:
                doc = run_once(name, seed, spec["run_seconds"])
                seed += 1
                results[name][s].append(doc)
                if not doc["correct"]:
                    print(f"{name} seed {seed - 1}: outputs failed their checks")
        print(f"round {i + 1}/{args.runs} done", file=sys.stderr)

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)

    all_agree = True
    print(f"{'workload':<11} {'metric':<16} {'set':>3} {'q1':>10} {'median':>10} "
          f"{'q3':>10} {'spread':>7} {'bound':>6}  verdict")
    for name in names:
        sets = results[name]
        shares = {
            sum(d["failed"] for d in runs) / sum(d["attempted"] for d in runs)
            for runs in sets
        }
        correct = all(d["correct"] for runs in sets for d in runs)
        for m in metrics:
            key, bound = m["name"], m["bound"]
            rows, medians, ok = [], [], True
            for s, runs in enumerate(sets):
                q1, med, q3, spread = summary([d["metrics"][key]["value"] for d in runs])
                medians.append(med)
                ok = ok and spread <= bound
                rows.append((s, q1, med, q3, spread))
            gap = abs(medians[1] - medians[0]) / medians[0]
            ok = ok and gap <= bound and len(shares) == 1 and correct
            all_agree = all_agree and ok
            for s, q1, med, q3, spread in rows:
                verdict = f"gap {gap:.2%}, {'agree' if ok else 'DISAGREE'}" if s else ""
                print(f"{name:<11} {key:<16} {'AB'[s]:>3} {q1:>10.4g} {med:>10.4g} "
                      f"{q3:>10.4g} {spread:>7.2%} {bound:>6.0%}  {verdict}")
        walls = [d["wall_s"] for runs in sets for d in runs]
        print(f"{name:<11} failed share per set: {sorted(shares)}; all outputs correct:"
              f" {correct}; wall per run {min(walls):.1f}-{max(walls):.1f} s")
    print(f"raw results: {os.path.relpath(path, ROOT)}")
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
