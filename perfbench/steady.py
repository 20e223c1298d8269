#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly and compares two sets.

Run from the repository root:

    python3 perfbench/steady.py [--traced]

Runs every workload of BENCHMARK.json in two sets of ten runs of
`run_seconds` each, with distinct seeds (set k uses seeds k*100+1 ..
k*100+10). Per workload and end-to-end metric it prints the median, the
quartiles (`statistics.quantiles(n=4)`) and the spread (Q3 - Q1) / median,
and flags a spread above a third of the metric's bound in BENCHMARK.json
(above the bound itself for setup_s, whose spread is reported, not gated).
It also flags a metric whose set-2 median differs from set 1's, in either
direction, by more than the bound, and a differing share of failed
operations. `--traced` adds one traced run per seed of set 1 and prints the
tracing overhead: how far the traced runs' `trace.p50_us` median sits above
the untraced `p50_us` median. Exits 1 when anything is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
RUNS = 10
SETS = 2


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()
    seconds = SPEC["run_seconds"]
    flagged = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        sets = []
        for k in range(SETS):
            runs = [run(workload, k * 100 + i + 1, seconds, 0) for i in range(RUNS)]
            sets.append(runs)
        print(f"== {workload}: {SETS} sets of {RUNS} runs, {seconds}s each")
        medians = []
        for k, runs in enumerate(sets):
            shares = {r["failed"] / r["attempted"] for r in runs}
            print(f"  set {k + 1}: failed share {sorted(shares)}")
            if len(shares) != 1:
                flagged.append(f"{workload} set {k + 1}: failed share varies {sorted(shares)}")
            row = {}
            for m in SPEC["end_to_end"]:
                values = [r["metrics"][m["name"]]["value"] for r in runs]
                q1, med, q3, s = spread(values)
                limit = m["bound"] if m["name"] == "setup_s" else m["bound"] / 3
                mark = "" if s <= limit else "  <-- spread above " + f"{limit:.3f}"
                print(f"    {m['name']:<24} median {med:>14.4f} {m['unit']:<7} "
                      f"q1 {q1:>14.4f} q3 {q3:>14.4f} spread {s:.4f} (bound {m['bound']}){mark}")
                if mark:
                    flagged.append(f"{workload} set {k + 1} {m['name']}: spread {s:.4f}")
                row[m["name"]] = med
            medians.append(row)
        shares = [{r["failed"] / r["attempted"] for r in runs} for runs in sets]
        if shares[0] != shares[1]:
            flagged.append(f"{workload}: failed share differs between the sets")
        for m in SPEC["end_to_end"]:
            change = (medians[1][m["name"]] - medians[0][m["name"]]) / medians[0][m["name"]]
            mark = "" if abs(change) <= m["bound"] else "  <-- differs by more than the bound"
            print(f"    set 2 vs 1: {m['name']:<24} {change * 100:+7.2f}%{mark}")
            if mark:
                flagged.append(f"{workload} {m['name']}: set 2 median {change * 100:+.2f}%")
        if args.traced:
            traced = [run(workload, i + 1, seconds, 1) for i in range(RUNS)]
            t = statistics.median(r["metrics"]["trace.p50_us"]["value"] for r in traced)
            u = statistics.median(r["metrics"]["p50_us"]["value"] for r in sets[0])
            print(f"    tracing overhead: traced p50 {t:.1f} us vs untraced {u:.1f} us "
                  f"= {(t / u - 1) * 100:+.2f}%")
    for f in flagged:
        print("FLAGGED:", f)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
