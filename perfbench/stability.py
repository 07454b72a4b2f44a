#!/usr/bin/env python3
"""Checks that the benchmark's figures are steady, or compares two checkouts.

    python3 perfbench/stability.py                       # 10 runs per workload
    python3 perfbench/stability.py --runs 5 --workloads serve_openloop
    python3 perfbench/stability.py --against ../parent   # ABAB against a checkout

Run from the repository root. Each round runs every workload once, one
after another, for BENCHMARK.json's run_seconds; round i uses seed i (1, 2,
...). With --against, every run of this checkout (A) is followed by the same
run of the other one (B), and the side that goes first alternates between
rounds (ABBA...). Per workload and metric it prints the median, the
quartiles as statistics.quantiles(values, n=4) gives them, and the spread
(quartile distance over the median) against the metric's bound from
BENCHMARK.json: "steady" below a third of the bound, "ok" within it,
"NOISY" beyond it. Modeled metrics must read the same in every run of a
side; any difference is reported as NONDETERMINISTIC and makes the tool
exit 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Metrics of the modeled machine: exact, so identical in every run.
MODELED = ("sim_kcycles", "sim_speedup", "ttft_p50_kcycles",
           "ttft_p90_kcycles", "tbt_p90_kcycles", "goodput_tps")


def run_once(root, workload, seed, seconds, traffic_seed):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    if traffic_seed is not None:
        cmd += ["--traffic-seed", str(traffic_seed)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: {workload} seed {seed} failed "
                         f"(exit {proc.returncode})")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{root}: {workload} seed {seed} reported "
                         f"{result['failed']} failed operations")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def report(label, runs, bounds):
    """Prints one side's table; returns False on nondeterminism."""
    ok = True
    print(f"\n== {label}: {len(runs)} runs")
    print(f"{'metric':<18} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for name, bound in bounds.items():
        values = [r[name] for r in runs]
        med, q1, q3, s = spread(values)
        if name in MODELED:
            verdict = "exact" if len(set(values)) == 1 else "NONDETERMINISTIC"
            ok &= verdict == "exact"
        else:
            verdict = ("steady" if s < bound / 3 else
                       "ok" if s <= bound else "NOISY")
        print(f"{name:<18} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
              f"{s:>7.2%} {bound:>6.2f}  {verdict}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=None,
                    help="comma-separated (default: all in BENCHMARK.json)")
    ap.add_argument("--traffic-seed", type=int, default=None,
                    help="serve_openloop schedule (5 is the held-out seed)")
    ap.add_argument("--against", default=None,
                    help="root of a second checkout to alternate with")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 (quartiles need two values)")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in bench["workloads"]])
    seconds = bench["run_seconds"]
    sides = [ROOT] + ([os.path.abspath(args.against)] if args.against else [])

    runs = {(side, w): [] for side in sides for w in workloads}
    for i in range(args.runs):
        order = sides if i % 2 == 0 else sides[::-1]
        for w in workloads:
            for side in order:
                values = run_once(side, w, i + 1, seconds, args.traffic_seed)
                runs[(side, w)].append(values)
                print(f"round {i} {w} {'AB'[sides.index(side)]}: "
                      f"run_s={values['run_s']:.4f} "
                      f"setup_s={values['setup_s']:.6f}", flush=True)

    ok = True
    for w in workloads:
        for side in sides:
            label = w if len(sides) == 1 else f"{w} [{'AB'[sides.index(side)]}]"
            ok &= report(label, runs[(side, w)], bounds)
        if len(sides) == 2:
            print(f"-- {w}: median B/A - 1 per metric")
            for name in bounds:
                a = statistics.median(r[name] for r in runs[(sides[0], w)])
                b = statistics.median(r[name] for r in runs[(sides[1], w)])
                print(f"   {name:<18} {b / a - 1:+8.2%}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
