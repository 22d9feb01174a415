#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

From the repository root:

    python3 perfbench/spread.py --runs 10 --first-seed 1 --out set1.json
    python3 perfbench/spread.py --runs 10 --first-seed 1 --out set2.json
    python3 perfbench/spread.py --compare set1.json set2.json

A set runs every workload (or those given with --workload) once per seed
and prints, per metric, the median, the quartiles (Python's
statistics.quantiles, n=4) and the spread: the inter-quartile distance
as a share of the median.  A metric whose spread is not below a third of
its bound in BENCHMARK.json is marked.  --compare prints how far the
second set's medians moved from the first's, against each bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def catalogue():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    return bench, bounds


def run_set(args, bench):
    names = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    results = {}
    for name in names:
        results[name] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(args.trace),
            ]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                sys.exit(f"{name} seed {seed}: exit {out.returncode}")
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{name} seed {seed}: {lines[-1]}")
            values = {k: v["value"] for k, v in result["metrics"].items()}
            results[name].append(values)
            print(f"{name} seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in values.items()),
                  flush=True)
    return results


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def report(results, bounds):
    print("| workload | metric | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for name, runs in results.items():
        for metric in runs[0]:
            med, q1, q3, spread = summary([r[metric] for r in runs])
            bound = bounds.get(metric, {}).get("bound")
            mark = ""
            if bound is not None and metric != "setup_s" and spread >= bound / 3:
                mark = " (!)"
            print(f"| {name} | {metric} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                  f"{spread:.4f}{mark} | {bound if bound is not None else '-'} |")


def compare(first, second, bounds):
    print("| workload | metric | first median | second median | worse by | bound |")
    print("|---|---|---|---|---|---|")
    for name, runs in first.items():
        for metric in runs[0]:
            a = statistics.median([r[metric] for r in runs])
            b = statistics.median([r[metric] for r in second[name]])
            m = bounds.get(metric, {})
            worse = (a - b) / a if m.get("better") == "higher" else (b - a) / a
            mark = " (!)" if "bound" in m and worse > m["bound"] else ""
            print(f"| {name} | {metric} | {a:.6g} | {b:.6g} | {worse:+.4f}{mark} | "
                  f"{m.get('bound', '-')} |")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--workload", action="append")
    p.add_argument("--out", help="write the raw results here")
    p.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = p.parse_args()
    bench, bounds = catalogue()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        compare(sets[0], sets[1], bounds)
        return
    results = run_set(args, bench)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    report(results, bounds)


if __name__ == "__main__":
    main()
