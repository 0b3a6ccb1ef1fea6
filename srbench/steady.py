#!/usr/bin/env python3
"""Steadiness check: run one workload N times and summarise each metric.

    python3 srbench/steady.py --workload sard-rush [--runs 10] [--first-seed 1]
        [--sets 2]

Each run uses its own seed (first-seed, first-seed + 1, ...). For every
metric the tool prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread, (q3 - q1) / median.
End-to-end metrics are compared with their bound from BENCHMARK.json: the
spread should stay below a third of the bound. With --sets 2 the N seeds are
run twice and the second set's median is compared with the first's; a
metric fails when it is worse by more than its bound. Exits nonzero when any
check fails. Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("run failed (exit %d): %s" % (proc.returncode,
                                                        " ".join(cmd)))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError("outputs incorrect: " + " ".join(cmd))
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarise(runs):
    out = {}
    for name in runs[0]:
        values = [r[name] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median if median else 0.0
        out[name] = (median, q1, q3, spread)
    return out


def worse_by(first, second, better):
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = parser.parse_args()

    spec = load_spec()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.runs)
    sets = []
    for _ in range(args.sets):
        sets.append(summarise(
            [one_run(args.workload, s, seconds) for s in seeds]))

    ok = True
    print("%-34s%14s%14s%14s%9s%9s%s" % (
        "metric", "median", "q1", "q3", "spread", "bound",
        "  2nd/1st  2nd spread" if args.sets == 2 else ""))
    for name, (median, q1, q3, spread) in sets[0].items():
        metric = bounds.get(name)
        bound = metric["bound"] if metric else None
        line = "%-34s%14.6g%14.6g%14.6g%8.1f%%" % (name, median, q1, q3,
                                                   100 * spread)
        line += ("%8.1f%%" % (100 * bound)) if bound is not None else "%9s" % "-"
        spreads = [s[name][3] for s in sets]
        flags = []
        if bound is not None and name != "setup_s" and max(spreads) > bound / 3:
            flags.append("SPREAD")
        if args.sets == 2:
            second = sets[1][name][0]
            line += "%10.4f%11.1f%%" % (second / median if median else 1.0,
                                        100 * spreads[1])
            if bound is not None and worse_by(median, second,
                                              metric["better"]) > bound:
                flags.append("DRIFT")
        if flags:
            ok = False
            line += "  " + " ".join(flags)
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
