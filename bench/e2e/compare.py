#!/usr/bin/env python3
# Copyright (c) 2026 The plastream Authors. MIT license.
"""Compares two bench_e2e builds, workload by workload, metric by metric.

  python3 bench/e2e/compare.py --parent PARENT/.bench_build/bench_e2e \\
      --change CHANGE/.bench_build/bench_e2e [--pairs 10] [--seconds 10] \\
      [--workloads fleet_point,restart_query] [--first-seed 1] [--bound F]

Pair i runs both builds on seed first_seed + i, alternating which runs
first. Each row gives both sides' median and quartiles and a verdict:

  gain         the change wins >= 9/10 of pairs (ties count for neither)
               and the medians differ by more than the parent's IQR
  REGRESSION   the change's median is worse than the parent's by more
               than the metric's BENCHMARK.json bound
  unresolved   the parent's own IQR is wider than the bound, and not every
               change run beats every parent run
  within       none of the above

The byte counts (EXACT) depend only on the seed, so they are compared
seed by seed instead: "identical" when every pair matches, REGRESSION
when the change is worse on any seed by more than EXACT_TOLERANCE, "gain"
when it is better by more than that on >= 9/10 seeds. Their "worse"
column is the worst pair's difference. The tolerance covers the one
input the seed does not fix: the collector gives archive streams their
ids in arrival order, and an id's varint length moves collector_fanin's
archive bytes by about 0.005%. The BENCHMARK.json bound of these metrics
covers the spread between different seeds.

--bound F replaces every other metric's bound with F (e.g. 0.10 on a
quieter machine than the one BENCHMARK.json's bounds were sized on);
rows whose parent spread exceeds F then read "unresolved".

Passing the same build as both sides is the repeatability check: every
row should read "within" or "identical". Exits 1 on a regression or a
failed run.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CONTRACT = ROOT / "BENCHMARK.json"
WORKDIR = ROOT / ".bench_build" / "compare"
EXACT = {"wire_bytes_per_point", "archive_bytes_per_point"}
EXACT_TOLERANCE = 1e-3


def run(binary, workload, seed, seconds):
    workdir = WORKDIR / f"{workload}-{seed}"
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", "0", "--workdir", str(workdir)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=170)
    shutil.rmtree(workdir, ignore_errors=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    ok = proc.returncode == 0 and result["correct"]
    return ok, {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def exact_verdict(parent, change, metric):
    """Seed-by-seed verdict of a metric that depends only on the seed."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse = [sign * (c - p) / abs(p) if p else sign * (c - p)
             for p, c in zip(parent, change)]
    worst = max(worse)
    if worst > EXACT_TOLERANCE:
        return "REGRESSION", worst
    if sum(w < -EXACT_TOLERANCE for w in worse) >= 0.9 * len(worse):
        return "gain", worst
    return ("identical" if all(w == 0 for w in worse) else "within"), worst


def verdict(parent, change, metric, pairs_won, pairs):
    if metric["name"] in EXACT:
        return exact_verdict(parent, change, metric)
    lower_better = metric["better"] == "lower"
    sign = 1.0 if lower_better else -1.0
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    if pmed == 0:
        return "within", 0.0
    worse_by = sign * (cmed - pmed) / abs(pmed)  # > 0: the change is worse
    if worse_by > metric["bound"]:
        return "REGRESSION", worse_by
    if pairs_won >= 0.9 * pairs and abs(cmed - pmed) > p3 - p1:
        return "gain", worse_by
    all_better = (max(change) < min(parent)) if lower_better \
        else (min(change) > max(parent))
    if (p3 - p1) / abs(pmed) > metric["bound"] and not all_better:
        return "unresolved", worse_by
    return "within", worse_by


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workloads")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--bound", type=float)
    args = parser.parse_args()

    contract = json.loads(CONTRACT.read_text())
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads \
        else [w["name"] for w in contract["workloads"]]
    metrics = contract["end_to_end"]
    if args.bound is not None:
        metrics = [m if m["name"] in EXACT else {**m, "bound": args.bound}
                   for m in metrics]

    failed = False
    print(f"{'workload':16s} {'metric':24s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'worse':>8s} {'wins':>6s}  verdict")
    for workload in workloads:
        parent = {m["name"]: [] for m in metrics}
        change = {m["name"]: [] for m in metrics}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = [("parent", args.parent), ("change", args.change)]
            if i % 2 == 1:
                order.reverse()
            for side, binary in order:
                ok, values = run(binary, workload, seed, seconds)
                if not ok:
                    failed = True
                    print(f"{workload}: {side} run on seed {seed} failed",
                          file=sys.stderr)
                target = parent if side == "parent" else change
                for name in target:
                    target[name].append(values[name])
        for metric in metrics:
            name = metric["name"]
            p, c = parent[name], change[name]
            lower_better = metric["better"] == "lower"
            wins = sum((cv < pv) if lower_better else (cv > pv)
                       for pv, cv in zip(p, c))
            label, worse_by = verdict(p, c, metric, wins, len(p))
            failed |= label == "REGRESSION"
            pq, cq = quartiles(p), quartiles(c)
            print(f"{workload:16s} {name:24s} "
                  f"{pq[1]:12.5g} [{pq[0]:9.4g}, {pq[2]:9.4g}] "
                  f"{cq[1]:12.5g} [{cq[0]:9.4g}, {cq[2]:9.4g}] "
                  f"{worse_by * 100:+7.2f}% {wins:2d}/{len(p):<2d}  {label}",
                  flush=True)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
