#!/usr/bin/env python3
# Copyright (c) 2026 The plastream Authors. MIT license.
"""Builds and runs plastream's end-to-end benchmark.

Run from the repository root:

  python3 bench/e2e/run.py --workload fleet_point --seed 1 --seconds 10 --trace 0
  python3 bench/e2e/run.py --seed 1        # every workload, results merged
  python3 bench/e2e/run.py --smoke         # 1/100 sizes, untraced and traced
  python3 bench/e2e/run.py --self-test     # the checks must catch sabotage

The first call configures and builds bench_e2e (bench/e2e/CMakeLists.txt)
into .bench_build/. A single-workload run prints the benchmark's JSON
result as its last line of standard output, after checking that it names
exactly the metrics BENCHMARK.json declares; it exits 0 only when the run
was correct. --trace-out PATH (with --trace 1) also writes the sampled
spans as Chrome-trace JSON.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "bench_e2e"
CONTRACT = ROOT / "BENCHMARK.json"
RUN_TIMEOUT_S = 170

# Each --self-test case breaks one check's input on purpose; the run must
# then fail (exit non-zero, "correct": false).
SELF_TESTS = [
    ("fleet_point", "eps_half"),          # reference built with ε/2
    ("sst_batch_file", "perturb"),        # one reference segment moved
    ("collector_fanin", "withhold_finish"),  # one pipeline never FINISHes
]


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds bench_e2e; exits 2 on failure."""
    if not (BUILD / "build.ninja").exists() and not (BUILD / "Makefile").exists():
        command = ["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            log("run.py: configuring bench_e2e failed")
            sys.exit(2)
    built = subprocess.run(["cmake", "--build", str(BUILD), "--target",
                            "bench_e2e", "-j", "4"], stdout=sys.stderr)
    if built.returncode != 0 or not BINARY.exists():
        log("run.py: building bench_e2e failed")
        sys.exit(2)


def load_contract():
    with open(CONTRACT) as f:
        return json.load(f)


def run_workload(contract, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (exit code, parsed result or None)."""
    workdir = BUILD / "work" / f"{workload}-{os.getpid()}"
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--workdir", str(workdir), *extra]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return 124, None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"run.py: {workload} printed no result (exit {proc.returncode})")
        return proc.returncode or 1, None
    declared = contract["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    if reported != expected:
        missing = sorted(set(expected) - set(reported))
        extra_names = sorted(set(reported) - set(expected))
        log(f"run.py: {workload} metrics do not match BENCHMARK.json "
            f"(missing {missing}, undeclared {extra_names}, or unit changes)")
        return 3, None
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    contract = load_contract()
    build()
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    workloads = [w["name"] for w in contract["workloads"]]

    if args.self_test:
        caught = 0
        for workload, case in SELF_TESTS:
            code, result = run_workload(contract, workload, args.seed, 0, 0,
                                        ["--smoke", "--self-test", case])
            ok = code != 0 and result is not None and not result["correct"]
            caught += ok
            log(f"self-test {case} on {workload}: exit {code}, "
                f"{'caught' if ok else 'NOT CAUGHT'}")
        sys.exit(0 if caught == len(SELF_TESTS) else 1)

    if args.smoke:
        failures = 0
        for workload in workloads:
            for trace in (0, 1):
                code, result = run_workload(contract, workload, args.seed, 0,
                                            trace, ["--smoke"])
                failures += code != 0
                log(f"smoke {workload} trace={trace}: exit {code}")
        sys.exit(1 if failures else 0)

    extra = ["--trace-out", str(Path(args.trace_out).resolve())] \
        if args.trace_out else []
    if args.workload:
        code, result = run_workload(contract, args.workload, args.seed, seconds,
                                    args.trace, extra)
        if result is None:
            sys.exit(code or 1)
        print(json.dumps(result))
        sys.exit(code)

    merged, worst = {}, 0
    for workload in workloads:
        code, result = run_workload(contract, workload, args.seed, seconds,
                                    args.trace)
        worst = max(worst, code)
        merged[workload] = result
        if result is not None:
            for name, metric in result["metrics"].items():
                log(f"{workload:16s} {name:34s} {metric['value']:.6g} "
                    f"{metric['unit']}")
    print(json.dumps(merged))
    sys.exit(worst)


if __name__ == "__main__":
    main()
