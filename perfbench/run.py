#!/usr/bin/env python3
"""Run one workload of the benchmark and print its result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the library and the benchmark
program from source into .bench_build/perfbench (the first run compiles,
later runs only check that the build is current), runs the program with
the library's environment knobs unset so it measures the defaults, checks
its result line against BENCHMARK.json, and prints it as the last line of
standard output. Exits non-zero, without a result line, when the build,
the run or the check fails."""

import argparse
import json
import os
import subprocess
import sys
import time

import benchstats

ROOT = benchstats.ROOT
BUILD = ROOT / ".bench_build" / "perfbench"
# The benchmark program must end within this many seconds of wall time.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def pinned_env():
    """The caller's environment without the library's RTL_* knobs
    (RTL_PROCS, RTL_SIMD, RTL_LAYOUT, RTL_PLAN_CACHE_DIR, ...): the kernels
    read them at bind time, so an inherited value would change what is
    measured."""
    return {k: v for k, v in os.environ.items() if not k.startswith("RTL_")}


def build(env):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no library sources next to {ROOT / 'perfbench'}; "
             "run from the root of a full checkout")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "perfbench", "perfbench_selftest"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            # Build output goes to stderr: stdout ends with the result line.
            sys.stderr.write(proc.stdout)
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec = benchstats.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r} (one of {', '.join(names)})")

    env = pinned_env()
    build(env)

    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run did not end within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"benchmark program exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"last line is not JSON: {e}")
    problems = benchstats.check_result(result, spec, bool(args.trace))
    if problems:
        fail("malformed result: " + "; ".join(problems))
    print(f"run wall time = {time.monotonic() - start:.1f} s")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
