#!/usr/bin/env python3
"""Steadiness check: two sets of runs of each workload, compared.

    python3 perfbench/steady.py [--workloads a,b]

Runs every workload ten times with seeds 1-10 (first set), then ten times
with seeds 11-20 (second set), all through run.py with BENCHMARK.json's
run length. For every end-to-end metric it
prints each set's median and quartiles, the spread (interquartile distance
over the median) and how much worse the second median is than the first.
Fails (exit 1) when a spread other than setup_s's, or a worsening,
exceeds the metric's bound in BENCHMARK.json, when the share of failed
operations differs between the sets, or when any run failed an operation
or reported correct = false. Every result line, with the
run's other output, is saved to .bench_build/perfbench/steady.json."""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import benchstats

HERE = Path(__file__).resolve().parent
RUNS = 10
FIRST_SEED = 1


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=benchstats.ROOT, stdout=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: run.py exited "
                           f"{proc.returncode}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["stdout"] = lines[:-1]
    return result


def fmt(x):
    return f"{x:.4g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()

    spec = benchstats.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    chosen = args.workloads.split(",") if args.workloads else names
    seconds = spec["run_seconds"]
    saved = {}
    all_ok = True
    for workload in chosen:
        seed = FIRST_SEED
        sets = []
        for _ in range(2):
            runs = []
            for _ in range(RUNS):
                r = run_once(workload, seed, seconds)
                notes = [ln.split(" = ")[-1] + " " + label
                         for key, label in (("warm-up", "warm-up"),
                                            ("stolen", "stolen"))
                         for ln in r["stdout"] if key in ln]
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{k}={fmt(v['value'])}" for k, v in r["metrics"].items())
                    + f" [{'; '.join(notes)}]"
                    + ("" if r["correct"] and r["failed"] == 0 else
                       f" correct={r['correct']} failed={r['failed']}"
                       f" of {r['attempted']}"), flush=True)
                runs.append(r)
                seed += 1
            sets.append(runs)
        saved[workload] = sets
        rows, ok = benchstats.compare_sets(sets[0], sets[1], spec)
        all_ok = all_ok and ok
        print(f"\n== {workload}: {RUNS} + {RUNS} runs, "
              f"{'OK' if ok else 'FAILED'}")
        print(f"{'metric':<14}{'bound':>7}  {'first q1/med/q3':<28}"
              f"{'second q1/med/q3':<28}{'spread1':>8}{'spread2':>8}"
              f"{'worse':>8}")
        for row in rows:
            if row["metric"] == "clean_runs":
                print(f"runs with a failed operation or correct = false: "
                      f"{row['dirty']} of {row['runs']}")
                continue
            if row["metric"] == "failed_share":
                print(f"failed share: first {row['first']:.4g}, second "
                      f"{row['second']:.4g} ({'equal' if row['ok'] else 'DIFFERENT'})")
                continue
            q = lambda t: "/".join(fmt(v) for v in t)
            print(f"{row['metric']:<14}{row['bound']:>7.3g}  {q(row['first']):<28}"
                  f"{q(row['second']):<28}{row['spread_first']:>8.3f}"
                  f"{row['spread_second']:>8.3f}{row['worsening']:>8.3f}"
                  f"{'' if row['ok'] else '  <-- beyond bound'}")
        print(flush=True)
    out = benchstats.ROOT / ".bench_build" / "perfbench" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(saved, indent=1))
    print("steadiness: " + ("all workloads within bounds" if all_ok
                            else "FAILED"))
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
