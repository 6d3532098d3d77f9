"""Shared arithmetic of the benchmark's Python side: quartiles, spread,
the comparison of two sets of runs, and the check of a result line
against BENCHMARK.json."""

import json
import math
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def load_spec(path=SPEC_PATH):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med


def worsening(first, second, better):
    """How much worse the median of `second` is than that of `first`, as
    a share of the first median (negative when it is better)."""
    m1 = statistics.median(first)
    m2 = statistics.median(second)
    change = (m2 - m1) / m1
    return change if better == "lower" else -change


def expected_metrics(spec, trace):
    """{name: unit} the result line must carry in the given mode."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(result, spec, trace):
    """Problems with a parsed result line (an empty list when it is
    well-formed): exactly the four keys, whole counts, attempted >= 1,
    and every metric of the mode with its unit and a finite number."""
    problems = []
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return ["result must have exactly the keys " + ", ".join(sorted(RESULT_KEYS))]
    if not isinstance(result["correct"], bool):
        problems.append("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} must be a whole number")
    if not problems:
        if result["attempted"] < 1:
            problems.append("attempted must be at least 1")
        if not 0 <= result["failed"] <= result["attempted"]:
            problems.append("failed must lie in [0, attempted]")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics must be an object"]
    expected = expected_metrics(spec, trace)
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append(f"metric names differ: missing {missing}, extra {extra}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            problems.append(f"{name}: must be {{value, unit}}")
            continue
        if m["unit"] != unit:
            problems.append(f"{name}: unit {m['unit']!r}, expected {unit!r}")
        v = m["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            problems.append(f"{name}: value {v!r} is not a finite number")
        elif not trace and v <= 0:
            problems.append(f"{name}: end-to-end value {v!r} is not positive")
    return problems


def compare_sets(first, second, spec):
    """Compare two sets of result lines of one workload the way the
    benchmark is accepted: per end-to-end metric, the spread of each set
    (setup_s exempt) and the worsening of the second median must stay
    within the bound, and the share of failed operations must be equal.
    Every run must also say correct and report no failed operation: no
    workload fails today, so a failure is a fault, however evenly the two
    sets share it. Returns (rows, ok); each row is a dict for printing."""
    rows = []
    ok = True
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        a = [r["metrics"][name]["value"] for r in first]
        b = [r["metrics"][name]["value"] for r in second]
        qa, qb = quartiles(a), quartiles(b)
        sa, sb = spread(a), spread(b)
        worse = worsening(a, b, m["better"])
        row_ok = worse <= bound and (name == "setup_s" or max(sa, sb) <= bound)
        ok = ok and row_ok
        rows.append({"metric": name, "unit": m["unit"], "bound": bound,
                     "first": qa, "second": qb, "spread_first": sa,
                     "spread_second": sb, "worsening": worse, "ok": row_ok})
    dirty = sum(1 for r in first + second
                if not r["correct"] or r["failed"] > 0)
    rows.append({"metric": "clean_runs", "dirty": dirty,
                 "runs": len(first) + len(second), "ok": dirty == 0})
    ok = ok and dirty == 0
    share_a = sum(r["failed"] for r in first) / sum(r["attempted"] for r in first)
    share_b = sum(r["failed"] for r in second) / sum(r["attempted"] for r in second)
    failed_ok = share_a == share_b
    rows.append({"metric": "failed_share", "first": share_a, "second": share_b,
                 "ok": failed_ok})
    return rows, ok and failed_ok
