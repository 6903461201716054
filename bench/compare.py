"""Compare two result sets of the benchmark: a parent commit and a change.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records that ``run.py --out`` appended.  Run the two
sides in alternating order with the same seeds, the i-th parent run paired
with the i-th change run of the same workload.  For every end-to-end metric
in BENCHMARK.json, one row per workload gives a verdict:

- ``gain``: at least MIN_PAIRS pairs, the change wins at least 9/10 of them
  (ties count for neither side), and the medians differ by more than the
  parent's own interquartile range;
- ``unresolved``: the parent's run-to-run spread (IQR / median) is wider
  than the metric's bound, and not every change run beats every parent run;
- ``regression``: the change's median is worse than the parent's by more
  than the bound;
- ``no regression``: otherwise.

A gain does not count when the change failed more ops than the parent.
Output digests of runs with the same workload and seed must agree; a
mismatch is flagged on the workload's row.  The exit code is 1 when any
metric regressed or a digest differs, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> dict:
    """Untraced records of one result set, by workload, in file order."""
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                if record["trace"] == 0:
                    runs[record["workload"]].append(record)
    return runs


def _quartiles(values):
    if len(values) < 2:
        return None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better: str, bound: float, extra_failures: bool) -> dict:
    """Judge one metric on one workload from the two lists of run values."""
    sign = 1.0 if better == "lower" else -1.0       # sign * (x - y) > 0: x is worse

    def beats(x, y):
        return sign * (y - x) > 0

    pairs = list(zip(parent, change))
    wins = sum(beats(c, p) for p, c in pairs)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    quart = _quartiles(parent)
    iqr = quart[2] - quart[0] if quart else float("inf")
    spread = iqr / abs(p_med) if p_med else float("inf")
    worse_by = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    all_better = all(beats(c, p) for p in parent for c in change)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and beats(c_med, p_med) and abs(c_med - p_med) > iqr):
        result = "gain (void: more ops failed)" if extra_failures else "gain"
    elif spread > bound and not all_better:
        result = "unresolved"
    elif worse_by > bound:
        result = "regression"
    else:
        result = "no regression"
    return {"verdict": result, "parent_median": p_med, "change_median": c_med,
            "parent_spread": spread, "worse_by": worse_by, "wins": wins,
            "pairs": len(pairs)}


def digest_mismatches(parent_runs, change_runs) -> list:
    """Seeds whose output digests differ between the two sides."""
    seen = {(r["env"]["seed"], r["digest_ops"]): r["digest"] for r in parent_runs}
    return sorted({r["env"]["seed"] for r in change_runs
                   if seen.get((r["env"]["seed"], r["digest_ops"]), r["digest"])
                   != r["digest"]})


def compare(parent: dict, change: dict, spec: dict) -> tuple:
    """Rows of (workload, metric, verdict dict) and per-workload digest flags."""
    rows, flags = [], {}
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        flags[workload] = digest_mismatches(p_runs, c_runs)
        extra_failures = (sum(r["failed"] for r in c_runs)
                          > sum(r["failed"] for r in p_runs))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            rows.append((workload, name, verdict(
                [r["metrics"][name]["value"] for r in p_runs],
                [r["metrics"][name]["value"] for r in c_runs],
                metric["better"], metric["bound"], extra_failures)))
    return rows, flags


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    rows, flags = compare(load(args.parent), load(args.change), spec)
    print("%-18s %-12s %12s %12s %8s %8s %6s  %s" % (
        "workload", "metric", "parent", "change", "worse", "spread", "wins", "verdict"))
    bad = False
    for workload, name, v in rows:
        print("%-18s %-12s %12.4g %12.4g %+7.1f%% %7.1f%% %3d/%-3d %s" % (
            workload, name, v["parent_median"], v["change_median"], 100 * v["worse_by"],
            100 * v["parent_spread"], v["wins"], v["pairs"], v["verdict"]))
        bad |= v["verdict"] == "regression"
    for workload, seeds in flags.items():
        if seeds:
            print("%-18s DIGEST MISMATCH for seeds %s" % (workload, seeds))
            bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
