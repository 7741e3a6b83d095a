"""Compare two sets of benchmark runs, metric by metric.

Usage::

    python3 perf/compare.py A.json B.json

``A.json`` and ``B.json`` are files written by ``run.py --out`` (A the
parent, B the change), each holding one or more runs per workload.
Every (workload, metric) gets one row: the median and quartiles of each
side, the relative change of the medians and a verdict judged by the
metric's bound in ``BENCHMARK.json``:

* ``unresolved`` - the spread (quartile distance over median) of either
  side is wider than the bound, so a change within it cannot be told
  from noise; ``better`` instead when every B run beats every A run;
* ``regressed`` - B's median is worse than A's by more than the bound;
* ``ok`` - otherwise.

Per-layer metrics carry no bound and are shown for information.  The
last row per workload compares failed operations, which may not grow.
The exit code is 1 when any row regressed.
"""

from __future__ import annotations

import json
import os
import sys
from statistics import median, quantiles
from typing import Dict, List, Tuple

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def _runs(path: str) -> Tuple[Dict[Tuple[str, str], List[float]],
                              Dict[str, List[int]]]:
    with open(path) as handle:
        runs = json.load(handle)["runs"]
    values: Dict[Tuple[str, str], List[float]] = {}
    failures: Dict[str, List[int]] = {}
    for run in runs:
        for metric, value in run["metrics"].items():
            values.setdefault((run["workload"], metric), []).append(value)
        tally = failures.setdefault(run["workload"], [0, 0])
        tally[0] += run["failed"]
        tally[1] += run["attempted"]
    return values, failures


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return q1, median(values), q3


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    """The judgement of one end-to-end metric (see the module docstring)."""
    qa, qb = _quartiles(a), _quartiles(b)
    spread = max(
        (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (qa, qb)
    )
    if spread > bound:
        wins = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return "better" if wins else "unresolved"
    change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
    worse = change if better == "lower" else -change
    return "regressed" if worse > bound else "ok"


def _cell(values: List[float]) -> str:
    q1, mid, q3 = _quartiles(values)
    return "%.4g [%.4g, %.4g]" % (mid, q1, q3)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 perf/compare.py A.json B.json", file=sys.stderr)
        return 2
    with open(BENCHMARK) as handle:
        bounds = {m["name"]: m for m in json.load(handle)["end_to_end"]}
    a, failures_a = _runs(argv[0])
    b, failures_b = _runs(argv[1])
    rows = [("workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
             "change", "verdict")]
    regressed = False
    for key in sorted(set(a) & set(b)):
        workload, metric = key
        mid_a, mid_b = _quartiles(a[key])[1], _quartiles(b[key])[1]
        change = "%+.1f%%" % (100 * (mid_b - mid_a) / mid_a) if mid_a \
            else "n/a"
        spec = bounds.get(metric)
        judged = verdict(a[key], b[key], spec["better"], spec["bound"]) \
            if spec else "info"
        regressed |= judged == "regressed"
        rows.append((workload, metric, _cell(a[key]), _cell(b[key]), change,
                     judged))
    for workload in sorted(set(failures_a) & set(failures_b)):
        fa, fb = failures_a[workload], failures_b[workload]
        worse = fb[0] / fb[1] > fa[0] / fa[1]
        regressed |= worse
        rows.append((workload, "failed/attempted", "%d/%d" % tuple(fa),
                     "%d/%d" % tuple(fb), "", "regressed" if worse else "ok"))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
