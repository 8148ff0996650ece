#!/usr/bin/env python3
"""Compare the benchmark records of two commits.

Usage: python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds records appended by ``run.py --out``.  For every workload
and metric the table gives each side's median with its quartiles and the
change of the medians as a share of the base median.  An end-to-end
change worse than the metric's bound in BENCHMARK.json is marked WORSE.
Records that ran different multiplication kernels measure different
programs, so the comparison is refused (exit 2).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def collect(records: list) -> dict:
    """{(workload, metric): [values]} over the records."""
    out = {}
    for rec in records:
        for name, metric in rec["result"]["metrics"].items():
            out.setdefault((rec["workload"], name), []).append(metric["value"])
    return out


def summary(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(argv[0]), load(argv[1])
    kernels = {rec["env"]["kernel"] for rec in base + change}
    if len(kernels) != 1:
        print(f"compare: records ran different kernels {sorted(kernels)}; refusing", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    before, after = collect(base), collect(change)
    print(f"{'workload':<14} {'metric':<36} {'base median [q1, q3]':>32} {'change median [q1, q3]':>32} {'change':>8}")
    for key in sorted(before.keys() & after.keys()):
        workload, name = key
        b, a = summary(before[key]), summary(after[key])
        shift = (a[1] - b[1]) / b[1] if b[1] else 0.0
        worse = shift if better.get(name) == "lower" else -shift
        mark = " WORSE" if name in bounds and worse > bounds[name]["bound"] else ""
        print(
            f"{workload:<14} {name:<36} {b[1]:>12.6g} [{b[0]:.4g}, {b[2]:.4g}]".ljust(85)
            + f"{a[1]:>12.6g} [{a[0]:.4g}, {a[2]:.4g}]".ljust(33)
            + f"{shift:+8.1%}{mark}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
