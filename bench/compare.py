#!/usr/bin/env python3
"""Compare the benchmark results of a parent commit with those of a change.

    python3 bench/compare.py PARENT_RESULTS_DIR CHANGE_RESULTS_DIR

Each directory holds the .bench_out/results/*.json files of one checkout.
For every workload and end-to-end metric it prints both medians, their
quartile spreads and the ratio change/parent, and flags a regression
beyond the metric's bound in BENCHMARK.json. It also checks that runs of
the same workload and seed produced the same digests and work counts, the
guard against trajectory bit changes. Exits 1 on a regression or a
mismatch.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(directory.glob("*.json"))]


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bounds = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    parent, change = (load(Path(d)) for d in argv)
    status = 0

    by_key = {}
    for side, records in (("parent", parent), ("change", change)):
        for r in records:
            if r["trace"] == 0:
                by_key.setdefault(r["workload"], {}).setdefault(side, []).append(r)
    print(f"{'workload':16s}{'metric':14s}{'parent':>12s}{'change':>12s}"
          f"{'ratio':>8s}{'spreads':>16s}  verdict")
    for workload, sides in sorted(by_key.items()):
        if len(sides) < 2:
            print(f"{workload}: results on one side only")
            continue
        for name, spec in bounds.items():
            a = [r["metrics"][name]["value"] for r in sides["parent"]]
            b = [r["metrics"][name]["value"] for r in sides["change"]]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if spec["better"] == "lower" else (ma - mb) / ma
            if worse > spec["bound"]:
                verdict, status = "REGRESSION", 1
            elif max(spread(a), spread(b)) > spec["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload:16s}{name:14s}{ma:12.5g}{mb:12.5g}{mb / ma:8.3f}"
                  f"{spread(a):8.3f}{spread(b):8.3f}  {verdict}")

    # Same workload and seed: equal digests and step counts on every run,
    # equal call counts on every traced run.
    groups = {}
    for r in parent + change:
        g = groups.setdefault((r["workload"], r["seed"]), {})
        g.setdefault("digests", set()).add(json.dumps(r["digests"], sort_keys=True))
        g.setdefault("steps", set()).add(json.dumps(r["work"]["steps_per_op"]))
        if r["trace"] == 1:
            g.setdefault("calls", set()).add(json.dumps(r["work"]["calls_per_op"], sort_keys=True))
    for (workload, seed), g in sorted(groups.items()):
        for field, values in g.items():
            if len(values) > 1:
                # A change may mean to alter call counts; never digests or steps.
                print(f"{'note' if field == 'calls' else 'MISMATCH'} {workload} "
                      f"seed {seed}: {field} differ between runs")
                status |= field != "calls"
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
