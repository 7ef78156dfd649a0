#!/usr/bin/env python3
"""Do two result sets agree?

    python3 benchmarks/spine/agree.py A.json B.json

``A.json`` and ``B.json`` are result sets written by ``run.py --out``.
Prints one row per workload and end-to-end metric — both medians, and the
ratio B/A with A as its base — and checks B against the regression bound
``BENCHMARK.json`` fixes for that metric: B may be worse than A by at
most ``bound`` times A, in the metric's own direction.  Exits 1 on any
breach and 2 when the comparison is unresolved: a set is missing a
workload or metric, failed a check, or was taken with the load average
above the core count (its numbers measured the host's other work too; the
rows are printed all the same).

A row ``within`` its bound is not shown to be unchanged: the bounds are
three times the run-to-run spread of a quiet host, so a difference
smaller than its bound is unresolved by two sets and needs the paired
runs described in the README.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, other = load(argv[0]), load(argv[1])
    spec = load(os.path.join(ROOT, "BENCHMARK.json"))
    unusable = 0
    for label, result_set in (("A", base), ("B", other)):
        if not result_set["fingerprint"].get("comparable", False):
            print("UNRESOLVED: %s was taken with the load average above the "
                  "core count; it is not labelled comparable" % label)
            unusable += 1
    breaches = 0
    print("%-20s %-16s %12s %12s %9s %7s  %s"
          % ("workload", "metric", "A", "B", "B/A", "bound", "verdict"))
    for workload in (entry["name"] for entry in spec["workloads"]):
        rows = [s["results"].get(workload) for s in (base, other)]
        if any(row is None or not row["correct"] for row in rows):
            print("%-20s missing or failed its checks" % workload)
            unusable += 1
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            try:
                a, b = (row["end_to_end"][name]["median"] for row in rows)
            except KeyError:
                print("%-20s %-16s missing" % (workload, name))
                unusable += 1
                continue
            ratio = b / a
            worse = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
            verdict = "within"
            if worse > metric["bound"]:
                verdict = "BREACH"
                breaches += 1
            print("%-20s %-16s %12.4f %12.4f %8.3fx %6.0f%%  %s"
                  % (workload, name, a, b, ratio, metric["bound"] * 100,
                     verdict))
    if unusable:
        return 2
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
