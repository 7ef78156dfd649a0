#!/usr/bin/env python
"""CI saturation smoke: one serve-layer cell, streaming-certified, with
a calibrated regression gate against the committed E15 artifact.

Runs a single cell (default: the async front-end, 1k sessions) via :mod:`repro.serve.loadgen` — the exact code path behind
``benchmarks/bench_e15_saturation.py`` — and gates on *calibrated*
committed txn/s: the measured rate multiplied by this machine's trivial
Python loop cost (ns/iteration), which cancels raw CPU speed the same
way the E10 hot-path gate does.  A slower CI runner therefore does not
read as a serving regression; an actual serving regression does.

Usage (the CI ``saturation-smoke`` job)::

    python scripts/serve_bench.py --sessions 1000 \
        --baseline benchmarks/results/BENCH_e15_saturation.json \
        --max-regression 0.5 --out serve_smoke.json

Exit codes follow ``repro.cli``: 0 verdicts passed, 1 a verdict failed
(certification or the regression gate — the JSON names it), 2 bad
invocation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.cli import EXIT_OK, EXIT_USAGE, EXIT_VERDICT_FAIL
from repro.serve.loadgen import (
    calibration_loop_ns,
    host_info,
    run_async_cell,
    run_threaded_cell,
)


def calibrated_rate(cell: dict, loop_ns: float) -> float:
    """Machine-independent throughput: committed/s x ns-per-loop.  Both
    factors scale (inversely / directly) with raw CPU speed, so the
    product survives runner-generation changes."""
    return float(cell.get("committed_per_s", 0.0)) * loop_ns


def find_baseline_cell(doc: dict, driver: str) -> dict | None:
    """The committed cell to gate against: same driver, smallest session
    count at or above the smoke size (the committed sweep starts at 1k —
    CI's smoke cell).  The committed artifact predates the single-latch
    engine and carries one row per latch mode; the global rows are the
    engine that survived."""
    candidates = [
        c
        for c in doc.get("cells", [])
        if c.get("driver") == driver
        and c.get("latch_mode", "global") == "global"
        and not c.get("error")
    ]
    if not candidates:
        return None
    return min(candidates, key=lambda c: c.get("sessions", 0))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sessions", type=int, default=1000)
    parser.add_argument("--driver", choices=("async", "threaded"), default="async")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--max-batch", type=int, default=128)
    parser.add_argument(
        "--no-certify",
        action="store_true",
        help="skip streaming certification (gates throughput only)",
    )
    parser.add_argument(
        "--baseline",
        help="committed BENCH_e15_saturation.json to gate against",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.5,
        help="allowed drop in calibrated committed txn/s vs baseline",
    )
    parser.add_argument("--out", help="write the JSON report here")
    args = parser.parse_args(argv)

    if args.sessions <= 0 or args.workers <= 0 or args.max_batch <= 0:
        parser.error("--sessions/--workers/--max-batch must be positive")
    baseline_doc = None
    if args.baseline:
        try:
            with open(args.baseline) as fh:
                baseline_doc = json.load(fh)
        except (OSError, ValueError) as error:
            print("unusable baseline %s: %s" % (args.baseline, error))
            return EXIT_USAGE

    certify = None if args.no_certify else "streaming"
    loop_ns = calibration_loop_ns()
    failures = []
    try:
        if args.driver == "async":
            cell = run_async_cell(
                sessions=args.sessions,
                workers=args.workers,
                max_batch=args.max_batch,
                certify=certify,
            )
        else:
            cell = run_threaded_cell(sessions=args.sessions, certify=certify)
    except Exception as error:  # certification/engine verdicts fail the job
        cell = {"driver": args.driver}
        failures.append("run failed: %r" % (error,))

    report = {
        "host": host_info(),
        "calibration_loop_ns": round(loop_ns, 2),
        "cell": cell,
        "calibrated_rate": round(calibrated_rate(cell, loop_ns), 1),
        "failures": failures,
    }

    if not failures:
        if cell.get("error"):
            failures.append("cell error: %s" % cell["error"])
        if certify and not cell.get("certified"):
            failures.append("cell ran uncertified")
        if baseline_doc is not None:
            base_cell = find_baseline_cell(baseline_doc, args.driver)
            base_ns = baseline_doc.get("calibration_loop_ns")
            if base_cell is None or not base_ns:
                failures.append(
                    "baseline lacks a %s cell with calibration" % args.driver
                )
            else:
                base = calibrated_rate(base_cell, float(base_ns))
                now = calibrated_rate(cell, loop_ns)
                report["gate"] = {
                    "baseline_sessions": base_cell.get("sessions"),
                    "baseline_calibrated": round(base, 1),
                    "current_calibrated": round(now, 1),
                    "max_regression": args.max_regression,
                }
                if base > 0 and now < base * (1.0 - args.max_regression):
                    failures.append(
                        "calibrated committed txn/s regressed %.1f%% "
                        "(%.1f -> %.1f, gate %.0f%%)"
                        % (
                            100.0 * (1.0 - now / base),
                            base,
                            now,
                            args.max_regression * 100,
                        )
                    )

    report["failures"] = failures
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return EXIT_VERDICT_FAIL if failures else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
