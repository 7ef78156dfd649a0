#!/usr/bin/env python
"""CI smoke benchmark: a down-scaled E1 cell.

Runs in seconds, not minutes.  The workload executes with trace
recording on; the run then must

* commit every program,
* pass the serializability oracle **and** the level-2 trace-conformance
  replay (``repro.checker.check_engine``), and
* quiesce (no leaked locks or dangling versions).

The JSON summary (throughput, conflict counters, oracle verdicts) is
written to ``--out`` for upload as a workflow artifact.  Exit status is
non-zero if the cell fails its checks — in particular, if the engine's
trace replay fails, CI fails.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.checker import OracleViolation, check_engine
from repro.engine import EngineConfig, NestedTransactionDB, TraceBusBridge
from repro.obs import JsonlFileSink
from repro.workload import WorkloadConfig, WorkloadGenerator, execute, initial_values

OBJECTS = 32  # the CI streaming gate passes --objects 32 to certify_stream


def run_cell(
    threads: int,
    programs: int,
    metrics_jsonl=None,
    certify: bool = False,
) -> dict:
    db = NestedTransactionDB(initial_values(OBJECTS), config=EngineConfig(record_trace=True, certify="streaming" if certify else None))
    if metrics_jsonl is not None:
        db.metrics.enable()
        db.events.attach(JsonlFileSink(metrics_jsonl))
        # Republish every trace record on the bus: the JSONL event stream
        # then doubles as a certifiable trace stream — CI pipes it
        # through scripts/certify_stream.py as an independent gate.
        db.trace.add_listener(TraceBusBridge(db.events))
    config = WorkloadConfig(
        objects=32,
        theta=0.6,
        shape="mixed",
        ops_per_transaction=8,
        programs=programs,
        seed=7,
    )
    report = execute(
        db,
        WorkloadGenerator(config).programs(),
        threads=threads,
        failure_prob=0.1,
        seed=7,
    )
    summary = {
        "committed_programs": report.committed_programs,
        "programs": programs,
        "throughput": round(report.throughput, 1),
        "goodput": round(report.goodput, 1),
        "retries": report.retries,
        "trace_records": len(db.trace),
        "db_stats": report.db_stats,
    }
    ok = True
    try:
        oracle = check_engine(db)
        summary["oracle_ok"] = bool(oracle.ok)
        ok &= bool(oracle.ok)
    except OracleViolation as violation:
        summary["oracle_ok"] = False
        summary["oracle_error"] = str(violation)
        ok = False
    try:
        db.assert_quiescent()
        summary["quiescent"] = True
    except AssertionError as leak:
        summary["quiescent"] = False
        summary["quiescence_error"] = str(leak)
        ok = False
    if report.committed_programs != programs:
        ok = False
    if certify:
        # The live streaming certifier must agree with the offline
        # oracle that just replayed the same trace — a per-commit
        # differential check of the incremental Theorem-9 path.
        streaming = db.certifier.finish()
        summary["streaming_ok"] = bool(streaming.ok)
        summary["streaming_stats"] = streaming.stats
        if not streaming.ok:
            summary["streaming_violations"] = [
                v.to_dict() for v in streaming.violations
            ]
            ok = False
        if streaming.ok != summary["oracle_ok"]:
            summary["streaming_disagrees_with_oracle"] = True
            ok = False
        if db.trace.listener_errors:
            summary["trace_listener_errors"] = db.trace.listener_errors
            summary["trace_listener_error"] = repr(db.trace.last_listener_error)
            ok = False
    if metrics_jsonl is not None:
        # Embed the registry snapshot and hold the run to the sink
        # contract: any sink exception fails the smoke benchmark.
        summary["metrics"] = db.metrics.snapshot()
        summary["events_emitted"] = db.events.emitted
        summary["sink_errors"] = db.events.sink_errors
        db.events.close()
        if db.events.sink_errors:
            summary["sink_error"] = repr(db.events.last_sink_error)
            ok = False
    summary["ok"] = ok
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="smoke_bench.json")
    parser.add_argument("--threads", type=int, default=6)
    parser.add_argument("--programs", type=int, default=40)
    parser.add_argument(
        "--with-metrics",
        action="store_true",
        help="enable the metrics registry, stream engine events (and the "
        "full trace) to the --metrics-out JSONL file, and fail if any "
        "event sink raised",
    )
    parser.add_argument(
        "--metrics-out",
        default="smoke_metrics.jsonl",
        help="the JSONL event stream written by --with-metrics",
    )
    parser.add_argument(
        "--certify",
        action="store_true",
        help="run the streaming certifier live on the cell's trace and "
        "fail unless it certifies AND agrees with the offline oracle",
    )
    args = parser.parse_args(argv)

    metrics_fh = None
    if args.with_metrics:
        metrics_fh = open(args.metrics_out, "w", encoding="utf-8")
    try:
        summary = run_cell(args.threads, args.programs, metrics_fh, args.certify)
    finally:
        if metrics_fh is not None:
            metrics_fh.close()
    with open(args.out, "w") as fh:
        json.dump({"experiment": "ci-smoke-e1", "cell": summary}, fh, indent=2)

    line = "%-7s %6.1f txn/s  oracle=%s quiescent=%s" % (
        "ok" if summary["ok"] else "FAILED",
        summary["throughput"],
        summary.get("oracle_ok"),
        summary.get("quiescent"),
    )
    if "streaming_ok" in summary:
        line += " streaming=%s" % summary["streaming_ok"]
    print(line)
    if not summary["ok"]:
        print("smoke benchmark FAILED; see %s" % args.out, file=sys.stderr)
        return 1
    print("smoke benchmark passed; summary written to %s" % args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
