"""E9 — durability overhead: WAL off vs per-commit fsync vs group commit.

The durability subsystem appends a redo batch inside the commit critical
section and fsyncs after the latch drops, so the interesting costs are:

* **wal-off** — the in-memory engine, the baseline;
* **wal-none** — append the log but never fsync (buffered writes only):
  the pure bookkeeping cost of framing + appending;
* **wal-commit** — fsync on every top-level commit: the classic
  force-at-commit penalty, one disk barrier per transaction;
* **wal-group** — group commit: a leader holds a small window open and
  one fsync covers every commit appended meanwhile.  Throughput should
  sit between none and commit, with ``syncs << commits``.

Each durable cell also proves itself: after the run, a fresh recovery
over the WAL directory must reproduce the engine's final snapshot
(``none`` is exempt — unsynced tails are allowed to be shorter).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

from repro.bench import Table, certify_config, certify_if_enabled, emit, enable_metrics, scale
from repro.bench.reporting import RESULTS_DIR
from repro.durability import DurabilityManager, RecoveryManager
from repro.engine import NestedTransactionDB
from repro.workload import WorkloadConfig, WorkloadGenerator, execute, initial_values

OBJECTS = 64
PROGRAMS = scale(64)  # REPRO_BENCH_SCALE shrinks the nightly sweep
THREADS = 4

VARIANTS = (
    ("wal-off", None),
    ("wal-none", "none"),
    ("wal-commit", "commit"),
    ("wal-group", "group"),
)


def _wal_summary(report):
    """WAL counters and latency percentiles for the JSON artifact."""
    snapshot = report.metrics or {}
    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})
    summary = {
        "wal_commits": counters.get("wal_commits_total", 0),
        "wal_syncs": counters.get("wal_syncs_total", 0),
        "wal_bytes": counters.get("wal_bytes_total", 0),
    }
    for key in ("wal_append_seconds", "wal_sync_seconds", "engine_commit_seconds"):
        data = histograms.get(key)
        if data and data["count"]:
            summary[key] = {
                "count": data["count"],
                "p50": data["p50"],
                "p95": data["p95"],
                "p99": data["p99"],
            }
    return summary


def _run_variants():
    config = WorkloadConfig(
        objects=OBJECTS,
        theta=0.3,
        shape="bushy",
        groups=4,
        ops_per_transaction=8,
        programs=PROGRAMS,
        seed=23,
    )
    programs = WorkloadGenerator(config).programs()
    rows = []
    for label, sync in VARIANTS:
        directory = tempfile.mkdtemp(prefix="bench-e9-")
        try:
            durability = (
                None
                if sync is None
                else DurabilityManager(directory, sync_policy=sync)
            )
            db = NestedTransactionDB(
                initial_values(OBJECTS),
                config=certify_config(
                    record_trace=False,
                    durability=durability,
                ),
            )
            enable_metrics(db)
            report = execute(db, programs, threads=THREADS, seed=23)
            certify_if_enabled(db)
            final = db.snapshot()
            db.close()
            row = {
                "system": label,
                "sync": sync or "n/a",
                "threads": THREADS,
                "committed": report.committed_programs,
                "throughput": round(report.throughput, 1),
                "goodput": round(report.goodput, 1),
                "p95_ms": round(report.latency_percentile(0.95) * 1000, 2),
                "metrics": _wal_summary(report),
            }
            if sync in ("commit", "group"):
                # The durable variants must be recoverable: replaying the
                # directory reproduces the engine's final state exactly.
                recovered = RecoveryManager(directory).recover(
                    initial_values(OBJECTS)
                )
                row["recovered_matches"] = recovered.values == final
                row["commits_replayed"] = recovered.commits_replayed
            rows.append(row)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    return rows


def test_e9_durability_overhead(benchmark):
    rows = benchmark.pedantic(_run_variants, rounds=1, iterations=1)
    table = Table(
        [
            "system",
            "sync",
            "threads",
            "committed",
            "throughput",
            "goodput",
            "p95_ms",
        ]
    )
    for row in rows:
        table.add_row(*[row[c] for c in table.columns])
    emit(
        "E9: durability overhead — WAL off / none / per-commit fsync / group",
        table,
        notes=(
            "Force-at-commit pays one disk barrier per transaction; group\n"
            "commit amortizes the barrier across the commit window\n"
            "(syncs << commits in the JSON metrics block)."
        ),
    )
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out = os.path.join(RESULTS_DIR, "BENCH_e9_durability.json")
    with open(out, "w") as fh:
        json.dump({"experiment": "e9-durability", "rows": rows}, fh, indent=2)

    assert all(row["committed"] == PROGRAMS for row in rows)
    # Durable runs are actually recoverable.
    assert all(
        row.get("recovered_matches", True) for row in rows
    ), "recovery did not reproduce the final snapshot"
    by_name = {row["system"]: row for row in rows}
    # Group commit batches: strictly fewer fsyncs than commits.
    group = by_name["wal-group"]["metrics"]
    assert group["wal_syncs"] <= group["wal_commits"]
