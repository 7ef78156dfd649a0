"""E4 — contention sweep: abort and deadlock rates vs hotspot skew.

Fixed thread count, Zipf exponent swept from uniform to extreme skew.
Expected shape: lock waits and deadlocks rise with skew for the locking
systems; MVTO trades deadlocks for write rejections.
"""

from __future__ import annotations

import json
import os

from repro.bench import Table, emit, metrics_summary, run_cell, scale
from repro.bench.reporting import RESULTS_DIR

THETAS = (0.0, 0.5, 0.9, 1.2)
PROGRAMS = scale(60)  # REPRO_BENCH_SCALE shrinks the nightly sweep


def _sweep():
    rows = []
    for theta in THETAS:
        for system in ("moss-rw", "flat-2pl", "mvto"):
            report = run_cell(
                system,
                threads=6,
                op_delay=0.0002,
                max_retries=500,  # extreme skew thrashes MVTO; let it finish
                with_metrics=True,
                objects=32,
                theta=theta,
                shape="bushy",
                groups=3,
                ops_per_transaction=9,
                programs=PROGRAMS,
                seed=41,
            )
            stats = report.db_stats
            conflict_signals = (
                stats.get("deadlocks", 0)
                + stats.get("write_rejections", 0)
                + stats.get("validation_failures", 0)
            )
            rows.append(
                {
                    "theta": theta,
                    "system": system,
                    "committed": report.committed_programs,
                    "retries": report.retries,
                    "lock_waits": stats.get("lock_waits", 0),
                    "conflicts": conflict_signals,
                    "goodput": round(report.goodput, 1),
                    "metrics": metrics_summary(report),
                }
            )
    return rows


def test_e4_contention(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    table = Table(
        ["theta", "system", "committed", "retries", "lock_waits", "conflicts", "goodput"]
    )
    for row in rows:
        table.add_dict(row)
    emit(
        "E4: contention sweep — conflicts vs access skew",
        table,
        notes="Conflicts = deadlocks (locking) or rejections/validations (MVTO).",
    )
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out = os.path.join(RESULTS_DIR, "BENCH_e4_contention.json")
    with open(out, "w") as fh:
        json.dump({"experiment": "e4-contention", "rows": rows}, fh, indent=2)
    assert all(row["committed"] == PROGRAMS for row in rows)
    # Shape (noise-tolerant: aggregate across systems): total conflict
    # signals at the highest skew exceed those at uniform access.
    lo = sum(r["conflicts"] for r in rows if r["theta"] == 0.0)
    hi = sum(r["conflicts"] for r in rows if r["theta"] == 1.2)
    assert hi >= lo
