"""E12 — commutative lock modes and snapshot reads under contention.

Two cells, both on the counter-heavy workload the increment mode was
built for:

* **E12a** sweeps access skew θ over a counter-heavy flat workload and
  A/B-compares the same access plan expressed as ``rmw`` (read-for-update
  + write, the only option before increment locks existed) against
  ``increment`` (blind delta under the self-commuting INCREMENT mode).
  Both variants consume identical RNG rolls, so they touch the same
  objects with the same deltas — the only difference is the lock mode.
  Expected shape: rmw goodput collapses with skew (every op on the hot
  counter serializes through a write-intent lock while ``op_delay``
  sleeps inside it); increment goodput barely moves, because
  increment/increment grants never conflict.

* **E12b** measures read-only *snapshot* transaction throughput while a
  writer pool hammers the same objects.  Snapshot readers take no locks
  — they read the committed multiversion history at their begin horizon
  — so their throughput should be independent of writer contention,
  while classical locked readers on the same plan degrade (read locks
  conflict with increment locks).
"""

from __future__ import annotations

import json
import os
import threading
import time

from repro.bench import Table, emit, run_cell, scale
from repro.bench.harness import SYSTEMS
from repro.bench.reporting import RESULTS_DIR
from repro.workload import WorkloadConfig, WorkloadGenerator, execute, initial_values

THETAS = (0.0, 0.9, 1.2)
PROGRAMS = scale(80)
THREADS = 8
OBJECTS = 32
OP_DELAY = 0.0005  # sleeps *inside* held locks: lock waits dominate
#: Wall-time budget of E12b's writer pool.  An idle reader cell takes
#: ~0.2 s; four always-overlapping writers can starve the locked readers
#: for as long as they run (no per-object wait queue — ROADMAP's convoy
#: item), so the pool stops after this long and the readers always drain.
WRITER_BUDGET = 5.0


def _counter_cell(counter_kind: str, theta: float):
    return run_cell(
        "moss-rw",
        threads=THREADS,
        op_delay=OP_DELAY,
        max_retries=500,
        objects=OBJECTS,
        theta=theta,
        shape="counter",
        counter_kind=counter_kind,
        # Pure counter updates: read locks would conflict with increment
        # locks and re-introduce the very waits the mode removes (E12b
        # covers readers — as lock-free snapshot transactions).
        read_ratio=0.0,
        ops_per_transaction=8,
        programs=PROGRAMS,
        seed=57,
    )


def _mode_sweep():
    rows = []
    for theta in THETAS:
        for kind in ("rmw", "increment"):
            report = _counter_cell(kind, theta)
            stats = report.db_stats
            rows.append(
                {
                    "theta": theta,
                    "mode": kind,
                    "committed": report.committed_programs,
                    "lock_waits": stats.get("lock_waits", 0),
                    "increments": stats.get("increments", 0),
                    "goodput": round(report.goodput, 1),
                    "p95_ms": round(report.latency_percentile(0.95) * 1000, 2),
                }
            )
    return rows


def _goodput(rows, mode, theta):
    return next(
        r["goodput"] for r in rows if r["mode"] == mode and r["theta"] == theta
    )


def test_e12a_increment_vs_rmw(benchmark):
    rows = benchmark.pedantic(_mode_sweep, rounds=1, iterations=1)
    table = Table(
        ["theta", "mode", "committed", "lock_waits", "increments", "goodput", "p95_ms"]
    )
    for row in rows:
        table.add_dict(row)
    emit(
        "E12a: counter workload — INCREMENT mode vs rmw baseline",
        table,
        notes="Identical access plans; only the lock mode differs.",
    )
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out = os.path.join(RESULTS_DIR, "BENCH_e12_contention_modes.json")
    payload = {"experiment": "e12-contention-modes", "rows": rows}
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2)
    assert all(row["committed"] == PROGRAMS for row in rows)
    # The tentpole's success metric, in two parts.  (1) At high skew the
    # commutative mode beats the rmw expression of the same plan by >= 2x.
    for theta in (0.9, 1.2):
        inc = _goodput(rows, "increment", theta)
        rmw = _goodput(rows, "rmw", theta)
        assert inc >= 2.0 * rmw, (theta, inc, rmw)
    # (2) Contention barely touches the increment mode: goodput at
    # theta=0.9 stays within 2x of the uncontended cell.
    assert _goodput(rows, "increment", 0.9) >= 0.5 * _goodput(
        rows, "increment", 0.0
    ), rows


def _reader_throughput(read_only: bool, writer_threads: int) -> float:
    """Reader programs/second with ``writer_threads`` increment writers
    running concurrently; ``read_only`` picks snapshot vs locked reads."""
    db = SYSTEMS["moss-rw"](initial_values(OBJECTS))
    config = WorkloadConfig(
        objects=OBJECTS,
        theta=1.2,  # readers and writers pile onto the same hot objects
        read_ratio=1.0,
        ops_per_transaction=8,
        shape="flat",
        programs=scale(60),
        seed=91,
    )
    programs = WorkloadGenerator(config).programs()
    if read_only:
        programs = [
            type(p)(p.root, p.label, True) for p in programs  # read_only=True
        ]
    stop = threading.Event()
    hot = sorted(initial_values(OBJECTS))[:4]

    def writer() -> None:
        # Sleep *inside* the transaction, like the executor's op_delay:
        # the hot set stays increment-locked nearly all the time, while
        # the GIL is free for the readers — lock contention, not CPU, is
        # what this cell measures.
        while not stop.is_set():
            def body(t):
                for obj in hot:
                    t.increment(obj, 1)
                    time.sleep(OP_DELAY)
            db.run_transaction(body)

    pool = [
        threading.Thread(target=writer, daemon=True)
        for _ in range(writer_threads)
    ]
    for thread in pool:
        thread.start()
    budget = threading.Timer(WRITER_BUDGET, stop.set)
    budget.start()
    try:
        report = execute(
            db, programs, threads=2, seed=91, op_delay=OP_DELAY, max_retries=500
        )
    finally:
        budget.cancel()
        stop.set()
        for thread in pool:
            thread.join()
    assert report.committed_programs == len(programs)
    return report.throughput


def test_e12b_snapshot_reader_independence(benchmark):
    cells = benchmark.pedantic(
        lambda: {
            (label, writers): _reader_throughput(read_only, writers)
            for label, read_only in (("locked", False), ("snapshot", True))
            for writers in (0, 4)
        },
        rounds=1,
        iterations=1,
    )
    table = Table(["readers", "idle txn/s", "contended txn/s", "retained"])
    summary = {}
    for label in ("locked", "snapshot"):
        idle, busy = cells[(label, 0)], cells[(label, 4)]
        retained = busy / idle if idle else 0.0
        summary[label] = {
            "idle": round(idle, 1),
            "contended": round(busy, 1),
            "retained": round(retained, 3),
        }
        table.add_row(label, round(idle, 1), round(busy, 1), round(retained, 2))
    emit(
        "E12b: reader throughput vs 4 increment writers on the hot set",
        table,
        notes="Snapshot readers take no locks; locked readers queue behind "
        "increment lock holders.",
    )
    out = os.path.join(RESULTS_DIR, "BENCH_e12_contention_modes.json")
    payload = {"experiment": "e12-contention-modes", "rows": []}
    if os.path.exists(out):
        with open(out) as fh:
            payload = json.load(fh)
    payload["snapshot_independence"] = summary
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2)
    # Snapshot readers keep at least half their idle throughput under
    # full writer contention (generous noise budget; in practice they are
    # nearly untouched), and retain more of it than locked readers do.
    assert summary["snapshot"]["retained"] >= 0.5, summary
    assert (
        summary["snapshot"]["retained"] >= summary["locked"]["retained"]
    ), summary
