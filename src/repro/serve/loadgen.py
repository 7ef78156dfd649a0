"""Saturation load generation: the cells behind E15.

Two drivers over the identical deterministic workload, so their numbers
are directly comparable:

* :func:`run_async_cell` — N concurrent asyncio sessions multiplexed
  through :class:`~repro.serve.frontend.AsyncFrontend` onto a small
  batch-submitting worker pool;
* :func:`run_threaded_cell` — the thread-per-session baseline: one OS
  thread per client, each on the engine's ordinary blocking API (the
  architecture every pre-serve benchmark used).

The workload is seeded per session index — session *i* touches the same
objects under either driver — and deliberately low-conflict (commutative
increments plus one read over a keyspace scaled with the session count):
saturation cells measure the serving architecture, not lock contention,
which E4/E12 already characterize.

Latency samples are collected in plain Python lists on both drivers —
identical measurement cost, so the p50/p95/p99 comparison is symmetric —
and every cell can run streaming-certified (``certify="streaming"``), in
which case the cell asserts the certifier's verdict before reporting.

Thread-per-session cells shrink each thread's stack (256 KiB) to reach
thousands of threads at all; cells beyond the OS's thread ceiling report
``error="cant-start-thread"`` with the count reached — at 100k sessions
that failure *is* the measurement, and the asyncio cells carry on.
"""

from __future__ import annotations

import asyncio
import os
import random
import sys
import threading
import time
from typing import Any, Dict, List, Optional

from ..engine import EngineConfig, NestedTransactionDB
from ..obs import MetricsRegistry
from .frontend import AsyncFrontend

#: Per-thread stack for the thread-per-session baseline.  The default
#: (8 MiB rlimit) caps a process near ~1k threads of address space
#: comfort; 256 KiB is plenty for the engine's call depth and lets the
#: baseline at least attempt the 10k cell.
THREAD_STACK_BYTES = 256 * 1024

#: Objects per session in the scaled keyspace.  4x keeps the collision
#: probability per op low at every cell size (the point of saturation
#: cells), while a fixed floor keeps tiny cells from degenerating.
OBJECTS_PER_SESSION = 4
OBJECTS_FLOOR = 4096

MAX_RETRIES = 50
RETRY_BACKOFF = 0.001


def percentiles(samples: List[float], qs=(0.5, 0.95, 0.99)) -> Dict[str, float]:
    """Exact (interpolated) percentiles of raw samples, keyed
    ``p50``/``p95``/``p99``.  Used instead of histogram buckets so the
    async/threaded comparison is not distorted by bucket edges."""
    out: Dict[str, float] = {}
    if not samples:
        return {"p%d" % int(q * 100): 0.0 for q in qs}
    data = sorted(samples)
    top = len(data) - 1
    for q in qs:
        pos = q * top
        lo = int(pos)
        hi = min(lo + 1, top)
        frac = pos - lo
        out["p%d" % int(q * 100)] = data[lo] * (1.0 - frac) + data[hi] * frac
    return out


def calibration_loop_ns() -> float:
    """Nanoseconds per trivial Python loop iteration on this machine —
    the unit regression gates normalize latencies by, so a slower CI
    runner does not read as a serving regression (same convention as the
    E10 hot-path gate)."""
    counter = list(range(256))

    def spin(n: int) -> None:
        total = 0
        for _ in range(n // 256):
            for value in counter:
                total += value

    best = float("inf")
    n = 1 << 18
    for _ in range(5):
        started = time.perf_counter()
        spin(n)
        best = min(best, time.perf_counter() - started)
    return best / n * 1e9 if best > 0 else 0.0


def free_threading_info() -> Dict[str, Any]:
    """Whether this interpreter can run with the GIL disabled (the
    3.13t free-threaded build).  Recorded per artifact so a cell's
    numbers are never compared across incompatible runtimes."""
    probe = getattr(sys, "_is_gil_enabled", None)
    return {
        "python": "%d.%d.%d" % sys.version_info[:3],
        "supported": probe is not None,
        "gil_enabled": bool(probe()) if probe is not None else True,
    }


def keyspace_size(sessions: int) -> int:
    return max(OBJECTS_FLOOR, OBJECTS_PER_SESSION * sessions)


def session_objects(index: int, n_obj: int, seed: int = 0) -> List[str]:
    """The three objects session ``index`` touches — two increment
    targets and one read target — identical under both drivers."""
    rng = random.Random((seed << 20) ^ index)
    return ["o%d" % rng.randrange(n_obj) for _ in range(3)]


def build_engine(
    certify: Optional[str] = None,
    sessions: int = 1000,
    **config_kwargs: Any,
) -> NestedTransactionDB:
    n_obj = keyspace_size(sessions)
    config = EngineConfig(certify=certify, **config_kwargs)
    return NestedTransactionDB(
        {"o%d" % i: 0 for i in range(n_obj)}, config=config
    )


def _finish_cell(
    cell: Dict[str, Any],
    db: Any,
    completed: int,
    wall: float,
    commit_ms: List[float],
    txn_ms: List[float],
) -> Dict[str, Any]:
    stats = getattr(db, "stats", None)
    cell["completed_sessions"] = completed
    cell["wall_seconds"] = round(wall, 3)
    cell["committed_per_s"] = round(completed / wall, 1) if wall > 0 else 0.0
    if stats is not None:
        cell["committed"] = stats.committed
        cell["aborted"] = stats.aborted
        cell["deadlocks"] = stats.deadlocks
    cell["commit_latency_ms"] = {
        k: round(v, 3) for k, v in percentiles(commit_ms).items()
    }
    cell["txn_latency_ms"] = {
        k: round(v, 3) for k, v in percentiles(txn_ms).items()
    }
    certifier = getattr(db, "certifier", None)
    if certifier is not None:
        db.assert_certified()
        cell["certified"] = True
    else:
        cell["certified"] = False
    return cell


def run_async_cell(
    sessions: int = 1000,
    workers: int = 2,
    max_batch: int = 128,
    certify: Optional[str] = None,
    seed: int = 0,
    db: Optional[Any] = None,
    max_inflight: Optional[int] = None,
    **config_kwargs: Any,
) -> Dict[str, Any]:
    """One asyncio front-end cell: ``sessions`` concurrent sessions over
    ``workers`` latch-crossing threads.  Pass ``db`` to drive an
    existing backend (e.g. a cluster coordinator) instead of building a
    fresh engine; otherwise the keyspace scales with the session count.

    ``max_inflight`` bounds how many sessions hold an *open transaction*
    at once (all ``sessions`` coroutines still exist concurrently — that
    is the thing a thread per session cannot do).  An unbounded closed
    loop at very large N opens every transaction up front, so one FIFO
    pass over the submission queue takes longer than ``lock_timeout``
    and every lock hold blows the deadline: throughput collapses into
    retries.  Admission control is how a real front-end serves 100k
    connections over an engine sized for thousands of in-flight
    transactions.  Returns the JSON-ready cell dict."""
    own_db = db is None
    if own_db:
        db = build_engine(certify, sessions, **config_kwargs)
    n_obj = keyspace_size(sessions)
    registry = MetricsRegistry(enabled=True)
    commit_ms: List[float] = []
    txn_ms: List[float] = []

    async def one(
        frontend: AsyncFrontend, admission: Optional[Any], index: int
    ) -> None:
        objs = session_objects(index, n_obj, seed)

        async def body(s):
            await s.increment(objs[0], 1)
            await s.increment(objs[1], 1)
            return await s.read(objs[2])

        began = time.perf_counter()
        if admission is not None:
            async with admission:
                await frontend.run_session(
                    body, max_retries=MAX_RETRIES, backoff=RETRY_BACKOFF
                )
        else:
            await frontend.run_session(
                body, max_retries=MAX_RETRIES, backoff=RETRY_BACKOFF
            )
        done = time.perf_counter()
        txn_ms.append((done - began) * 1000.0)

    async def drive() -> float:
        frontend = AsyncFrontend(
            db, workers=workers, max_batch=max_batch, metrics=registry
        )
        admission = (
            asyncio.Semaphore(max_inflight)
            if max_inflight is not None else None
        )
        started = time.perf_counter()
        await asyncio.gather(
            *[one(frontend, admission, i) for i in range(sessions)]
        )
        wall = time.perf_counter() - started
        await frontend.aclose()
        return wall

    wall = asyncio.run(drive())
    snapshot = registry.snapshot()
    cell: Dict[str, Any] = {
        "driver": "async",
        "sessions": sessions,
        "workers": workers,
        "max_batch": max_batch,
        "max_inflight": max_inflight,
        "objects": n_obj if own_db else None,
        "serve": {
            "batches": snapshot["counters"].get("serve_batches_total", 0),
            "ops": snapshot["counters"].get("serve_ops_total", 0),
            "parked": snapshot["counters"].get("serve_parked_total", 0),
            "commits": snapshot["counters"].get("serve_commits_total", 0),
            "batch_size": snapshot["histograms"].get("serve_batch_size"),
            "commit_batch_size": snapshot["histograms"].get(
                "serve_commit_batch_size"
            ),
        },
    }
    _finish_cell(cell, db, sessions, wall, commit_ms, txn_ms)
    # Commit-ack latency (submission -> group-fsync-covered resolution)
    # comes from the frontend's histogram, not the empty raw list.
    commit_hist = snapshot["histograms"].get("serve_session_commit_seconds")
    if commit_hist and commit_hist["count"]:
        cell["commit_latency_ms"] = {
            "p50": round(commit_hist["p50"] * 1000.0, 3),
            "p95": round(commit_hist["p95"] * 1000.0, 3),
            "p99": round(commit_hist["p99"] * 1000.0, 3),
        }
    return cell


def run_threaded_cell(
    sessions: int = 1000,
    certify: Optional[str] = None,
    seed: int = 0,
    **config_kwargs: Any,
) -> Dict[str, Any]:
    """The thread-per-session baseline over the identical workload.
    Reports ``error="cant-start-thread"`` (with the count reached) when
    the OS refuses to spawn the requested fleet — at the 100k cell that
    refusal is the result."""
    db = build_engine(certify, sessions, **config_kwargs)
    n_obj = keyspace_size(sessions)
    commit_ms: List[float] = []
    txn_ms: List[float] = []
    latency_lock = threading.Lock()

    def session(index: int) -> None:
        objs = session_objects(index, n_obj, seed)
        rng = random.Random(index)
        began = time.perf_counter()
        for attempt in range(MAX_RETRIES + 1):
            txn = db.begin_transaction()
            try:
                txn.increment(objs[0], 1)
                txn.increment(objs[1], 1)
                txn.read(objs[2])
                submitted = time.perf_counter()
                txn.commit()
                done = time.perf_counter()
                with latency_lock:
                    commit_ms.append((done - submitted) * 1000.0)
                    txn_ms.append((done - began) * 1000.0)
                return
            except Exception:
                try:
                    txn.abort()
                except Exception:
                    pass
                if attempt >= MAX_RETRIES:
                    raise
                time.sleep(
                    RETRY_BACKOFF * (attempt + 1) * (0.5 + rng.random())
                )

    old_stack = threading.stack_size(THREAD_STACK_BYTES)
    error: Optional[str] = None
    started = 0
    # Peak simultaneously-live threads: the honest concurrency of this
    # driver.  A short-session closed loop can "survive" huge fleets
    # because threads die faster than the spawn loop creates them — the
    # cell never actually holds ``sessions`` concurrent clients, and
    # this number says so.
    peak_live = 0
    try:
        threads = [
            threading.Thread(target=session, args=(i,), daemon=True)
            for i in range(sessions)
        ]
        begun = time.perf_counter()
        try:
            for thread in threads:
                thread.start()
                started += 1
                live = threading.active_count()
                if live > peak_live:
                    peak_live = live
        except (RuntimeError, MemoryError):
            error = "cant-start-thread"
        for thread in threads[:started]:
            thread.join()
        wall = time.perf_counter() - begun
    finally:
        threading.stack_size(old_stack)
    cell: Dict[str, Any] = {
        "driver": "threaded",
        "sessions": sessions,
        "threads_started": started,
        "peak_live_threads": peak_live,
        "objects": n_obj,
        "stack_bytes": THREAD_STACK_BYTES,
    }
    if error is not None:
        cell["error"] = error
    _finish_cell(cell, db, started if error else sessions, wall, commit_ms, txn_ms)
    return cell


def host_info() -> Dict[str, Any]:
    """The host facts a saturation artifact must carry: single-core runs
    measure the front-end's multiplexing *message cost* (the GIL never
    parallelizes), multi-core runs measure the escape itself."""
    cpus = os.cpu_count() or 1
    info = {
        "cpu_count": cpus,
        "single_core": cpus == 1,
        "platform": sys.platform,
    }
    info.update(free_threading_info())
    return info
