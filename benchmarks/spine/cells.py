"""The five workloads, one *cell* at a time.

A cell is: set up (generate the programs, build the store, start the
engine / WAL directory / shard fleet, run the warm-up), then run a fixed
number of programs in a closed loop, then check the outputs and tear
down.  The program count per cell is frozen in :data:`CELL_PROGRAMS`
because throughput decays with the length of a run (the engine's tables
and the trace grow): a cell of a fixed length decays by a fixed amount.
``run.py`` repeats cells until its measuring time is used and reports
medians over the cells.

Drivers only use package-level exports of ``repro.engine``,
``repro.checker``, ``repro.durability``, ``repro.serve`` and
``repro.cluster``, and leave the engine's latch settings at their
defaults.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import os
import resource
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import programs as gen
from spans import SpanGlobalTxn, SpanSession, SpanTxn, Tracer, mean_us, now

from repro.checker import StreamingCertifier
from repro.cluster import Cluster, ClusterAborted, recv_frame, send_frame
from repro.durability import DurabilityManager, list_segments
from repro.engine import (
    EngineConfig, LockTimeout, MetricsRegistry, NestedTransactionDB,
    TransactionAborted,
)
from repro.serve import AsyncFrontend

#: Timed programs per cell.  With the 5 % warm-up on top, each cell takes
#: roughly 2-3 s on the 2-core reference host.
CELL_PROGRAMS = {
    "nested_uniform": 12000,
    "contended_resilient": 12000,
    "certified_nested": 3000,
    "served_durable": 8000,
    "cluster_transfer": 2500,
}
WARMUP_SHARE = 0.05

#: Client threads on the blocking API.  The uniform engine workloads get
#: one: under the GIL a second client adds no parallelism, and two clients
#: that rarely conflict on Moss locks fall into a convoy on the engine
#: latch (each operation hands the latch and the GIL to the other thread)
#: that starts at a random point of a run and then persists, cutting
#: throughput 2-3x — a run's number would depend on when it started
#: (README, "Why one client thread").  A traced run repeats one cell on
#: two clients and reports ``engine.two_client_ratio``, so the convoy
#: stays measured.  Where clients do conflict on Moss locks they wait on
#: the engine's condition variable and run in turn.
CLIENT_THREADS = {
    "nested_uniform": 1,
    "contended_resilient": 2,
    "certified_nested": 1,
    "cluster_transfer": 2,
}
SESSIONS_IN_FLIGHT = 256    # served_durable closed-loop clients
SERVE_WORKERS = 2
MAX_RETRIES = 50            # per program, then it counts as failed
SUB_RETRIES = 3             # contained retries of one subtransaction
BACKOFF_S = 0.0005          # linear: attempt n sleeps n * BACKOFF_S

OBJECTS = {
    "nested_uniform": 4096,
    "contended_resilient": 64,
    "certified_nested": 4096,
    "served_durable": 16384,
    "cluster_transfer": 8192,
}
ZIPF_THETA = 0.99
SUB_FAILURE_SHARE = 0.10
READ_ONLY_SHARE = 0.10
CLUSTER_SHARDS = 2


class CheckFailed(Exception):
    """A correctness check on the outputs of a cell did not hold."""


@dataclass
class CellResult:
    setup_s: float
    wall_s: float
    attempted: int
    failed: int
    latencies_s: List[float]
    #: Per-layer measurements of this cell (traced cells only).
    layer: Dict[str, float] = field(default_factory=dict)

    @property
    def committed(self) -> int:
        return self.attempted - self.failed


@dataclass
class CellContext:
    """What ``run.py`` hands a cell."""
    seed: int
    cell: int
    scale: float
    scratch: str                 # an empty directory; run.py removes it
    tracer: Optional[Tracer]     # None in an untraced cell
    tamper: bool = False         # test hook: corrupt the final snapshot
    threads: Optional[int] = None  # overrides CLIENT_THREADS (engine cells)

    def counts(self, workload: str) -> Tuple[int, int]:
        """(warm-up programs, timed programs) for this cell."""
        timed = max(8, int(CELL_PROGRAMS[workload] * self.scale))
        return max(1, int(timed * WARMUP_SHARE)), timed


# -- closed-loop drivers -------------------------------------------------------


def drive_threads(
    run_one: Callable[[int], Tuple[bool, int, int]],
    first: int,
    count: int,
    threads: int,
) -> Tuple[float, List[float], List[float], List[Tuple[bool, int, int]]]:
    """Run programs ``first .. first+count`` on ``threads`` client
    threads; each takes the next program when its last one returned.
    Returns the wall time, per-program latencies and end times, and what
    ``run_one`` returned for each.  An exception in a client is raised
    here after all clients have stopped."""
    latencies = [0.0] * count
    ends = [0.0] * count
    outcomes: List[Any] = [None] * count
    ticket = itertools.count()
    errors: List[BaseException] = []

    def client() -> None:
        try:
            for offset in ticket:
                if offset >= count or errors:
                    return
                start = now()
                outcomes[offset] = run_one(first + offset)
                end = now()
                latencies[offset] = end - start
                ends[offset] = end
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    pool = [threading.Thread(target=client) for _ in range(threads)]
    started = now()
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    wall = now() - started
    if errors:
        raise errors[0]
    return wall, latencies, ends, outcomes


def run_nested_program(
    begin: Callable[[], Any], program: gen.NestedProgram
) -> Tuple[bool, int, int]:
    """One nested program on the blocking API, retried until it commits.
    Returns (committed, top-level retries, contained subtransaction
    aborts).  A subtransaction abort that leaves the parent live is
    retried inside the parent; one that took the parent with it restarts
    the program."""
    retries = 0
    contained = 0
    while True:
        top = begin()
        try:
            for read_obj, src, dst, amount, fail_first in program:
                if fail_first:
                    # The injected failure: abort after the first write.
                    child = top.begin_subtransaction()
                    child.read(read_obj)
                    child.write(src, child.read_for_update(src) - amount)
                    child.abort()
                    contained += 1
                for sub_attempt in itertools.count():
                    child = top.begin_subtransaction()
                    try:
                        child.read(read_obj)
                        child.write(src, child.read_for_update(src) - amount)
                        child.write(dst, child.read_for_update(dst) + amount)
                        child.commit()
                        break
                    except TransactionAborted:
                        child.abort()
                        if sub_attempt >= SUB_RETRIES or not top.is_live:
                            raise
                        contained += 1
            top.commit()
            return True, retries, contained
        except TransactionAborted:
            top.abort()
            retries += 1
            if retries > MAX_RETRIES:
                return False, retries, contained
            time.sleep(BACKOFF_S * retries)


# -- correctness checks --------------------------------------------------------


def check_conservation(snapshot: Dict[str, int], objects: int,
                       tamper: bool) -> None:
    """Every program moves value between objects, so the sum is fixed."""
    if tamper:
        # One unit appears from nowhere in one object: a lost update.
        snapshot = dict(snapshot)
        snapshot[min(snapshot)] += 1
    total = sum(snapshot.values())
    expected = objects * gen.INITIAL_BALANCE
    if len(snapshot) != objects or total != expected:
        raise CheckFailed(
            "conservation: %d objects sum to %d, expected %d objects and %d"
            % (len(snapshot), total, objects, expected)
        )


def check_cluster(cluster: Cluster, objects: int, tamper: bool) -> None:
    values, coherent, mismatches = cluster.logical_snapshot()
    if not coherent:
        raise CheckFailed("logical snapshot: %s" % "; ".join(mismatches))
    check_conservation(values, objects, tamper)


def check_engine(db: NestedTransactionDB, objects: int, tamper: bool) -> None:
    check_conservation(db.snapshot(), objects, tamper)
    db.assert_quiescent()
    if db.certifier is not None:
        # finish() flushes the reorder window, so nothing is left unjudged.
        db.certifier.finish()
        db.assert_certified()


# -- per-layer measurements ----------------------------------------------------


def rss_kb() -> float:
    """Resident set of this process now (``ru_maxrss`` only ever rises)."""
    with open("/proc/self/statm", "r", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize() / 1024.0


def quantile(samples: Sequence[float], q: float) -> float:
    """Interpolated quantile of raw samples (0 for none)."""
    if not samples:
        return 0.0
    data = sorted(samples)
    position = q * (len(data) - 1)
    low = int(position)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (position - low)


def decay_ratio(ends: List[float], started: float) -> float:
    """Throughput of the last quarter of the programs to finish over that
    of the first quarter."""
    order = sorted(ends)
    quarter = len(order) // 4
    if quarter < 1:
        return 1.0
    first = quarter / (order[quarter - 1] - started)
    last = quarter / (order[-1] - order[-quarter - 1])
    return last / first


def engine_layer(
    tracer: Tracer, db: NestedTransactionDB, committed: int, warm: int,
    outcomes: List[Tuple[bool, int, int]], ends: List[float], started: float,
    rss_growth_kb: float,
) -> Dict[str, float]:
    """``db.stats`` also counted the warm-up, which is the first 5 % of
    the same stream: ratios taken from it divide by warm-up plus timed
    programs.  Driver counts and spans cover the timed phase only."""
    spans = tracer.durations()
    stats = db.stats.snapshot()
    stats_txns = warm + committed
    retries = sum(outcome[1] for outcome in outcomes)
    contained = sum(outcome[2] for outcome in outcomes)
    performed = stats["reads"] + stats["writes"]
    useful = stats_txns * gen.OPS_PER_NESTED_PROGRAM
    return {
        "engine.begin_us": mean_us(spans.get("engine.begin", ())),
        "engine.perform_us": mean_us(spans.get("engine.perform", ())),
        "engine.sub_begin_us": mean_us(spans.get("engine.sub_begin", ())),
        "engine.sub_commit_us": mean_us(spans.get("engine.sub_commit", ())),
        "engine.top_commit_us": mean_us(spans.get("engine.top_commit", ())),
        "engine.abort_us": mean_us(spans.get("engine.abort", ())),
        "engine.perform_p99_us":
            quantile(spans.get("engine.perform", ()), 0.99) * 1e6,
        "engine.decay_ratio": decay_ratio(ends, started),
        "engine.rss_kb_per_ktxn": rss_growth_kb / committed * 1000.0,
        "engine.lock_waits_per_txn": stats["lock_waits"] / stats_txns,
        "engine.deadlocks_per_ktxn": stats["deadlocks"] / stats_txns * 1000.0,
        "engine.retries_per_txn": retries / committed,
        "engine.wasted_op_share":
            max(0.0, 1.0 - useful / performed) if performed else 0.0,
        "engine.contained_abort_share":
            contained / (contained + retries) if contained + retries else 0.0,
    }


def checker_layer(db: NestedTransactionDB, committed: int) -> Dict[str, float]:
    """Feed the recorded trace to a fresh certifier, off the engine's
    critical path, to time certification alone."""
    records = db.trace.records
    fresh = StreamingCertifier(db.initial_values)
    started = now()
    for record in records:
        fresh.feed(record)
    fresh.finish()
    elapsed = now() - started
    fresh.raise_on_violation()
    live = db.certifier.report()
    return {
        "checker.records_per_txn": live.records / committed,
        "checker.feed_us_per_record":
            elapsed / len(records) * 1e6 if records else 0.0,
        "checker.window_high_water": float(live.stats["max_live_tops"]),
    }


def wal_layer(registry: MetricsRegistry) -> Dict[str, float]:
    snap = registry.snapshot()
    counters = snap["counters"]
    commits = counters.get("wal_commits_total", 0)
    syncs = counters.get("wal_syncs_total", 0)
    sync_hist = snap["histograms"].get("wal_sync_seconds", {})
    return {
        "wal.fsyncs_per_commit": syncs / commits if commits else 0.0,
        "wal.commits_per_sync":
            counters.get("wal_sync_commits_total", 0) / syncs if syncs else 0.0,
        "wal.bytes_per_commit":
            counters.get("wal_bytes_total", 0) / commits if commits else 0.0,
        "wal.sync_p50_ms": sync_hist.get("p50", 0.0) * 1e3,
    }


def wire_echo_us(rounds: int = 2000) -> float:
    """One frame each way over a socketpair, on one thread: what a
    request/reply costs in framing, JSON and system calls alone."""
    left, right = socket.socketpair()
    try:
        request = {"op": "delta", "obj": "o00000", "delta": 1,
                   "applied": True, "branch": [0]}
        reply = {"ok": True, "seen": 1000, "value": 1001}
        started = now()
        for _ in range(rounds):
            send_frame(left, request)
            recv_frame(right)
            send_frame(right, reply)
            recv_frame(left)
        return (now() - started) / rounds * 1e6
    finally:
        left.close()
        right.close()


# -- the engine workloads ------------------------------------------------------


def _nested_cell(
    workload: str, ctx: CellContext, stream: str, pick_zipf: bool,
    failure_share: float, config: Dict[str, Any],
) -> CellResult:
    setup_started = now()
    warm, timed = ctx.counts(workload)
    objects = OBJECTS[workload]
    names = gen.object_names(objects)
    rng = gen.stream_rng(ctx.seed, stream, ctx.cell)
    pick = (gen.zipf_picker(rng, names, ZIPF_THETA) if pick_zipf
            else gen.uniform_picker(rng, names))
    programs = gen.nested_programs(rng, warm + timed, pick, failure_share)
    tracer = ctx.tracer
    registry = MetricsRegistry(enabled=tracer is not None)
    db = NestedTransactionDB(
        gen.initial_store(objects),
        config=EngineConfig(metrics=registry, **config),
    )

    if tracer is None:
        def run_one(index: int) -> Tuple[bool, int, int]:
            return run_nested_program(db.begin_transaction, programs[index])
    else:
        def run_one(index: int) -> Tuple[bool, int, int]:
            span_id = tracer.new_id()
            started = now()
            try:
                return run_nested_program(
                    lambda: SpanTxn.begin(db, tracer, span_id, index),
                    programs[index],
                )
            finally:
                tracer.add(span_id, 0, index, "program", started, now())

    threads = ctx.threads or CLIENT_THREADS[workload]
    drive_threads(run_one, 0, warm, threads)
    if tracer is not None:
        tracer.spans.clear()
    gc.collect()
    rss_before = rss_kb()
    setup_s = now() - setup_started

    timed_started = now()
    wall, latencies, ends, outcomes = drive_threads(
        run_one, warm, timed, threads
    )
    failed = sum(1 for outcome in outcomes if not outcome[0])
    result = CellResult(setup_s, wall, timed, failed, latencies)
    rss_growth = rss_kb() - rss_before

    check_engine(db, objects, ctx.tamper)
    if tracer is not None and result.committed:
        result.layer.update(engine_layer(
            tracer, db, result.committed, warm, outcomes, ends,
            timed_started, rss_growth,
        ))
        if db.certifier is not None:
            result.layer.update(checker_layer(db, warm + result.committed))
    db.close()
    return result


def nested_uniform(ctx: CellContext) -> CellResult:
    return _nested_cell(
        "nested_uniform", ctx, "nested_uniform", False, 0.0,
        {"record_trace": False},
    )


def contended_resilient(ctx: CellContext) -> CellResult:
    return _nested_cell(
        "contended_resilient", ctx, "contended_resilient", True,
        SUB_FAILURE_SHARE, {"record_trace": False},
    )


def certified_nested(ctx: CellContext) -> CellResult:
    # Same stream name as nested_uniform: the same seed gives the same
    # programs, so the pair differs only by trace and certifier.
    return _nested_cell(
        "certified_nested", ctx, "nested_uniform", False, 0.0,
        {"record_trace": True, "certify": "streaming"},
    )


# -- served_durable ------------------------------------------------------------


async def run_session(
    open_session: Callable[[bool], Any], program: gen.Session
) -> Tuple[bool, int, int]:
    """One flat session through the front-end, retried until it commits.
    Returns (committed, retries, awaits on the front-end)."""
    retries = 0
    crossings = 0
    read_only = program[0] == "r"
    while True:
        session = open_session(read_only)
        await session.begin()
        crossings += 1
        try:
            if read_only:
                for obj in program[1:]:
                    await session.read(obj)
                    crossings += 1
            else:
                _kind, a, b, c, amount = program
                await session.increment(a, amount)
                crossings += 1
                await session.increment(b, -amount)
                crossings += 1
                await session.read(c)
                crossings += 1
            await session.commit()
            return True, retries, crossings + 1
        except (TransactionAborted, LockTimeout):
            await session.abort()
            crossings += 1
            retries += 1
            if retries > MAX_RETRIES:
                return False, retries, crossings
            await asyncio.sleep(BACKOFF_S * retries)


async def drive_sessions(
    run_one: Callable[[int], Any], first: int, count: int, clients: int
) -> Tuple[float, List[float], List[Any]]:
    """The asyncio closed loop: ``clients`` coroutines on one event loop,
    each starting its next session when its last one finished."""
    latencies = [0.0] * count
    outcomes: List[Any] = [None] * count
    ticket = iter(range(count))

    async def client() -> None:
        for offset in ticket:
            start = now()
            outcomes[offset] = await run_one(first + offset)
            latencies[offset] = now() - start

    started = now()
    await asyncio.gather(*[client() for _ in range(min(clients, count))])
    return now() - started, latencies, outcomes


def serve_layer(tracer: Tracer, registry: MetricsRegistry, committed: int,
                crossings: int) -> Dict[str, float]:
    spans = tracer.durations()
    snap = registry.snapshot()
    counters = snap["counters"]
    histograms = snap["histograms"]
    op_batches = histograms.get("serve_batch_size", {}).get("count", 0)
    commit_batches = histograms.get("serve_commit_batch_size", {}).get("count", 0)
    return {
        "serve.await_begin_us": mean_us(spans.get("serve.await_begin", ())),
        "serve.await_op_us": mean_us(spans.get("serve.await_op", ())),
        "serve.await_commit_us": mean_us(spans.get("serve.await_commit", ())),
        "serve.loop_crossings_per_txn": crossings / committed,
        "serve.ops_per_batch":
            counters.get("serve_ops_total", 0) / op_batches
            if op_batches else 0.0,
        "serve.commits_per_batch":
            counters.get("serve_commits_total", 0) / commit_batches
            if commit_batches else 0.0,
        "serve.parked_per_txn":
            counters.get("serve_parked_total", 0) / committed,
    }


def served_durable(ctx: CellContext) -> CellResult:
    workload = "served_durable"
    setup_started = now()
    warm, timed = ctx.counts(workload)
    objects = OBJECTS[workload]
    names = gen.object_names(objects)
    rng = gen.stream_rng(ctx.seed, workload, ctx.cell)
    programs = gen.served_sessions(
        rng, warm + timed, gen.uniform_picker(rng, names), READ_ONLY_SHARE
    )
    tracer = ctx.tracer
    registry = MetricsRegistry(enabled=tracer is not None)
    wal_dir = os.path.join(ctx.scratch, "wal")
    os.makedirs(wal_dir)

    def open_db() -> NestedTransactionDB:
        return NestedTransactionDB(
            gen.initial_store(objects),
            config=EngineConfig(
                record_trace=True,
                certify="streaming",
                metrics=registry,
                durability=DurabilityManager(wal_dir, sync_policy="group"),
            ),
        )

    db = open_db()
    frontend = AsyncFrontend(db, workers=SERVE_WORKERS, metrics=registry)

    if tracer is None:
        def run_one(index: int) -> Any:
            return run_session(frontend.session, programs[index])
    else:
        async def run_one(index: int) -> Any:
            span_id = tracer.new_id()
            started = now()
            try:
                return await run_session(
                    lambda read_only: SpanSession(
                        frontend.session(read_only), tracer, span_id, index
                    ),
                    programs[index],
                )
            finally:
                tracer.add(span_id, 0, index, "program", started, now())

    async def both_phases() -> Tuple[float, float, List[float], List[Any]]:
        await drive_sessions(run_one, 0, warm, SESSIONS_IN_FLIGHT)
        if tracer is not None:
            tracer.spans.clear()
        setup_s = now() - setup_started
        wall, latencies, outcomes = await drive_sessions(
            run_one, warm, timed, SESSIONS_IN_FLIGHT
        )
        return setup_s, wall, latencies, outcomes

    try:
        setup_s, wall, latencies, outcomes = asyncio.run(both_phases())
    finally:
        frontend.close()
    failed = sum(1 for outcome in outcomes if not outcome[0])
    result = CellResult(setup_s, wall, timed, failed, latencies)

    check_engine(db, objects, ctx.tamper)
    before_close = db.snapshot()
    if tracer is not None and result.committed:
        crossings = sum(outcome[2] for outcome in outcomes)
        result.layer.update(
            serve_layer(tracer, registry, result.committed, crossings)
        )
        result.layer["engine.retries_per_txn"] = (
            sum(outcome[1] for outcome in outcomes) / result.committed
        )
        result.layer.update(checker_layer(db, warm + result.committed))
        result.layer.update(wal_layer(registry))
    db.close()

    # Durability: what a restart recovers from the log alone is what the
    # engine held when it closed.
    reopen_started = now()
    reopened = open_db()
    recovery_s = now() - reopen_started
    try:
        if reopened.snapshot() != before_close:
            raise CheckFailed("WAL reopen differs from the pre-close snapshot")
    finally:
        reopened.close()
    if tracer is not None:
        result.layer["durability.recovery_s"] = recovery_s
    return result


# -- cluster_transfer ----------------------------------------------------------


def message_count(cluster: Cluster) -> int:
    counts = cluster.protocol.counts()
    return counts["messages_sent"] + counts["messages_received"]


def wal_bytes_on_disk(base_dir: str, shards: int) -> int:
    total = 0
    for site in range(shards):
        wal_dir = os.path.join(base_dir, "site%d" % site, "wal")
        for _seq, path in list_segments(wal_dir):
            total += os.path.getsize(path)
    return total


def cluster_transfer(ctx: CellContext) -> CellResult:
    workload = "cluster_transfer"
    setup_started = now()
    warm, timed = ctx.counts(workload)
    objects = OBJECTS[workload]
    names = gen.object_names(objects)
    rng = gen.stream_rng(ctx.seed, workload, ctx.cell)
    programs = gen.transfers(
        rng, warm + timed, gen.uniform_picker(rng, names)
    )
    tracer = ctx.tracer
    base_dir = os.path.join(ctx.scratch, "cluster")
    os.makedirs(base_dir)
    cluster = Cluster(
        gen.initial_store(objects), shards=CLUSTER_SHARDS, certified=False,
        base_dir=base_dir,
    )
    try:
        def run_one(index: int) -> Tuple[bool, int, int]:
            a, b, amount = programs[index]
            attempts = 0
            span_id = tracer.new_id() if tracer is not None else 0
            started = ops_done = now()

            def body(txn: Any) -> None:
                nonlocal attempts, ops_done
                attempts += 1
                if tracer is not None:
                    txn = SpanGlobalTxn(txn, tracer, span_id, index)
                txn.rmw(a, -amount)
                txn.rmw(b, amount)
                ops_done = now()

            try:
                cluster.run(body, max_retries=MAX_RETRIES)
                committed = True
            except ClusterAborted:
                committed = False
            if tracer is not None:
                ended = now()
                # Cluster.run commits after the body returns: the commit
                # span runs from the last attempt's last op to the ack.
                tracer.add(tracer.new_id(), span_id, index, "cluster.commit",
                           ops_done, ended)
                tracer.add(span_id, 0, index, "program", started, ended)
            return committed, attempts - 1, 0

        threads = CLIENT_THREADS[workload]
        drive_threads(run_one, 0, warm, threads)
        if tracer is not None:
            tracer.spans.clear()
        messages_before = message_count(cluster)
        setup_s = now() - setup_started

        wall, latencies, _ends, outcomes = drive_threads(
            run_one, warm, timed, threads
        )
        failed = sum(1 for outcome in outcomes if not outcome[0])
        result = CellResult(setup_s, wall, timed, failed, latencies)

        check_cluster(cluster, objects, ctx.tamper)

        if tracer is not None and result.committed:
            spans = tracer.durations()
            messages = message_count(cluster) - messages_before
            branch_commits = sum(
                row["committed"] for row in cluster.stats()["sites"]
            )
            exchanges = cluster.protocol.site_exchanges().values()
            result.layer.update({
                "cluster.msgs_per_txn": messages / result.committed,
                "cluster.op_rtt_us": mean_us(spans.get("cluster.op", ())),
                "cluster.commit_ms":
                    mean_us(spans.get("cluster.commit", ())) / 1e3,
                "cluster.retries_per_txn":
                    sum(o[1] for o in outcomes) / result.committed,
                "cluster.site_exchange_skew":
                    max(exchanges) / min(exchanges) if exchanges else 0.0,
                "cluster.wire_echo_us": wire_echo_us(),
            })
    finally:
        cluster.close()
    if tracer is not None and result.committed:
        # The shards' registries are out of reach; the log on disk is not.
        result.layer["wal.bytes_per_commit"] = (
            wal_bytes_on_disk(base_dir, CLUSTER_SHARDS) / branch_commits
        )
    return result


WORKLOADS: Dict[str, Callable[[CellContext], CellResult]] = {
    "nested_uniform": nested_uniform,
    "contended_resilient": contended_resilient,
    "certified_nested": certified_nested,
    "served_durable": served_durable,
    "cluster_transfer": cluster_transfer,
}
