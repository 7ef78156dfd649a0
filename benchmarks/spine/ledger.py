"""The cost ledger: one flat stream, one client, up the stack a rung at a time.

Every rung replays a prefix of the same seeded stream of transfers (move
an amount between two accounts: two write-intent reads and two writes) on
a single client, so its operation counts repeat exactly from run to run.
A *line* of the ledger is the difference between two rungs, in
microseconds per transaction:

====================  =========================================================
``engine_base``       the engine with trace, certifier and WAL off
``trace``             + ``record_trace=True``
``certifier``         + ``certify="streaming"``
``wal_none``          + a WAL that appends and never syncs
``wal_commit``        an fsync per commit, over ``wal_none``
``serve``             the same engine behind ``AsyncFrontend``, one session at a
                      time, over ``wal_commit``
``wal_group``         group commit, over ``wal_none`` (a fork; with one client
                      nobody shares the fsync, so this is the window's price)
``wire``              a 1-shard ``Cluster`` (uncertified, shard WAL on), over
                      an in-process engine with a per-commit fsync
``twopc``             the stream's transfers all cross the two shards of a
                      2-shard ``Cluster``, over the 1-shard rung
``certifier_nested``  certifier cost for nested programs (own stream; a fork)
====================  =========================================================

The top rung puts everything on at once: ``AsyncFrontend`` over a
certified 2-shard ``Cluster``.  The lines on its path (base, trace,
certifier, wal_none, wal_commit, serve, wire, twopc) plus
``residual`` add up to it, so the residual is what building the stack a
layer at a time does not explain — costs that only appear in combination,
such as per-transaction connections of a pooled front-end or the merged
cross-site certifier.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import os
from typing import Any, Callable, Dict, List, Tuple

import programs as gen
from cells import (
    CheckFailed, check_cluster, check_engine, message_count,
    run_nested_program,
)
from spans import now

from repro.cluster import Cluster, ClusterMap
from repro.durability import DurabilityManager
from repro.engine import EngineConfig, MetricsRegistry, NestedTransactionDB
from repro.serve import AsyncFrontend

OBJECTS = 4096
#: The lines between the bottom rung and the top one, in order; with
#: ``residual`` they add up to ``ledger.top_us_per_txn``.
PATH_LINES = ("engine_base", "trace", "certifier", "wal_none", "wal_commit",
              "serve", "wire", "twopc")
#: Transactions per rung.  Rungs that wait out the group-commit window
#: (2.5 ms a transaction with one client) or cross a process boundary get
#: fewer, so that the whole ledger takes about five seconds.
ENGINE_TXNS = 1000
GROUP_TXNS = 200
WIRE_TXNS = 200
NESTED_TXNS = 300
WARMUP_TXNS = 300


def _scaled(count: int, scale: float) -> int:
    return max(8, int(count * scale))


def _engine(config: Dict[str, Any]) -> NestedTransactionDB:
    return NestedTransactionDB(
        gen.initial_store(OBJECTS), config=EngineConfig(**config)
    )


def _blocking(db: NestedTransactionDB, stream: List[gen.Transfer]) -> float:
    started = now()
    for a, b, amount in stream:
        txn = db.begin_transaction()
        txn.write(a, txn.read_for_update(a) - amount)
        txn.write(b, txn.read_for_update(b) + amount)
        txn.commit()
    return (now() - started) / len(stream) * 1e6


def _served(backend: Any, stream: List[gen.Transfer]) -> Tuple[float, int]:
    """One session at a time through ``AsyncFrontend``; returns µs/txn and
    the number of awaits on the front-end."""
    frontend = AsyncFrontend(backend, workers=2)
    crossings = 0

    async def client() -> float:
        nonlocal crossings
        started = now()
        for a, b, amount in stream:
            session = frontend.session()
            await session.begin()
            await session.rmw(a, -amount)
            await session.rmw(b, amount)
            await session.commit()
            crossings += 4
        return (now() - started) / len(stream) * 1e6

    try:
        return asyncio.run(client()), crossings
    finally:
        frontend.close()


def _on_cluster(cluster: Cluster, stream: List[gen.Transfer]) -> float:
    started = now()
    for a, b, amount in stream:
        def body(txn: Any, a: str = a, b: str = b, amount: int = amount) -> None:
            txn.rmw(a, -amount)
            txn.rmw(b, amount)
        cluster.run(body)
    return (now() - started) / len(stream) * 1e6


def _nested(db: NestedTransactionDB, stream: List[gen.NestedProgram]) -> float:
    started = now()
    for program in stream:
        run_nested_program(db.begin_transaction, program)
    return (now() - started) / len(stream) * 1e6


def run_ledger(seed: int, scale: float, scratch: str) -> Dict[str, float]:
    """All rungs, in order; returns the ``ledger.*`` metrics.  WAL and
    shard directories go under ``scratch``, which the caller removes."""
    names = gen.object_names(OBJECTS)
    engine = _scaled(ENGINE_TXNS, scale)
    group = _scaled(GROUP_TXNS, scale)
    wire = _scaled(WIRE_TXNS, scale)
    stream = gen.cross_site_transfers(
        gen.stream_rng(seed, "ledger", 0), engine, names, ClusterMap(2).home
    )
    rung: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    dir_seq = itertools.count()

    def fresh_dir() -> str:
        path = os.path.join(scratch, "ledger-%d" % next(dir_seq))
        os.makedirs(path)
        return path

    def wal(policy: str) -> DurabilityManager:
        return DurabilityManager(fresh_dir(), sync_policy=policy)

    def engine_rung(txns: int, config: Dict[str, Any],
                    drive: Callable[[Any, List[Any]], Any] = _blocking,
                    programs: List[Any] = stream) -> Any:
        db = _engine(config)
        try:
            measured = drive(db, programs[:txns])
            check_engine(db, OBJECTS, False)
            return db, measured
        finally:
            db.close()

    certified = {"record_trace": True, "certify": "streaming"}
    # Imports, interned names and first-call costs belong to no rung.
    engine_rung(_scaled(WARMUP_TXNS, scale), certified)
    _db, rung["base"] = engine_rung(engine, {"record_trace": False})
    _db, rung["trace"] = engine_rung(engine, {"record_trace": True})
    db, rung["certifier"] = engine_rung(engine, certified)
    counts["ledger.records_per_txn"] = db.certifier.report().records / engine

    registry = MetricsRegistry(enabled=True)
    _db, rung["wal_none"] = engine_rung(
        engine, dict(certified, durability=wal("none"), metrics=registry),
    )
    wal_counters = registry.snapshot()["counters"]
    counts["ledger.wal_bytes_per_commit"] = (
        wal_counters["wal_bytes_total"] / wal_counters["wal_commits_total"]
    )
    _db, rung["wal_commit"] = engine_rung(
        engine, dict(certified, durability=wal("commit"))
    )
    _db, (rung["serve"], crossings) = engine_rung(
        engine, dict(certified, durability=wal("commit")), _served
    )
    counts["ledger.loop_crossings_per_txn"] = crossings / engine
    # What a shard runs, in process: no trace, a per-commit fsync.
    _db, rung["shard_engine"] = engine_rung(
        engine, {"record_trace": False, "durability": wal("commit")},
    )
    # The group-commit fork, against a no-sync rung of its own length.
    _db, rung["wal_none_short"] = engine_rung(
        group, dict(certified, durability=wal("none"))
    )
    _db, rung["wal_group"] = engine_rung(
        group, dict(certified, durability=wal("group"))
    )

    def cluster_rung(shards: int, certified_fleet: bool,
                     drive: Callable[[Cluster, List[gen.Transfer]], Any],
                     ) -> Tuple[Any, float]:
        cluster = Cluster(
            gen.initial_store(OBJECTS), shards=shards,
            certified=certified_fleet, base_dir=fresh_dir(),
            txn_channels=certified_fleet,
        )
        try:
            measured = drive(cluster, stream[:wire])
            check_cluster(cluster, OBJECTS, False)
            if certified_fleet:
                report = cluster.finish(oracle=False)
                if not report.ok:
                    raise CheckFailed(
                        "ledger top rung not certified: %s" % report.violations
                    )
            return measured, message_count(cluster) / wire
        finally:
            cluster.close()

    rung["wire"], _msgs = cluster_rung(1, False, _on_cluster)
    rung["twopc"], counts["ledger.msgs_per_txn"] = cluster_rung(
        2, False, _on_cluster
    )
    (rung["top"], _crossings), _msgs = cluster_rung(2, True, _served)

    # The fork: what certification costs on nested programs.
    nested = _scaled(NESTED_TXNS, scale)
    rng = gen.stream_rng(seed, "ledger-nested", 0)
    nested_stream = gen.nested_programs(
        rng, nested, gen.uniform_picker(rng, names)
    )

    _db, rung["nested_traced"] = engine_rung(
        nested, {"record_trace": True}, _nested, nested_stream
    )
    _db, rung["nested_certified"] = engine_rung(
        nested, certified, _nested, nested_stream
    )

    for name, value in rung.items():
        # A line is a difference and may be negative within noise; a rung
        # is a time per transaction and may not.
        if not (math.isfinite(value) and value > 0.0):
            raise CheckFailed("ledger rung %s measured %r us" % (name, value))

    lines = {
        "engine_base": rung["base"],
        "trace": rung["trace"] - rung["base"],
        "certifier": rung["certifier"] - rung["trace"],
        "wal_none": rung["wal_none"] - rung["certifier"],
        "wal_commit": rung["wal_commit"] - rung["wal_none"],
        "serve": rung["serve"] - rung["wal_commit"],
        "wire": rung["wire"] - rung["shard_engine"],
        "twopc": rung["twopc"] - rung["wire"],
    }
    out = {"ledger.%s_us_per_txn" % line: lines[line] for line in PATH_LINES}
    out["ledger.top_us_per_txn"] = rung["top"]
    out["ledger.residual_us_per_txn"] = rung["top"] - sum(lines.values())
    out["ledger.wal_group_us_per_txn"] = (
        rung["wal_group"] - rung["wal_none_short"]
    )
    out["ledger.certifier_nested_us_per_txn"] = (
        rung["nested_certified"] - rung["nested_traced"]
    )
    out.update(counts)
    return out
