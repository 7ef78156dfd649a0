#!/usr/bin/env python
"""cProfile harness for the engine's data-access hot path.

Runs a single-threaded batch of committed read/write transactions —
the same inner loop as ``benchmarks/bench_e10_hotpath.py`` — under
:mod:`cProfile` and prints the top functions by cumulative and internal
time.  Use it to answer "where does a transaction's latency actually
go?" before and after touching the hot path::

    PYTHONPATH=src python scripts/profile_hotpath.py
    PYTHONPATH=src python scripts/profile_hotpath.py --no-trace --sort tottime
    PYTHONPATH=src python scripts/profile_hotpath.py --nested
    PYTHONPATH=src python scripts/profile_hotpath.py --certified
    PYTHONPATH=src python scripts/profile_hotpath.py --nested --count-only

``--nested`` and ``--certified`` run the measurement spine's nested
program shape (four sequential subtransactions of one read and two
read-for-update + write pairs: 20 accesses, 30 trace records per
transaction) — ``--nested`` bare (``record_trace=False``, nobody reads a
name), ``--certified`` with ``record_trace=True, certify="streaming"``.
Before the profile each prints how many times an ``ActionName`` came into
being (``__init__`` / ``_of`` / ``child``) and how often the interning
table was probed (``get`` / ``setdefault``), in total and with a
``repro/checker/`` frame on the stack.  Those are counts of a
deterministic run, so they repeat exactly: "the engine mints no name
unless someone reads it" and "the certifier interns no names" are checked
as ``0``, not inferred from a timing — trace records carry path tuples,
so a certified program mints no name either.  ``--nested`` counts the
same shape once more with a write-ahead log (``DurabilityManager``, its
fsync a no-op): commit frames are written from the path, so a durable
program mints no name.  ``--certified`` also prints the trace bytes a
certified program leaves retained — what ``tracemalloc`` sees freed
when the finished run's trace is cleared, per program: the trace is
stored as columns, about 2.1 kB a program (its records as objects took
6.8 kB), and how many times the trace reached the recorder
(``TraceRecorder.publish_rows`` calls) and the streaming certifier (calls
of its ``feed`` / ``feed_many`` / ``feed_rows``) per committed program:
the engine delivers a top-level's rows in one piece when it finishes, so
both read exactly 1 (per-record delivery read 30 and 30) — and how many
``_Access`` window entries the certifier built per program: a top-level
that finishes alone, as every program of this one-client run does, is
certified in one pass over its rows and builds none (the general path
built 20).
``--count-only`` stops after the counts and exits non-zero unless every
name count is zero, the retained trace stays within
``TRACE_BYTES_PER_PROGRAM_MAX``, both delivery counts are exactly 1 and
no ``_Access`` was built — the deterministic guards the ``perf-smoke``
CI job runs on both shapes.

``--served`` runs 256 concurrent sessions (two increments and a read;
10 % read three objects) through ``AsyncFrontend`` over a certified
engine with a group-commit WAL.  The work is spread over the event-loop
thread and the serve workers, so it profiles *every* thread (a profiler
is started in each worker as it starts), and prints each thread's CPU
time per committed transaction and the loop wake-ups per committed
transaction.  ``--served --count-only`` prints those and exits non-zero
unless the loop is woken less than once per transaction: results must
reach the loop in bursts, not one thread hand-off per awaited result::

    PYTHONPATH=src python scripts/profile_hotpath.py --served --count-only

``--cluster`` runs the spine's ``cluster_transfer`` shape — transfers
(two read-modify-writes) on an uncertified 2-shard ``Cluster`` with
shard WALs — from one client, profiles the coordinator, and prints the
wire round trips per committed transaction, split into single-site
transfers (two ops and a delegated commit: 3) and cross-site ones (two
ops, then prepare and commit on each site: 6).  A branch begins with its
transaction's first op on a site, so no round trip is spent on a begin.
``--cluster --count-only`` exits non-zero unless the counts are exactly
3 and 6::

    PYTHONPATH=src python scripts/profile_hotpath.py --cluster --count-only

Findings are stable across runs because the workload is deterministic
(seeded RNG, fixed object pool).  The engine is keyed by path tuples, so
the remaining profile is the skeleton — latch acquire/release
(``threading`` internals), the ``conflicts_with`` loop, version-stack
reads and lock inheritance at commit — with no ``ActionName.__hash__`` /
``__eq__`` frames at all on an untraced run.
"""

from __future__ import annotations

import argparse
import asyncio
import cProfile
import os
import pstats
import random
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple


def run_workload(
    txns: int,
    ops: int,
    objects: int,
    trace: bool,
    seed: int = 42,
) -> None:
    from repro.engine import EngineConfig, NestedTransactionDB

    initial = {"x%d" % i: 0 for i in range(objects)}
    db = NestedTransactionDB(initial, config=EngineConfig(record_trace=trace))
    rng = random.Random(seed)
    names = list(initial)
    for _ in range(txns):
        txn = db.begin_transaction()
        for i in range(ops):
            obj = names[rng.randrange(len(names))]
            if i % 2 == 0:
                txn.read(obj)
            else:
                txn.write(obj, i)
        txn.commit()


def run_nested(txns: int, objects: int, certified: bool, seed: int = 42,
               durable: Optional[str] = None):
    """The spine's nested program shape, bare (no trace) or under the
    streaming certifier, and with a write-ahead log in the directory
    ``durable`` (fsync a no-op) when given; returns the engine (finished,
    and certified when asked)."""
    from repro.durability import DurabilityManager
    from repro.engine import EngineConfig, NestedTransactionDB

    initial = {"x%d" % i: 1000 for i in range(objects)}
    durability = (
        DurabilityManager(durable, fsync_fn=lambda fd: None)
        if durable is not None else None
    )
    config = (
        EngineConfig(record_trace=True, certify="streaming",
                     durability=durability)
        if certified
        else EngineConfig(record_trace=False, durability=durability)
    )
    db = NestedTransactionDB(initial, config=config)
    rng = random.Random(seed)
    names = list(initial)
    for _ in range(txns):
        top = db.begin_transaction()
        for _ in range(4):
            read_obj, src, dst = rng.sample(names, 3)
            amount = rng.randint(1, 9)
            child = top.begin_subtransaction()
            child.read(read_obj)
            child.write(src, child.read_for_update(src) - amount)
            child.write(dst, child.read_for_update(dst) + amount)
            child.commit()
        top.commit()
    if certified:
        db.certifier.finish()
        db.assert_certified()
    return db


#: What :func:`counting_names` counts: the three ways an ``ActionName``
#: comes into being and the two ways the interning table is probed.
NAME_COUNTERS = ("__init__", "_of", "child", "get", "setdefault")


@contextmanager
def counting_names() -> Iterator[Dict[str, int]]:
    """Counting shims on every ``ActionName`` constructor and interning
    probe; yields the live counts — each counter in total and, as
    ``<counter>_checker``, with a ``repro/checker/`` frame on the stack."""
    from repro.core import naming

    checker_dir = os.sep + os.path.join("repro", "checker") + os.sep
    counts = {key: 0 for name in NAME_COUNTERS for key in (name, name + "_checker")}

    def counted(label, real):
        def shim(*args, **kwargs):
            counts[label] += 1
            frame = sys._getframe(1)
            while frame is not None:
                if checker_dir in frame.f_code.co_filename:
                    counts[label + "_checker"] += 1
                    break
                frame = frame.f_back
            return real(*args, **kwargs)

        return shim

    cls = naming.ActionName
    table = naming._INTERNED
    real_init, real_child, real_of = cls.__init__, cls.child, cls._of.__func__
    cls.__init__ = counted("__init__", real_init)
    cls.child = counted("child", real_child)
    cls._of = classmethod(counted("_of", real_of))
    table.get = counted("get", table.get)
    table.setdefault = counted("setdefault", table.setdefault)
    try:
        yield counts
    finally:
        cls.__init__, cls.child = real_init, real_child
        cls._of = classmethod(real_of)
        del table.get, table.setdefault


def count_names(
    txns: int, objects: int, certified: bool, durable: bool = False
) -> Dict[str, int]:
    """Run the nested workload under :func:`counting_names` (with a WAL
    when ``durable``), print each count (total, per transaction, made on
    behalf of ``repro/checker/``) and return them."""
    with tempfile.TemporaryDirectory() as wal_dir:
        with counting_names() as counts:
            db = run_nested(txns, objects, certified,
                            durable=wal_dir if durable else None)
        db.close()
    records = len(db.trace) if db.trace is not None else 0
    shape = "certified" if certified else "bare"
    print(
        "names on the %s nested path: %d txns, %d trace records (%.1f/txn)"
        % (shape + (", durable" if durable else ""), txns, records,
           records / txns)
    )
    for name in NAME_COUNTERS:
        owner = "_INTERNED." if name in ("get", "setdefault") else "ActionName."
        print(
            "  %-22s %8d calls (%.3f/txn), %d from repro/checker/"
            % (owner + name, counts[name], counts[name] / txns,
               counts[name + "_checker"])
        )
    return counts


#: The most trace bytes a certified nested program may leave retained
#: (:func:`trace_bytes_per_program`): columns take about 2.1 kB, records
#: kept as objects took 6.8 kB.
TRACE_BYTES_PER_PROGRAM_MAX = 3000


def trace_bytes_per_program(txns: int, objects: int) -> float:
    """Bytes the trace of a finished certified nested run keeps alive,
    per program: the memory ``tracemalloc`` sees freed when the trace is
    cleared, everything else (engine, certifier) left as it stands.  A
    count of a single-threaded seeded run, not a timing: it repeats
    exactly."""
    import gc
    import tracemalloc

    # A full collection empties the free lists, so the run's tuples are
    # allocated (and traced) afresh, not recycled from an earlier run.
    gc.collect()
    tracemalloc.start()
    try:
        db = run_nested(txns, objects, True)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        db.trace.clear()
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    per_program = freed / txns
    print(
        "trace retained by the certified nested path: %d bytes for %d txns "
        "(%.0f B/txn, at most %d)"
        % (freed, txns, per_program, TRACE_BYTES_PER_PROGRAM_MAX)
    )
    return per_program


#: The streaming certifier's entry points, each counted as one ingest call.
CERTIFIER_FEEDS = ("feed", "feed_many", "feed_rows")

#: What :func:`count_deliveries` must read per certified program.
DELIVERY_COUNTS = {"deliveries": 1, "ingests": 1, "accesses": 0}


def count_deliveries(txns: int, objects: int) -> Dict[str, float]:
    """Run the certified nested workload counting ``publish_rows`` calls
    (deliveries to the recorder), calls into the certifier's feed
    entry points (ingest calls) and ``_Access`` constructions (window
    entries the certifier built), and print and return each per
    committed program.  A count of a single-threaded seeded run: it
    repeats exactly."""
    from repro.checker.streaming import StreamingCertifier, _Access
    from repro.engine.trace import TraceRecorder

    counts = {label: 0 for label in DELIVERY_COUNTS}

    def counted(label, real):
        def shim(*args, **kwargs):
            counts[label] += 1
            return real(*args, **kwargs)

        return shim

    # Patched on the classes before the engine subscribes its certifier,
    # so the bound methods it hands the recorder are the shims.
    patched = [(TraceRecorder, "publish_rows", "deliveries"),
               (_Access, "__init__", "accesses")] + [
        (StreamingCertifier, name, "ingests") for name in CERTIFIER_FEEDS
    ]
    originals = [(cls, name, cls.__dict__[name]) for cls, name, _ in patched]
    for cls, name, label in patched:
        setattr(cls, name, counted(label, getattr(cls, name)))
    try:
        db = run_nested(txns, objects, True)
    finally:
        for cls, name, real in originals:
            setattr(cls, name, real)
    # Single-threaded and conflict-free: every program commits first try.
    per_program = {label: count / txns for label, count in counts.items()}
    print(
        "trace deliveries on the certified nested path: %d programs, "
        "%.2f publish_rows calls and %.2f certifier ingest calls per "
        "program (exactly 1 each), %.2f _Access built per program "
        "(exactly 0)"
        % (txns, per_program["deliveries"], per_program["ingests"],
           per_program["accesses"])
    )
    return per_program


#: The served shape: sessions in flight, store size and read-only share of
#: the spine's ``served_durable`` workload.
SERVED_SESSIONS = 256
SERVED_OBJECTS = 16384
SERVED_READ_ONLY_SHARE = 0.10


def _profile_each_new_thread(profilers: List[cProfile.Profile]):
    """A ``threading.setprofile`` hook that starts a profiler in every
    thread started after it is set (a profiler only sees its own
    thread)."""

    def start(frame, event, arg):
        sys.setprofile(None)
        profiler = cProfile.Profile()
        profilers.append(profiler)
        profiler.enable()

    return start


def run_served(
    txns: int, seed: int = 42, profilers: Optional[List[cProfile.Profile]] = None
) -> Tuple[int, Dict[str, float]]:
    """Run ``txns`` sessions, ``SERVED_SESSIONS`` at a time, through
    ``AsyncFrontend`` over a certified group-WAL engine; with
    ``profilers`` given, profile every thread into it.  Returns the loop
    wake-ups — calls of its ``call_soon_threadsafe``, counted here, so
    the count means the same whatever the front-end does — and each
    thread's CPU seconds."""
    from repro.durability import DurabilityManager
    from repro.engine import EngineConfig, NestedTransactionDB
    from repro.serve import AsyncFrontend

    names = ["x%d" % i for i in range(SERVED_OBJECTS)]
    rng = random.Random(seed)
    programs = [
        (rng.random() < SERVED_READ_ONLY_SHARE, rng.sample(names, 3),
         rng.randint(1, 9))
        for _ in range(txns)
    ]

    async def body(session, read_only, objs, amount):
        if read_only:
            for obj in objs:
                await session.read(obj)
        else:
            await session.increment(objs[0], amount)
            await session.increment(objs[1], -amount)
            await session.read(objs[2])

    wakeups = [0]
    wakeups_lock = threading.Lock()

    async def drive(frontend):
        loop = asyncio.get_running_loop()
        call_soon_threadsafe = loop.call_soon_threadsafe

        def counted(*args, **kwargs):
            with wakeups_lock:
                wakeups[0] += 1
            return call_soon_threadsafe(*args, **kwargs)

        loop.call_soon_threadsafe = counted
        tickets = iter(programs)

        async def client():
            for read_only, objs, amount in tickets:
                await frontend.run_session(
                    lambda s: body(s, read_only, objs, amount),
                    read_only=read_only,
                )

        await asyncio.gather(*[client() for _ in range(SERVED_SESSIONS)])

    with tempfile.TemporaryDirectory() as wal_dir:
        db = NestedTransactionDB(
            {name: 1000 for name in names},
            config=EngineConfig(
                record_trace=True,
                certify="streaming",
                durability=DurabilityManager(wal_dir, sync_policy="group"),
            ),
        )
        if profilers is not None:
            threading.setprofile(_profile_each_new_thread(profilers))
        try:
            frontend = AsyncFrontend(db, workers=2)
        finally:
            threading.setprofile(None)
        main_profiler = cProfile.Profile() if profilers is not None else None
        loop_started = time.thread_time()
        if main_profiler is not None:
            profilers.append(main_profiler)
            main_profiler.enable()
        try:
            asyncio.run(drive(frontend))
        finally:
            if main_profiler is not None:
                main_profiler.disable()
            cpu = {"event loop": time.thread_time() - loop_started}
            for thread in frontend.submitter._workers:
                cpu[thread.name] = time.clock_gettime(
                    time.pthread_getcpuclockid(thread.ident)
                )
            frontend.close()
        db.certifier.finish()
        db.assert_certified()
        db.assert_quiescent()
        db.close()
    return wakeups[0], cpu


def report_served(txns: int, wakeups: int, cpu: Dict[str, float]) -> float:
    """Print the per-thread CPU and the wake-up count of a served run;
    returns loop wake-ups per committed transaction."""
    per_txn = wakeups / txns
    print(
        "served: %d sessions in flight, %d committed txns, certified, "
        "group-commit WAL" % (SERVED_SESSIONS, txns)
    )
    print("  loop wake-ups           %8d (%.3f/txn)" % (wakeups, per_txn))
    for name, seconds in cpu.items():
        print("  CPU %-20s %8.1f us/txn" % (name, seconds / txns * 1e6))
    return per_txn


#: The cluster shape: shards and store size of the spine's
#: ``cluster_transfer`` cell, and the round trips one committed transfer
#: costs in each of its two shapes.
CLUSTER_SHARDS = 2
CLUSTER_OBJECTS = 8192
CLUSTER_ROUND_TRIPS = {"single-site": 3, "cross-site": 6}


def run_cluster(
    txns: int, seed: int = 42, profiler: Optional[cProfile.Profile] = None
) -> Dict[str, List[float]]:
    """Run ``txns`` transfers one at a time on an uncertified
    ``CLUSTER_SHARDS``-shard cluster with shard WALs; with ``profiler``
    given, profile the coordinator's side of each transaction.  Returns,
    per transfer shape, [committed, round trips, wall seconds]."""
    from repro.cluster import Cluster

    names = ["x%d" % i for i in range(CLUSTER_OBJECTS)]
    rng = random.Random(seed)
    programs = [
        (*rng.sample(names, 2), rng.randint(1, 9)) for _ in range(txns)
    ]
    totals: Dict[str, List[float]] = {
        shape: [0, 0, 0.0] for shape in CLUSTER_ROUND_TRIPS
    }
    cluster = Cluster(
        {name: 1000 for name in names}, shards=CLUSTER_SHARDS, certified=False
    )
    try:
        exchanges = cluster.protocol.site_exchanges
        for a, b, amount in programs:
            same = cluster.map.home(a) == cluster.map.home(b)
            row = totals["single-site" if same else "cross-site"]
            before = sum(exchanges().values())
            started = time.perf_counter()
            if profiler is not None:
                profiler.enable()
            cluster.run(lambda t: (t.rmw(a, -amount), t.rmw(b, amount)))
            if profiler is not None:
                profiler.disable()
            row[2] += time.perf_counter() - started
            row[0] += 1
            row[1] += sum(exchanges().values()) - before
        values, coherent, mismatches = cluster.logical_snapshot()
        if not coherent or sum(values.values()) != 1000 * len(names):
            raise RuntimeError("transfers did not conserve: %s" % mismatches)
    finally:
        cluster.close()
    return totals


def report_cluster(totals: Dict[str, List[float]]) -> bool:
    """Print round trips and wall time per committed transfer of each
    shape; returns whether every round-trip count is as expected."""
    print(
        "cluster: %d shards, uncertified, shard WALs, one client"
        % CLUSTER_SHARDS
    )
    exact = True
    for shape, (committed, trips, seconds) in totals.items():
        per_txn = trips / committed if committed else 0.0
        exact = exact and committed > 0 and per_txn == CLUSTER_ROUND_TRIPS[shape]
        print(
            "  %-12s %6d committed  %.2f round trips/txn (expect %d)  "
            "%8.1f us/txn"
            % (shape, committed, per_txn, CLUSTER_ROUND_TRIPS[shape],
               seconds / committed * 1e6 if committed else 0.0)
        )
    return exact


def print_profile(args, title: str, *profilers: cProfile.Profile) -> None:
    """Print ``title`` and the merged profiles, sorted and cut as asked;
    with ``--out``, also save the raw stats."""
    stats = pstats.Stats(*profilers, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort)
    print(title)
    stats.print_stats(args.lines)
    if args.out:
        stats.dump_stats(args.out)
        print("raw stats written to %s" % args.out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--txns", type=int, default=2000)
    parser.add_argument("--ops", type=int, default=16, help="ops per txn")
    parser.add_argument("--objects", type=int, default=64)
    parser.add_argument(
        "--no-trace", action="store_true", help="disable trace recording"
    )
    shape = parser.add_mutually_exclusive_group()
    shape.add_argument(
        "--nested",
        action="store_true",
        help="profile the spine's nested shape bare (no trace, no "
        "certifier) and count ActionName constructions and interning "
        "probes (ignores --ops/--no-trace)",
    )
    shape.add_argument(
        "--certified",
        action="store_true",
        help="the same shape under the streaming certifier, with the "
        "same counts (ignores --ops/--no-trace)",
    )
    shape.add_argument(
        "--served",
        action="store_true",
        help="%d concurrent sessions through AsyncFrontend over a certified "
        "group-WAL engine; profiles every thread and prints per-thread CPU "
        "and loop wake-ups per txn (ignores --ops/--objects/--no-trace)"
        % SERVED_SESSIONS,
    )
    shape.add_argument(
        "--cluster",
        action="store_true",
        help="transfers on an uncertified %d-shard cluster with shard WALs "
        "from one client; profiles the coordinator and prints wire round "
        "trips per committed txn (ignores --ops/--objects/--no-trace)"
        % CLUSTER_SHARDS,
    )
    parser.add_argument(
        "--count-only",
        action="store_true",
        help="with --nested/--certified: print the counts and skip the "
        "profile; exit 1 unless every name count is zero (--nested: bare "
        "and durable) and, with --certified, the trace retained per "
        "program is at most %d bytes, the trace reaches the recorder "
        "and the certifier exactly once per program and the certifier "
        "builds no _Access.  With --served: exit "
        "1 unless loop wake-ups per committed txn are below 1.  With --cluster: "
        "exit 1 unless round trips per committed txn are exactly 3 "
        "(single-site) and 6 (cross-site)" % TRACE_BYTES_PER_PROGRAM_MAX,
    )
    parser.add_argument(
        "--sort",
        choices=("cumulative", "tottime"),
        default="cumulative",
    )
    parser.add_argument("--lines", type=int, default=30)
    parser.add_argument(
        "--out", default=None, help="also save raw stats to this file"
    )
    args = parser.parse_args(argv)
    spine_shape = args.nested or args.certified
    if args.count_only and not (spine_shape or args.served or args.cluster):
        parser.error(
            "--count-only needs --nested, --certified, --served or --cluster"
        )

    import repro.engine  # noqa: F401 - import cost outside the profile

    if args.served:
        profilers: Optional[List[cProfile.Profile]] = (
            None if args.count_only else []
        )
        wakeups, cpu = run_served(args.txns, profilers=profilers)
        per_txn = report_served(args.txns, wakeups, cpu)
        if args.count_only:
            if not 0 < per_txn < 1:
                print(
                    "FAIL: the event loop was woken %.2f times per "
                    "transaction (must be above 0 and below 1)" % per_txn
                )
                return 1
            return 0
        print_profile(
            args,
            "served profile, all %d threads: %d txns (the per-thread CPU "
            "above is from the same, profiled, run)" % (len(profilers), args.txns),
            *profilers,
        )
        return 0

    if args.cluster:
        profiler = None if args.count_only else cProfile.Profile()
        exact = report_cluster(run_cluster(args.txns, profiler=profiler))
        if args.count_only:
            if not exact:
                print("FAIL: round trips per transaction are not 3 / 6")
                return 1
            return 0
        print_profile(
            args, "cluster coordinator profile: %d transfers" % args.txns,
            profiler,
        )
        return 0

    if spine_shape:
        # Counted in their own runs: the shims would distort the profile.
        shapes = [("certified" if args.certified else "bare engine", False)]
        if args.nested:
            shapes.append(("durable", True))
        failed = False
        for label, durable in shapes:
            counts = count_names(args.txns, args.objects, args.certified, durable)
            minted = sum(counts[name] for name in NAME_COUNTERS)
            if minted:
                print("FAIL: the %s path touched ActionName %d times"
                      % (label, minted))
                failed = True
        if args.certified:
            retained = trace_bytes_per_program(args.txns, args.objects)
            if retained > TRACE_BYTES_PER_PROGRAM_MAX:
                print("FAIL: the trace retains %.0f B per certified program "
                      "(at most %d)" % (retained, TRACE_BYTES_PER_PROGRAM_MAX))
                failed = True
            for label, per_program in count_deliveries(
                args.txns, args.objects
            ).items():
                if per_program != DELIVERY_COUNTS[label]:
                    print("FAIL: %.2f %s per certified program (exactly %d)"
                          % (per_program, label, DELIVERY_COUNTS[label]))
                    failed = True
        if args.count_only:
            return 1 if failed else 0

    profiler = cProfile.Profile()
    profiler.enable()
    if spine_shape:
        run_nested(args.txns, args.objects, args.certified)
    else:
        run_workload(args.txns, args.ops, args.objects, not args.no_trace)
    profiler.disable()

    if spine_shape:
        title = "%s hot path profile: %d nested txns, %d objects" % (
            "certified" if args.certified else "bare", args.txns, args.objects
        )
    else:
        title = "hot path profile: %d txns x %d ops, trace=%s" % (
            args.txns, args.ops, not args.no_trace
        )
    print_profile(args, title, profiler)
    return 0


if __name__ == "__main__":
    sys.exit(main())
