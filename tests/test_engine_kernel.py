"""The one engine kernel: a single attempt / commit / abort path.

``Transaction.read/write/increment/commit`` (blocking) and
``begin_transaction_batch`` / ``try_perform_batch`` / ``commit_batch``
(batched) are two drivers of the same latched kernel, so a script driven
through either must leave the same store, the same counters, the same
trace and the same per-step outcomes.  The property suite pins that; the
regression tests below it pin the two failure-containment fixes that the
fold made expressible once (a commit whose WAL append raises changes
nothing; a poisoned batch keeps its survivors and wakes its waiters).
"""

from __future__ import annotations

import dataclasses
import gc
import importlib.util
import inspect
import io
import os
import random
import sys
import tempfile
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checker import check_engine
from repro.durability import DurabilityManager, list_segments, replay_commits
from repro.engine import (
    DeadlockAbort,
    EngineConfig,
    EngineError,
    LockTimeout,
    NestedTransactionDB,
    TransactionAborted,
)
from repro.engine import database as database_module
from repro.engine.retry import RetryPolicy
from repro.serve import batch as serve_batch_module

OBJECTS = ("a", "b", "c")
KINDS = ("read", "read_for_update", "write", "increment")


# ---------------------------------------------------------------------------
# Differential: blocking API vs batch API


class BlockingDriver:
    """Per-op calls.  ``lock_timeout=0`` makes a conflicting request give
    up at once, so a single-threaded script never sleeps."""

    def __init__(self, db):
        self.db = db

    def begin(self, read_only):
        return self.db.begin_transaction(read_only=read_only)

    def op(self, txn, kind, obj, arg):
        call = getattr(txn, kind)  # the kinds are the method names
        try:
            return ("done", call(obj) if kind.startswith("read") else call(obj, arg))
        except LockTimeout:
            return ("blocked", None)
        except EngineError as error:
            return ("error", type(error).__name__)

    def commit(self, txn):
        try:
            txn.commit()
        except EngineError as error:
            return ("error", type(error).__name__)
        return ("done", None)


class BatchDriver:
    """The batch entry points, one op per call.  A BLOCKED op withdraws
    its edges (the analogue of the blocking path timing out); a
    single-mode increment falls back to its two-step expansion."""

    def __init__(self, db):
        self.db = db

    def begin(self, read_only):
        (txn,) = self.db.begin_transaction_batch(1, read_only=read_only)
        return txn

    def _one(self, txn, kind, obj, arg):
        ((status, payload),) = self.db.try_perform_batch([(txn, kind, obj, arg)])
        if status == "error":
            payload = type(payload).__name__
        return status, payload

    def op(self, txn, kind, obj, arg):
        status, payload = self._one(txn, kind, obj, arg)
        if status != "blocked":
            return (status, payload)
        if kind == "increment" and self.db.single_mode and not txn.read_only:
            status, payload = self._one(txn, "read_for_update", obj, None)
            if status == "done":
                status, payload = self._one(txn, "write", obj, payload + arg)
            if status != "blocked":
                return (status, payload)
        self.db.cancel_waits(txn)
        return ("blocked", None)

    def commit(self, txn):
        ((status, payload),) = self.db.commit_batch([txn])
        if status == "error":
            payload = type(payload).__name__
        return (status, payload)


def run_script(driver, steps, on_begin=lambda txn: None):
    """Drive ``steps`` and return everything an observer can compare;
    ``on_begin`` sees every new handle first."""
    db = driver.db
    slots = []
    outcomes = []
    for step in steps:
        action = step[0]
        if action == "top":
            slots.append(driver.begin(step[1]))
            on_begin(slots[-1])
            continue
        if not slots:
            continue
        txn = slots[step[1] % len(slots)]
        if action == "sub":
            try:
                slots.append(txn.begin_subtransaction())
                on_begin(slots[-1])
                outcomes.append(("done", None))
            except EngineError as error:
                outcomes.append(("error", type(error).__name__))
        elif action == "op":
            outcomes.append(driver.op(txn, *step[2:]))
        elif action == "commit":
            outcomes.append(driver.commit(txn))
        else:
            txn.abort()
    for txn in slots:
        if txn.parent is None:
            txn.abort()
    db.assert_quiescent()
    trace = [dataclasses.astuple(record) for record in db.trace.records]
    return db.snapshot(), db.stats.snapshot(), trace, outcomes


slot = st.integers(min_value=0, max_value=7)
step = st.one_of(
    st.tuples(st.just("top"), st.booleans()),
    st.tuples(st.just("sub"), slot),
    st.tuples(
        st.just("op"),
        slot,
        st.sampled_from(KINDS),
        st.sampled_from(OBJECTS + ("nope",)),
        st.integers(min_value=1, max_value=9),
    ),
    st.tuples(st.just("commit"), slot),
    st.tuples(st.just("abort"), slot),
)


@settings(max_examples=150, deadline=None)
@given(
    steps=st.lists(step, min_size=1, max_size=40),
    single_mode=st.booleans(),
    lazy=st.booleans(),
)
def test_blocking_and_batch_paths_are_one_kernel(steps, single_mode, lazy):
    observed = []
    for driver_type in (BlockingDriver, BatchDriver):
        db = NestedTransactionDB(
            {obj: 0 for obj in OBJECTS},
            config=EngineConfig(
                single_mode=single_mode,
                lazy_lock_cleanup=lazy,
                lock_timeout=0.0,
            ),
        )
        observed.append(run_script(driver_type(db), steps))
    blocking, batched = observed
    assert blocking[3] == batched[3]  # per-step DONE / BLOCKED / ERROR
    assert blocking[0] == batched[0]  # store
    assert blocking[1] == batched[1]  # stats.snapshot()
    assert blocking[2] == batched[2]  # trace records, seqs included


@pytest.mark.parametrize(
    "policy,victim_is_requester",
    [("requester", True), ("blocker", False)],
)
def test_deadlock_resolution_is_the_same_on_both_paths(policy, victim_is_requester):
    """T1 waits for x (held by T0); T0's child then asks for y (held by
    T1) and closes the cycle.  Under ``requester`` the victim is the
    requester itself — the reflexive case of "an ancestor of the
    requester" — and the request dies; under ``blocker`` T1 dies and the
    same attempt is granted without waiting.  Both drivers must agree on
    every outcome, the store, the counters and the trace."""

    def scenario(batched):
        db = NestedTransactionDB(
            {"x": 0, "y": 0},
            config=EngineConfig(deadlock_policy=policy, lock_timeout=5.0),
        )
        t0 = db.begin_transaction()
        t1 = db.begin_transaction()
        t0.write("x", 1)
        t1.write("y", 2)
        child = t0.begin_subtransaction()
        waiter_outcome = []

        def t1_wants_x():
            try:
                waiter_outcome.append(("done", t1.read("x")))
            except TransactionAborted as error:
                waiter_outcome.append(("error", type(error).__name__))

        if batched:
            assert db.try_perform_batch([(t1, "read", "x", None)]) == [
                ("blocked", None)
            ]
            ((status, payload),) = db.try_perform_batch([(child, "read", "y", None)])
            closing = (status, type(payload).__name__ if status == "error" else payload)
        else:
            thread = threading.Thread(target=t1_wants_x, daemon=True)
            thread.start()
            deadline = time.monotonic() + 5
            while not db._waits.has_waits(t1.name):
                assert time.monotonic() < deadline
                time.sleep(0.001)
            try:
                closing = ("done", child.read("y"))
            except DeadlockAbort as error:
                closing = ("error", type(error).__name__)
        if victim_is_requester:
            assert closing == ("error", "DeadlockAbort")
            t0.commit()  # releases x: T1's request can go through
            if batched:
                ((status, payload),) = db.try_perform_batch([(t1, "read", "x", None)])
                waiter_outcome.append((status, payload))
            else:
                thread.join(5)
            assert waiter_outcome == [("done", 1)]
            t1.commit()
        else:
            assert closing == ("done", 0)  # T1 died; its write to y with it
            if batched:
                ((status, payload),) = db.try_perform_batch([(t1, "read", "x", None)])
                waiter_outcome.append((status, type(payload).__name__))
            else:
                thread.join(5)
            assert waiter_outcome == [("error", "TransactionAborted")]
            child.commit()
            t0.commit()
        db.assert_quiescent()
        assert check_engine(db).ok
        stats = db.stats.snapshot()
        # A parked thread re-checks on every wake-up; a queued batch op
        # is retried when its driver chooses.  The count of re-blocks is
        # the one number the two waiting disciplines need not share.
        stats.pop("lock_waits")
        kinds = [(r.op, r.txn, r.obj, r.kind, r.seen) for r in db.trace.records]
        return db.snapshot(), stats, kinds

    assert scenario(batched=False) == scenario(batched=True)


def test_each_concept_is_stated_once():
    """The fold, pinned: one place grants a lock, one merges versions
    into the parent, one flips a transaction to ABORTED, one parks a
    blocked request and one helper wakes an object's waiters — on a
    private primitive, never the latch, and with no second wait queue
    (retry heap, tick counter) in the serve layer."""
    source = inspect.getsource(database_module)
    assert source.count("locks.grant(") == 1
    assert source.count(".commit_to_parent(") == 1
    assert source.count(".status = ABORTED") == 1
    assert source.count(".status = COMMITTED") == 1
    assert source.count("self._waiters.setdefault(") == 1
    assert source.count("waiters.pop(") == 1
    assert "notify_all" not in source
    assert "threading.Condition" not in source
    for legacy in ("_read", "_write", "_increment", "_acquire_locked"):
        assert not hasattr(NestedTransactionDB, legacy)
    serve_source = inspect.getsource(serve_batch_module)
    assert "import heapq" not in serve_source
    assert "import itertools" not in serve_source


# ---------------------------------------------------------------------------
# A commit whose WAL append raises changes nothing


UNENCODABLE = {1, 2}  # json.dumps rejects a set


def durable_db(directory, **config):
    return NestedTransactionDB(
        {"x": 0, "y": 0},
        config=EngineConfig(
            durability=DurabilityManager(str(directory)),
            certify="streaming",
            **config,
        ),
    )


def assert_untouched_by_failed_commit(db, directory):
    """After the failing commit's owner aborted: nothing visible, nothing
    logged, nothing stranded in the certifier, engine at rest."""
    assert db.read_committed("x") == 0
    db.assert_quiescent()
    db.certifier.finish()
    db.assert_certified()
    assert db.certifier.report().stats["reorder_buffered"] == 0
    wal = db.durability.wal
    before = wal.last_lsn
    db.run_transaction(lambda t: t.write("y", 7))
    # The failed append consumed no LSN: the next commit's two frames
    # (one write, one commit record) follow on directly.
    assert wal.last_lsn == before + 2
    db.close()
    commits, stats = replay_commits(str(directory))
    assert [c.writes for c in commits] == [{"y": 7}]
    assert stats.discarded_records == 0
    reopened = durable_db(directory)
    assert reopened.snapshot() == {"x": 0, "y": 7}
    reopened.close()


def test_failed_wal_append_leaves_commit_unapplied(tmp_path):
    db = durable_db(tmp_path)
    txn = db.begin_transaction()
    txn.write("x", UNENCODABLE)
    with pytest.raises(TypeError):
        txn.commit()
    # Nothing happened: still active, still holding its lock, invisible.
    assert txn.status == "active"
    assert db.read_committed("x") == 0
    assert txn.held_objects == {"x"}
    txn.abort()
    assert_untouched_by_failed_commit(db, tmp_path)


def test_failed_wal_append_inside_context_manager(tmp_path):
    db = durable_db(tmp_path)
    with pytest.raises(TypeError):
        with db.transaction() as txn:
            txn.write("x", UNENCODABLE)
    assert_untouched_by_failed_commit(db, tmp_path)


def test_failed_wal_append_inside_run_transaction(tmp_path):
    db = durable_db(tmp_path)
    with pytest.raises(TypeError):
        db.run_transaction(lambda t: t.write("x", UNENCODABLE))
    assert_untouched_by_failed_commit(db, tmp_path)


def test_recovery_after_failed_append_keeps_exactly_the_acked_commits(tmp_path):
    db = durable_db(tmp_path)
    db.run_transaction(lambda t: t.write("x", 1))
    with pytest.raises(TypeError):
        db.run_transaction(lambda t: t.write("y", UNENCODABLE))
    # A later commit may read what the failed one would have written —
    # it must see the old value, and recovery must agree.
    db.run_transaction(lambda t: t.write("x", t.read("y") + 10))
    db.assert_quiescent()
    db.close()
    reopened = durable_db(tmp_path)
    assert reopened.snapshot() == {"x": 10, "y": 0}
    reopened.close()


# ---------------------------------------------------------------------------
# A poisoned batch keeps its survivors; a raising commit loses no wake-up


def test_commit_batch_contains_a_failing_transaction(tmp_path):
    db = durable_db(tmp_path)
    good, bad, also_good = db.begin_transaction_batch(3)
    good.increment("x", 5)
    bad.write("y", UNENCODABLE)
    also_good.increment("x", 2)
    results = db.commit_batch([good, bad, also_good])
    assert results[0] == ("done", None)
    assert results[2] == ("done", None)
    status, error = results[1]
    assert status == "error" and isinstance(error, TypeError)
    # The survivors are acked only after the covering fsync.
    wal = db.durability.wal
    assert wal.durable_lsn == wal.last_lsn
    assert bad.status == "active"
    bad.abort()
    db.assert_quiescent()
    db.certifier.finish()
    db.assert_certified()
    db.close()
    reopened = durable_db(tmp_path)
    assert reopened.snapshot() == {"x": 7, "y": 0}
    reopened.close()


def test_waiter_wakes_promptly_after_holders_commit_raised(tmp_path):
    """The holder's commit raises; its owner aborts it (the ordinary
    failure path).  A writer parked on the same object must be woken by
    that abort, not sleep out its lock timeout."""
    lock_timeout = 3.0
    db = durable_db(tmp_path, lock_timeout=lock_timeout)
    waited = []

    def writer():
        started = time.monotonic()
        db.run_transaction(lambda t: t.write("x", 1))
        waited.append(time.monotonic() - started)

    with pytest.raises(TypeError):
        with db.transaction() as holder:
            holder.write("x", UNENCODABLE)
            thread = threading.Thread(target=writer, daemon=True)
            thread.start()
            deadline = time.monotonic() + 2
            while not len(db._waits):
                assert time.monotonic() < deadline
                time.sleep(0.001)
    thread.join(lock_timeout + 2)
    assert not thread.is_alive()
    assert waited and waited[0] < lock_timeout / 3
    assert db.read_committed("x") == 1
    db.assert_quiescent()
    db.close()


def test_waiter_wakes_when_a_batch_member_fails(tmp_path):
    """``commit_batch([a, b])`` with ``b`` failing still releases ``a``'s
    locks with a wake-up: the waiter parked on ``a``'s object proceeds
    long before its timeout."""
    lock_timeout = 3.0
    db = durable_db(tmp_path, lock_timeout=lock_timeout)
    a, b = db.begin_transaction_batch(2)
    a.write("x", 1)
    b.write("y", UNENCODABLE)
    waited = []

    def writer():
        started = time.monotonic()
        db.run_transaction(lambda t: t.write("x", t.read_for_update("x") + 1))
        waited.append(time.monotonic() - started)

    thread = threading.Thread(target=writer, daemon=True)
    thread.start()
    deadline = time.monotonic() + 2
    while not len(db._waits):
        assert time.monotonic() < deadline
        time.sleep(0.001)
    results = db.commit_batch([a, b])
    assert [status for status, _ in results] == ["done", "error"]
    thread.join(lock_timeout + 2)
    assert not thread.is_alive()
    assert waited and waited[0] < lock_timeout / 3
    b.abort()
    assert db.read_committed("x") == 2
    db.assert_quiescent()
    db.close()


# ---------------------------------------------------------------------------
# A steady-state engine does not grow: finished transaction trees are
# forgotten (registry entry dropped, parent -> child links cut) under the
# latch that finishes them


def spine_shaped_program(db, rng, names, child_abort_share=0.0):
    """One nested program of the measurement spine's shape: four
    sequential subtransactions of one read and two read-for-update +
    write pairs; a share of them is aborted after its first write and
    retried inside the parent (the injected, contained failure)."""
    top = db.begin_transaction()
    for _ in range(4):
        read_obj, src, dst = rng.sample(names, 3)
        if rng.random() < child_abort_share:
            doomed = top.begin_subtransaction()
            doomed.read(read_obj)
            doomed.write(src, doomed.read_for_update(src) - 1)
            doomed.abort()
        child = top.begin_subtransaction()
        child.read(read_obj)
        child.write(src, child.read_for_update(src) - 1)
        child.write(dst, child.read_for_update(dst) + 1)
        child.commit()
    top.commit()


def staged_deadlock(db):
    """T1 queues behind T0's lock; T0's child then asks for T1's and
    closes the cycle: the ``blocker`` policy kills T1, everyone else
    commits."""
    t0, t1 = db.begin_transaction_batch(2)
    t0.write("o0", t0.read_for_update("o0"))
    t1.write("o1", t1.read_for_update("o1"))
    assert db.try_perform_batch([(t1, "read", "o0", None)]) == [("blocked", None)]
    child = t0.begin_subtransaction()
    child.read("o1")  # closes the cycle; T1 is the victim
    assert t1.status == "aborted"
    child.commit()
    t0.commit()


def live_transaction_objects():
    return sum(isinstance(o, database_module.Transaction) for o in gc.get_objects())


def test_finished_transaction_trees_are_forgotten():
    """5 000 nested programs, 10 % injected child aborts, a deadlock
    victim every 500: afterwards the registry is empty, no Transaction
    object survives — with the cyclic collector switched off, so only
    reference counts can have freed them — and the heap has stopped
    growing.  (No trace: a recorded trace is meant to grow.)"""
    names = ["o%d" % i for i in range(64)]
    db = NestedTransactionDB(
        dict.fromkeys(names, 1000), config=EngineConfig(record_trace=False)
    )
    rng = random.Random(21)
    gc.collect()  # other tests' garbage, before — never between run and count
    before = live_transaction_objects()
    gc.disable()
    tracemalloc.start()
    try:
        for index in range(5000):
            if index == 1000:
                heap_at_1000 = tracemalloc.get_traced_memory()[0]
            if index % 500 == 250:
                staged_deadlock(db)
            spine_shaped_program(db, rng, names, child_abort_share=0.10)
        growth = tracemalloc.get_traced_memory()[0] - heap_at_1000
        survivors = live_transaction_objects() - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert db._txns == {}
    assert survivors <= 0  # this test holds no handle
    assert growth < 32 * 1024, "heap grew %d bytes over 4 000 programs" % growth
    assert db.stats.deadlocks == 10 and db.stats.aborted > 1000
    assert sum(db.snapshot().values()) == 64 * 1000
    db.assert_quiescent()


def test_lazy_cleanup_reaps_a_holder_whose_tree_was_forgotten():
    """Lazy cleanup leaves a dead holder's lock-table entry behind; the
    entry is all that is left of it — registry slot and handles are
    gone — and the next conflicting request still reaps it."""
    db = NestedTransactionDB(
        {"x": 0}, config=EngineConfig(lazy_lock_cleanup=True, lock_timeout=0.0)
    )
    gc.collect()
    before = live_transaction_objects()
    top = db.begin_transaction()
    child = top.begin_subtransaction()
    child.write("x", 5)
    dead_key = child.key
    top.abort()
    del top, child
    assert db._txns == {}
    assert live_transaction_objects() <= before
    assert db._objects["x"][0].mode_of(dead_key) == "write"  # still named
    db.run_transaction(lambda t: t.write("x", t.read_for_update("x") + 1))
    assert db.stats.lazy_lock_reaps == 1
    assert db._objects["x"][0].holders == {}
    assert db.snapshot() == {"x": 1}
    db.assert_quiescent()


# ---------------------------------------------------------------------------
# Identity is the path; the name is its rendering — built when someone
# reads it, and reading it (or not) changes nothing observable


def load_profile_script():
    """``scripts/profile_hotpath.py``: its counting shims are the ones
    the ``perf-smoke`` CI guard runs, so the test and the guard agree."""
    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "scripts", "profile_hotpath.py",
    )
    spec = importlib.util.spec_from_file_location("profile_hotpath", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "record_trace, durable",
    [(False, False), (True, False), (False, True)],
    ids=["False", "True", "durable"],
)
def test_no_name_is_minted_unless_someone_reads_it(record_trace, durable, tmp_path):
    """200 spine-shaped programs (5 transactions, 20 accesses each).
    With no event sink and metrics off nobody reads a name, and the
    engine constructs none and never probes the interning table: 0,
    exactly — with or without a trace, whose records carry the paths,
    and with a WAL, whose commit frames are written from the path."""
    profile = load_profile_script()
    names = ["o%d" % i for i in range(64)]
    durability = (
        DurabilityManager(str(tmp_path), fsync_fn=lambda fd: None) if durable else None
    )
    db = NestedTransactionDB(
        dict.fromkeys(names, 1000),
        config=EngineConfig(record_trace=record_trace, durability=durability),
    )
    rng = random.Random(5)
    spine_shaped_program(db, rng, names)  # warm: nothing below is a first call
    programs = 200
    with profile.counting_names() as counts:
        for _ in range(programs):
            spine_shaped_program(db, rng, names)
    assert counts == dict.fromkeys(counts, 0)
    assert set(counts) == {
        key for name in profile.NAME_COUNTERS
        for key in (name, name + "_checker")
    }
    if record_trace:
        assert len(db.trace) == 30 * (programs + 1)
    if durable:
        assert db.durability.wal.appended_commits == programs + 1
    db.assert_quiescent()
    db.close()


class EventLog:
    """An event sink keeping what is deterministic about each event."""

    def __init__(self):
        self.events = []

    def handle(self, event):
        data = event.to_dict()
        self.events.append(
            {k: v for k, v in data.items() if not isinstance(v, float)}
        )


def observe_script(steps, lazy, on_begin):
    """Run ``steps`` on a durable, traced, event-logging engine and
    return everything the outside world can see of it."""
    with tempfile.TemporaryDirectory() as directory:
        db = NestedTransactionDB(
            {obj: 0 for obj in OBJECTS},
            config=EngineConfig(
                durability=DurabilityManager(directory, fsync_fn=lambda fd: None),
                lazy_lock_cleanup=lazy,
                lock_timeout=0.0,
            ),
        )
        log = db.events.attach(EventLog())
        snapshot, stats, _trace, outcomes = run_script(
            BlockingDriver(db), steps, on_begin
        )
        jsonl = io.StringIO()
        db.trace.dump(jsonl)
        db.close()
        wal = []
        for _seq, path in list_segments(directory):
            with open(path, "rb") as fh:
                wal.append(fh.read())
    return snapshot, stats, outcomes, jsonl.getvalue(), wal, log.events


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(step, min_size=1, max_size=40), lazy=st.booleans())
def test_reading_names_early_changes_nothing_observable(steps, lazy):
    """Lazy materialisation is invisible: the JSONL trace, the WAL bytes,
    the event stream, the counters and the final store are identical
    whether every handle's ``name`` is read the moment it exists or only
    where the engine itself needs it."""
    lazily = observe_script(steps, lazy, on_begin=lambda txn: None)
    eagerly = observe_script(steps, lazy, on_begin=lambda txn: txn.name)
    assert lazily == eagerly


# ---------------------------------------------------------------------------
# One publication rule: every trace record and every event leaves the
# engine through its outbox after the latch is released, so a trace
# listener or an event sink may read the engine


class EngineReadingListener:
    """A trace listener that reads the engine on every ``abort`` record
    (on a non-reentrant latch this deadlocks if the record is published
    inside it)."""

    def __init__(self, db):
        self.db = db
        self.seen = []

    def __call__(self, record):
        if record.op == "abort":
            self.seen.append((record.txn, self.db.read_committed("x")))


def off_thread(fn):
    """``fn()`` on a daemon thread that must finish within 5 s."""
    outcome = []
    thread = threading.Thread(target=lambda: outcome.append(fn()), daemon=True)
    thread.start()
    thread.join(5)
    assert not thread.is_alive(), "a trace listener deadlocked on the latch"
    return outcome[0]


def listening_db(**config):
    db = NestedTransactionDB(
        {"x": 0, "y": 0},
        config=EngineConfig(certify="streaming", lock_timeout=30.0, **config),
    )
    return db, db.trace.add_listener(EngineReadingListener(db))


def test_abort_record_listener_may_read_the_engine():
    db, listener = listening_db()

    def abort_a_tree():
        top = db.begin_transaction()
        top.write("x", 1)
        top.begin_subtransaction().write("y", 2)
        top.abort()

    off_thread(abort_a_tree)
    assert listener.seen == [((0, 0), 0), ((0,), 0)]  # deepest first
    assert db.trace.listener_errors == 0
    db.assert_quiescent()
    db.certifier.finish()
    db.assert_certified()


@pytest.mark.parametrize("batched", [False, True])
def test_deadlock_victim_abort_record_listener_may_read_the_engine(batched):
    """The victim is aborted inside the requester's attempt, which then
    raises (blocking) or reports (batched) ``DeadlockAbort``: the abort
    record is published on the way out either way."""
    db, listener = listening_db(deadlock_policy="requester")
    waiter, requester = db.begin_transaction_batch(2)
    waiter.write("x", 1)
    requester.write("y", 1)
    assert db.try_perform_batch([(waiter, "read", "y", None)]) == [
        ("blocked", None)
    ]

    def close_the_cycle():
        if batched:
            ((status, error),) = db.try_perform_batch(
                [(requester, "read", "x", None)]
            )
            return status, type(error).__name__
        try:
            requester.read("x")
        except DeadlockAbort as error:
            return "raised", type(error).__name__

    assert off_thread(close_the_cycle) == (
        "error" if batched else "raised", "DeadlockAbort"
    )
    assert listener.seen == [((1,), 0)]
    assert waiter.read("y") == 0
    waiter.commit()
    db.assert_quiescent()
    db.certifier.finish()
    db.assert_certified()


#: Every event kind the engine itself emits (the durability layer's
#: ``wal_synced`` included; ``failure_injected`` comes from the injector,
#: ``checkpoint_taken`` / ``recovery_completed`` from outside a program,
#: ``trace_record`` from the bridge).
ENGINE_EVENT_KINDS = {
    "txn_begun",
    "lock_waited",
    "deadlock_detected",
    "victim_chosen",
    "txn_committed",
    "txn_aborted",
    "lock_inherited",
    "orphan_reaped",
    "wal_commit_logged",
    "wal_synced",
}


def test_every_event_and_record_kind_may_read_the_engine(tmp_path):
    """One script makes the engine say everything it can, through both
    APIs, to a sink and a trace listener that read the engine each time
    they are told something: none of it may be delivered under the
    latch.  The kinds seen are asserted, so a kind the script stops
    producing fails here instead of dropping out of coverage."""
    db = NestedTransactionDB(
        {"x": 0, "y": 0},
        config=EngineConfig(
            durability=DurabilityManager(str(tmp_path), fsync_fn=lambda fd: None),
            record_trace=True,
            lazy_lock_cleanup=True,
            deadlock_policy="requester",
            lock_timeout=0.0,
        ),
    )
    kinds, ops = set(), set()

    class ReadingSink:
        def handle(self, event):
            kinds.add(event.kind)
            db.read_committed("x")

    def reading_listener(record):
        ops.add(record.op)
        db.read_committed("x")

    db.events.attach(ReadingSink())
    db.trace.add_listener(reading_listener)

    def say_everything():
        top = db.begin_transaction()
        top.begin_subtransaction().write("x", 1)
        top.abort()  # lazy cleanup: the dead child keeps its lock on x
        first = db.begin_transaction()
        first.write("x", first.read_for_update("x") + 1)  # reaps it
        first.commit()
        holder, requester = db.begin_transaction_batch(2)
        assert db.try_perform_batch([(holder, "write", "x", 5)]) == [("done", None)]
        with pytest.raises(LockTimeout):
            requester.read("x")  # waits lock_timeout, then gives up
        requester.write("y", 1)
        assert db.try_perform_batch([(holder, "read", "y", None)]) == [
            ("blocked", None)
        ]
        with pytest.raises(DeadlockAbort):
            requester.read("x")  # closes the cycle; the requester is the victim
        assert db.try_perform_batch([(holder, "read", "y", None)]) == [("done", 0)]
        return db.commit_batch([holder])

    assert off_thread(say_everything) == [("done", None)]
    assert kinds == ENGINE_EVENT_KINDS
    assert ops == {"create", "perform", "commit", "abort"}
    assert db.events.sink_errors == 0 and db.trace.listener_errors == 0
    assert db.snapshot() == {"x": 5, "y": 0}
    db.assert_quiescent()
    db.close()


def test_assert_quiescent_checks_the_outbox():
    db = NestedTransactionDB({"x": 0})
    db.assert_quiescent()
    db._outbox.append((dict,))
    with pytest.raises(AssertionError, match="undelivered"):
        db.assert_quiescent()


def two_transfers(top, rng, names):
    for _ in range(2):
        src, dst = rng.sample(names, 2)
        with top.subtransaction() as child:
            child.write(src, child.read_for_update(src) - 1)
            child.write(dst, child.read_for_update(dst) + 1)


def test_concurrent_publishers_deliver_every_item_exactly_once():
    """The outbox is shared: a thread may deliver another's items.  Six
    threads, a short switch interval and a sink that yields the GIL, so
    publishers drain the outbox side by side: every record and event
    arrives exactly once, access labels follow seq order, and nothing
    is left behind (a drain that can lose a concurrent append fails)."""
    names = ["o%d" % i for i in range(8)]
    db = NestedTransactionDB(
        dict.fromkeys(names, 0), config=EngineConfig(record_trace=True)
    )
    lock, kinds = threading.Lock(), {}

    class CountingSink:
        def handle(self, event):
            with lock:
                kinds[event.kind] = kinds.get(event.kind, 0) + 1
            time.sleep(0)  # let other publishers drain the same outbox

    db.events.attach(CountingSink())

    def client(seed):
        rng = random.Random(seed)
        for _ in range(30):
            db.run_transaction(
                lambda t: two_transfers(t, rng, names),
                policy=RetryPolicy(max_retries=1000, backoff=0.0),
            )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=client, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    records = db.trace.records
    assert [record.seq for record in records] == list(range(len(records)))
    labels = {}
    for record in records:
        if record.op == "perform":
            labels.setdefault(record.txn, []).append(int(record.access[-1][1:]))
    # Labels are taken in seq order, whoever delivers the record.
    assert all(numbers == list(range(len(numbers))) for numbers in labels.values())
    assert sum(map(len, labels.values())) == db.stats.reads + db.stats.writes
    assert kinds["txn_begun"] == db.stats.begun
    assert kinds["txn_committed"] == db.stats.committed
    assert kinds.get("txn_aborted", 0) == db.stats.aborted
    db.assert_quiescent()

