"""One delivery unit: a top-level transaction's trace rows reach the
recorder and the streaming certifier once, when it commits or aborts.

The engine appends every trace row (seq reserved under the latch) to
the family its top-level's whole tree shares, and puts that family on
the outbox as one item in the critical section that finishes the
top-level — whoever finishes it, a deadlock sweep on another thread
included.  These tests pin the delivery unit itself, the quiescence
check that no finished family is left behind, the certifier's row form
(one locked pass per family, families merged back into seq order), and
a differential run of both APIs on four threads whose live verdict must
equal the offline ones on the finished trace.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro.checker import (
    VERSION,
    ReorderBuffer,
    StreamingCertifier,
    certify_records,
    check_trace_serializable,
)
from repro.engine import EngineConfig, NestedTransactionDB
from repro.engine.errors import TransactionAborted
from repro.engine.retry import RetryPolicy


def traced_db(objects=("x", "y"), **config):
    return NestedTransactionDB(
        dict.fromkeys(objects, 0),
        config=EngineConfig(record_trace=True, **config),
    )


class RowListener:
    """A trace listener with a row form: keeps each delivery whole."""

    def __init__(self):
        self.deliveries = []

    def __call__(self, record):  # never called: the row form is given
        raise AssertionError("a listener with a row form heard a record")

    def rows(self, rows):
        self.deliveries.append(list(rows))


def subscribe(db):
    listener = RowListener()
    db.trace.add_listener(listener, rows=listener.rows)
    return listener


# ---------------------------------------------------------------------------
# The delivery unit
# ---------------------------------------------------------------------------


def test_a_top_level_is_delivered_once_when_it_finishes():
    db = traced_db()
    listener = subscribe(db)
    publishes = []
    real_publish = db._publish
    db._publish = lambda: (publishes.append(1), real_publish())

    top = db.begin_transaction()
    top.write("x", 1)
    with top.subtransaction() as child:
        child.write("y", child.read_for_update("y") + 1)
    failed = top.begin_subtransaction()
    failed.write("y", 9)
    failed.abort()  # contained: its rows stay in the family
    assert top.read("x") == 1
    # Nothing finished a top-level yet: no op published anything.
    assert publishes == [] and listener.deliveries == []
    assert db.trace.records == ()  # a live top-level's rows are not shown
    top.commit()

    assert len(publishes) == 1
    (family,) = listener.deliveries
    assert [row[7] for row in family] == list(range(len(family)))
    assert [row[0] for row in family] == [
        "create", "perform", "create", "perform", "perform", "commit",
        "create", "perform", "abort", "perform", "commit",
    ]
    assert [record.seq for record in db.trace.records] == [row[7] for row in family]
    db.assert_quiescent()


def test_an_aborted_top_level_is_delivered_with_its_subtree():
    db = traced_db()
    listener = subscribe(db)
    top = db.begin_transaction()
    top.write("x", 1)
    top.begin_subtransaction().write("y", 2)
    top.abort()
    (family,) = listener.deliveries
    # Deepest first: the child's abort precedes its top-level's.
    assert [(row[0], row[1]) for row in family[-2:]] == [
        ("abort", (0, 0)), ("abort", (0,)),
    ]
    db.assert_quiescent()


def test_a_victim_aborted_by_another_thread_is_delivered_by_that_thread():
    """The deadlock sweep that aborts a parked top-level runs on the
    requester's thread, which delivers the victim's family on its way
    out of the latch."""
    db = traced_db(deadlock_policy="blocker", lock_timeout=10.0)
    listener = subscribe(db)
    victim, requester = db.begin_transaction_batch(2)
    victim.write("x", 1)
    requester.write("y", 1)
    outcome = []

    def victim_blocks_on_y():
        try:
            victim.read("y")
        except TransactionAborted as error:
            outcome.append(error)

    thread = threading.Thread(target=victim_blocks_on_y, daemon=True)
    thread.start()
    while not db._waiters:  # the victim is parked on y
        thread.join(0.001)
    assert requester.read("x") == 0  # closes the cycle, aborts the victim
    # Delivered before the requester's read returned.
    assert [row[0] for row in listener.deliveries[0]] == [
        "create", "perform", "abort",
    ]
    assert listener.deliveries[0][0][1] == victim.key
    thread.join(5)
    assert outcome and not thread.is_alive()
    requester.commit()
    db.assert_quiescent()


def test_assert_quiescent_fails_on_a_family_left_off_the_outbox(monkeypatch):
    db = traced_db()
    monkeypatch.setattr(db, "_family_done_locked", lambda family: None)
    top = db.begin_transaction()
    top.write("x", 1)
    top.abort()
    with pytest.raises(AssertionError, match="kept their trace rows"):
        db.assert_quiescent()


def test_assert_quiescent_fails_on_a_family_still_on_the_outbox(monkeypatch):
    db = traced_db()
    monkeypatch.setattr(db, "_publish", lambda: None)
    db.run_transaction(lambda t: t.write("x", 1))
    with pytest.raises(AssertionError, match="undelivered"):
        db.assert_quiescent()


# ---------------------------------------------------------------------------
# Runs in the reorder window
# ---------------------------------------------------------------------------


def run_buffer():
    return ReorderBuffer(seq_of=lambda item: item[0])


def test_a_run_in_turn_is_released_whole_and_held_runs_merge():
    buffer = run_buffer()
    first = [(0, "a"), (1, "b")]
    assert buffer.push_run(first) is first  # in turn: nothing held
    assert len(buffer) == 0 and buffer.buffered_high_water == 1
    late = [(3, "d"), (6, "g"), (7, "h")]
    assert buffer.push_run(late) == []
    assert buffer.push_run([(5, "f"), (8, "i")]) == []
    assert len(buffer) == 5 and buffer.buffered_high_water == 5
    # The gap at 2 closes: runs interleave back into one seq order, and
    # the release stops at the next gap (4).
    assert buffer.push_run([(2, "c")]) == [(2, "c"), (3, "d")]
    assert buffer.push(4, (4, "e")) == [(4, "e"), (5, "f"), (6, "g"), (7, "h"), (8, "i")]
    assert len(buffer) == 0


def test_a_run_in_turn_with_a_gap_inside_is_held_past_the_gap():
    """Overlapping top-levels interleave their seqs: the family that
    finishes first starts in turn but skips the seqs of a live one."""
    buffer = run_buffer()
    assert buffer.push_run([(0, "a"), (2, "c"), (3, "d")]) == [(0, "a")]
    assert len(buffer) == 2
    assert buffer.push_run([(1, "b"), (4, "e")]) == [
        (1, "b"), (2, "c"), (3, "d"), (4, "e"),
    ]


def test_stale_items_of_a_run_are_delivered_in_place():
    buffer = run_buffer()
    buffer.push_run([(0, "a"), (1, "b")])
    assert buffer.push_run([(1, "dup"), (2, "c")]) == [(1, "dup"), (2, "c")]
    assert buffer.push_run([(3, "d")]) == [(3, "d")]


def test_drain_merges_the_held_runs():
    buffer = run_buffer()
    buffer.push_run([(2, "c"), (5, "f")])
    buffer.push(4, (4, "e"))
    buffer.push_run([(3, "d"), (9, "j")])
    assert buffer.drain() == [(2, "c"), (3, "d"), (4, "e"), (5, "f"), (9, "j")]
    assert len(buffer) == 0
    assert buffer.push_run([(10, "k")]) == [(10, "k")]  # in turn after the drain


# ---------------------------------------------------------------------------
# The certifier's row form
# ---------------------------------------------------------------------------


def families_of(script):
    """The families a traced engine delivers for ``script(db)``."""
    db = traced_db()
    listener = subscribe(db)
    script(db)
    db.assert_quiescent()
    return db, listener.deliveries


def write_then_read(db):
    db.run_transaction(lambda t: t.write("x", 5))
    db.run_transaction(lambda t: t.read("x"))


def test_row_form_certifies_families_in_any_delivery_order():
    def overlapping(db):
        first, second = db.begin_transaction_batch(2)
        first.write("x", 1)
        second.write("y", 2)
        second.commit()  # delivered before the family holding seq 0
        first.commit()

    db, families = families_of(overlapping)
    assert [family[0][7] for family in families] == [1, 0]
    certifier = StreamingCertifier(db.initial_values)
    certifier.feed_rows(families[0])
    assert certifier.report().records == 0  # held behind seq 0
    certifier.feed_rows(families[1])
    report = certifier.finish()
    assert report.ok and report.records == 6
    assert report.stats["reorder_buffered"] == 0


def test_row_form_flags_a_family_missing_its_commit_row():
    db, (writer, reader) = families_of(write_then_read)
    assert writer[-1][0] == "commit"
    certifier = StreamingCertifier(db.initial_values)
    certifier.feed_rows(writer[:-1])
    certifier.feed_rows(reader)
    # The reader is held behind the missing row's seq ...
    assert certifier.report().stats["reorder_buffered"] == len(reader)
    report = certifier.finish()
    # ... and at the end the writer never committed, so the value the
    # reader saw was never permanent.
    assert not report.ok
    assert [v.kind for v in report.violations] == [VERSION]
    assert report.violations[0].txns[0].path == reader[0][1]


def test_row_form_flags_an_altered_seen():
    db, (writer, reader) = families_of(write_then_read)
    op, txn, leaf, obj, kind, seen, arg, seq = reader[1]
    assert (op, kind, seen) == ("perform", "read", 5)
    tampered = list(reader)
    tampered[1] = (op, txn, leaf, obj, kind, 4, arg, seq)
    certifier = StreamingCertifier(db.initial_values)
    certifier.feed_rows(writer)
    certifier.feed_rows(tampered)
    assert [v.kind for v in certifier.violations] == [VERSION]
    assert not certifier.finish().ok


# ---------------------------------------------------------------------------
# Differential: both APIs, four threads, live verdict == offline verdicts
# ---------------------------------------------------------------------------

OBJECTS = ("a", "b", "c", "d", "e")


def program(rng):
    """One top-level's steps: ``("snapshot", objs)`` for a snapshot
    reader, else a list of subtransactions, each ``(fail, ops)`` with
    ops ``(kind, obj)`` — ``rmw`` is a read-for-update and a write of
    the value plus one — and ``fail`` aborting it after its ops."""
    if rng.random() < 0.15:
        return ("snapshot", rng.sample(OBJECTS, 2))
    subs = []
    for _ in range(rng.randint(1, 3)):
        ops = [("read", rng.choice(OBJECTS))]
        ops += [("rmw", obj) for obj in rng.sample(OBJECTS, 2)]
        subs.append((rng.random() < 0.2, ops))
    return ("update", subs)


def run_blocking(db, prog):
    shape, steps = prog
    if shape == "snapshot":
        db.run_transaction(
            lambda t: [t.read(obj) for obj in steps], read_only=True
        )
        return

    def apply(child, ops):
        for kind, obj in ops:
            if kind == "read":
                child.read(obj)
            else:
                value = child.read_for_update(obj)
                time.sleep(0)  # let another client in while holding obj
                child.write(obj, value + 1)

    def body(top):
        for fail, ops in steps:
            if not fail:
                with top.subtransaction() as child:  # absorbs a victim child
                    apply(child, ops)
                continue
            child = top.begin_subtransaction()
            try:
                apply(child, ops)
            except TransactionAborted:
                pass
            child.abort()  # the injected failure, contained

    db.run_transaction(body, policy=RetryPolicy(max_retries=500, backoff=0.0))


def drive_blocking(db, programs, threads=4):
    """``programs`` dealt over ``threads`` client threads, switching
    often so their top-levels overlap, contend and deadlock."""
    chunks = [programs[i::threads] for i in range(threads)]
    errors = []
    start = threading.Barrier(threads)

    def client(chunk):
        start.wait()
        try:
            for prog in chunk:
                run_blocking(db, prog)
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    pool = [threading.Thread(target=client, args=(c,)) for c in chunks]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    assert errors == []


class BatchSession:
    """One program driven op by op through the batch API."""

    def __init__(self, prog):
        self.shape, self.steps = prog
        self.restart()

    def restart(self):
        self.top = self.child = None
        self.sub = self.op = 0
        self.seen = None

    def next_op(self):
        """The op to submit next, or None when the program is done."""
        if self.shape == "snapshot":
            if self.op == len(self.steps):
                return None
            return (self.top, "read", self.steps[self.op], None)
        if self.sub == len(self.steps):
            return None
        if self.child is None:
            self.child = self.top.begin_subtransaction()
        fail, ops = self.steps[self.sub]
        if self.op == len(ops):
            return "end-sub"
        kind, obj = ops[self.op]
        if kind == "read":
            return (self.child, "read", obj, None)
        if self.seen is None:
            return (self.child, "read_for_update", obj, None)
        return (self.child, "write", obj, self.seen + 1)

    def done(self, value):
        if self.shape == "update" and self.steps[self.sub][1][self.op][0] == "rmw":
            if self.seen is None:
                self.seen = value
                return
            self.seen = None
        self.op += 1

    def end_sub(self):
        fail, _ops = self.steps[self.sub]
        if fail:
            self.child.abort()
        else:
            self.child.commit()
        self.child, self.sub, self.op = None, self.sub + 1, 0

    def sub_failed(self):
        """The child died (a victim): abort it and go on with the next
        sub, as ``subtransaction()`` absorbs it on the blocking API, or
        restart the program when the top-level died with it."""
        if self.child is not None:
            self.child.abort()
        self.child, self.sub, self.op, self.seen = None, self.sub + 1, 0, None
        if not self.top.is_live:
            self.top.abort()
            self.restart()


def drive_batch(db, programs, in_flight=4):
    queue = list(programs)
    sessions = []
    for _round in range(20000):
        while queue and len(sessions) < in_flight:
            sessions.append(BatchSession(queue.pop(0)))
        if not sessions:
            return
        for session in sessions:
            if session.top is None:
                (session.top,) = db.begin_transaction_batch(
                    1, read_only=session.shape == "snapshot"
                )
        ops, owners, finished = [], [], []
        for session in sessions:
            try:
                op = session.next_op()
                while op == "end-sub":
                    session.end_sub()
                    op = session.next_op()
            except TransactionAborted:
                session.sub_failed()
                continue
            if op is None:
                finished.append(session)
            else:
                ops.append(op)
                owners.append(session)
        for session, (status, payload) in zip(owners, db.try_perform_batch(ops)):
            if status == "done":
                session.done(payload)
            elif status == "error":
                if session.shape == "snapshot":
                    raise payload
                session.sub_failed()
        if finished:
            results = db.commit_batch([session.top for session in finished])
            for session, (status, payload) in zip(finished, results):
                if status == "done":
                    sessions.remove(session)
                else:
                    session.top.abort()
                    session.restart()
    raise AssertionError("the batch driver did not finish")


def assert_live_equals_offline(db):
    db.assert_quiescent()
    live = db.certifier.finish()
    db.assert_certified()
    records = db.trace.records
    assert [record.seq for record in records] == list(range(len(records)))
    offline = certify_records(records, db.initial_values)
    assert live.violations == offline.violations == ()
    assert (live.ok, live.records, live.permanent_accesses,
            live.dropped_accesses) == (
        offline.ok, offline.records, offline.permanent_accesses,
        offline.dropped_accesses,
    )
    assert live.stats["reorder_buffered"] == 0
    assert check_trace_serializable(records, db.initial_values).ok
    return live


@pytest.mark.parametrize("lazy", [False, True])
@pytest.mark.parametrize("api", ["blocking", "batch"])
def test_live_certifier_agrees_with_offline_on_both_apis(api, lazy):
    rng = random.Random(7)
    programs = [program(rng) for _ in range(80)]
    db = NestedTransactionDB(
        dict.fromkeys(OBJECTS, 0),
        config=EngineConfig(
            certify="streaming", lazy_lock_cleanup=lazy, lock_timeout=20.0
        ),
    )
    if api == "blocking":
        drive_blocking(db, programs)
    else:
        drive_batch(db, programs)
    live = assert_live_equals_offline(db)
    assert db.stats.committed >= len(programs)
    assert live.dropped_accesses > 0  # contained aborts did happen
    assert db.stats.snapshot_reads > 0
    if api == "blocking":
        # Four threads overlap their top-levels and deadlock: some family
        # arrived ahead of an earlier seq and was held as a run.
        assert db.stats.deadlocks > 0
        assert live.stats["reorder_high_water"] > 1
