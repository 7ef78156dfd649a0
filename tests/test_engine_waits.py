"""The engine's one wait queue.

A blocked ``perform`` on ``x`` can only become enabled by a lock on ``x``
moving, so the engine parks the request on ``x``'s queue once and the
step that moves the lock wakes it — whoever parked it.  The wake-up
matrix below runs every lock-moving step against both kinds of waiter:
a thread blocked in ``Transaction.read`` and an op parked through the
serve layer's :class:`BatchSubmitter`.  ``lock_timeout`` is 30 s and
every waiter must resolve within 5 s, so a lost wake-up fails the test
instead of being papered over by a timeout or a retry tick.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.checker import check_engine
from repro.engine import EngineConfig, NestedTransactionDB
from repro.engine.errors import LockTimeout, TransactionAborted
from repro.serve import BatchSubmitter

PROMPT = 5.0


def make_db(**config):
    config.setdefault("lock_timeout", 30.0)
    return NestedTransactionDB(
        {"x": 0, "y": 0}, config=EngineConfig(**config)
    )


def wait_until(predicate, what):
    deadline = time.monotonic() + PROMPT
    while not predicate():
        assert time.monotonic() < deadline, "timed out waiting for " + what
        time.sleep(0.001)


class BlockingWaiter:
    """``txn.read(obj)`` on its own thread."""

    def __init__(self, txn, obj):
        self._outcome = None
        self._thread = threading.Thread(
            target=self._run, args=(txn, obj), daemon=True
        )
        self._thread.start()

    def _run(self, txn, obj):
        try:
            self._outcome = ("done", txn.read(obj))
        except (TransactionAborted, LockTimeout) as error:
            self._outcome = ("error", type(error).__name__)

    def outcome(self):
        self._thread.join(PROMPT)
        assert not self._thread.is_alive(), "blocking waiter never woke"
        return self._outcome


class ServedWaiter:
    """The same read submitted through a :class:`BatchSubmitter`."""

    def __init__(self, submitter, txn, obj):
        self._future = submitter.submit_op(txn, "read", obj)

    def outcome(self):
        try:
            return ("done", self._future.result(timeout=PROMPT))
        except (TransactionAborted, LockTimeout) as error:
            return ("error", type(error).__name__)


@pytest.fixture(params=["blocking", "served"])
def park(request):
    """``park(db, txn, obj)`` starts a read of ``obj`` by ``txn`` that
    must block, waits until the engine has parked it, and returns the
    waiter."""
    submitters = []

    def park(db, txn, obj):
        parked_before = len(db._waiters.get(obj, ()))
        if request.param == "blocking":
            waiter = BlockingWaiter(txn, obj)
        else:
            if not submitters:
                submitters.append(BatchSubmitter(db, workers=2))
            waiter = ServedWaiter(submitters[0], txn, obj)
        wait_until(
            lambda: len(db._waiters.get(obj, ())) > parked_before,
            "the request to park on %r" % obj,
        )
        return waiter

    yield park
    for submitter in submitters:
        submitter.close(timeout=PROMPT)


def settle(db, *txns):
    for txn in txns:
        txn.commit()
    db.assert_quiescent()
    assert check_engine(db).ok


# -- the wake-up matrix: every step that moves a lock x both waiters --------


def test_top_level_commit_wakes_waiter(park):
    db = make_db()
    holder = db.begin_transaction()
    holder.write("x", 1)
    reader = db.begin_transaction()
    waiter = park(db, reader, "x")
    holder.commit()
    assert waiter.outcome() == ("done", 1)
    settle(db, reader)


def test_subtransaction_commit_to_waiters_ancestor_wakes_waiter(park):
    """The lock does not become free — it moves to the parent, which
    only unblocks the parent's other descendants."""
    db = make_db()
    parent = db.begin_transaction()
    first = parent.begin_subtransaction()
    first.write("x", 1)
    sibling = parent.begin_subtransaction()
    waiter = park(db, sibling, "x")
    first.commit()
    assert waiter.outcome() == ("done", 1)
    settle(db, sibling, parent)


@pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
def test_abort_wakes_waiter(park, lazy):
    """Under lazy cleanup the abort leaves the dead lock in the table;
    the woken request reaps it itself."""
    db = make_db(lazy_lock_cleanup=lazy)
    holder = db.begin_transaction()
    holder.write("x", 1)
    reader = db.begin_transaction()
    waiter = park(db, reader, "x")
    holder.abort()
    assert waiter.outcome() == ("done", 0)
    assert db.stats.lazy_lock_reaps == (1 if lazy else 0)
    settle(db, reader)


def test_deadlock_victim_abort_of_a_third_party_wakes_waiter(park):
    """The release happens inside somebody else's attempt: ``other``
    closes a cycle with ``victim`` and its sweep aborts ``victim``,
    whose lock on x the bystander was parked behind."""
    db = make_db()
    victim = db.begin_transaction()
    other = db.begin_transaction()
    victim.write("x", 1)
    other.write("y", 2)
    bystander = db.begin_transaction()
    waiter = park(db, bystander, "x")
    assert db.try_perform_batch([(victim, "read", "y", None)]) == [
        ("blocked", None)
    ]
    assert other.read("x") == 0  # closes the cycle; ``victim`` dies
    assert victim.status == "aborted"
    assert waiter.outcome() == ("done", 0)
    assert db.stats.deadlocks == 1
    settle(db, bystander, other)


def test_lazy_reap_by_another_requester_keeps_waiter_live(park):
    """A reap is a lock move like any other, so it wakes the object's
    waiters: here the reader re-runs, is still behind the live writer,
    parks again, and resolves when that writer commits."""
    db = make_db(lazy_lock_cleanup=True)
    writer = db.begin_transaction()
    writer.write("x", 1)
    doomed = writer.begin_subtransaction()
    doomed.read("x")
    doomed.abort()  # lazily: its read lock stays behind, dead
    reader = db.begin_transaction()
    waiter = park(db, reader, "x")
    waits_before = db.stats.lock_waits
    reaper = db.begin_transaction()
    assert db.try_perform_batch([(reaper, "write", "x", 9)]) == [
        ("blocked", None)
    ]
    assert db.stats.lazy_lock_reaps == 1
    wait_until(
        lambda: db.stats.lock_waits == waits_before + 2,
        "the woken reader to park again",
    )
    reaper.abort()
    writer.commit()
    assert waiter.outcome() == ("done", 1)
    settle(db, reader)


def test_abort_of_waiters_own_ancestor_wakes_waiter(park):
    db = make_db()
    blocker = db.begin_transaction()
    blocker.write("x", 1)
    parent = db.begin_transaction()
    child = parent.begin_subtransaction()
    waiter = park(db, child, "x")
    parent.abort()
    assert waiter.outcome() == ("error", "TransactionAborted")
    assert not db._waiters
    settle(db, blocker)


# -- giving up leaves nothing behind ---------------------------------------


def test_timeout_leaves_no_queue_entry_and_no_edge(park):
    db = make_db(lock_timeout=0.2, detect_deadlocks=False)
    holder = db.begin_transaction()
    holder.write("x", 1)
    reader = db.begin_transaction()
    waiter = park(db, reader, "x")
    assert waiter.outcome() == ("error", "LockTimeout")
    assert not db._waiters
    assert not db._waits.has_waits(reader.name)
    reader.abort()
    settle(db, holder)


def test_cancel_waits_withdraws_entry_and_edges_and_fires_the_wake_target():
    db = make_db()
    holder = db.begin_transaction()
    holder.write("x", 1)
    reader = db.begin_transaction()
    woken = []
    assert db.try_perform_batch(
        [(reader, "read", "x", None, lambda: woken.append("reader"))]
    ) == [("blocked", None)]
    assert list(db._waiters) == ["x"]
    assert db._waits.has_waits(reader.name)
    db.cancel_waits(reader)
    assert woken == ["reader"]
    assert not db._waiters
    assert not db._waits.has_waits(reader.name)
    holder.commit()
    assert woken == ["reader"]  # one-shot: the release found nobody
    settle(db, reader)


def test_waiters_of_the_released_object_wake_in_arrival_order():
    db = make_db()
    holder = db.begin_transaction()
    holder.write("x", 1)
    holder.write("y", 1)
    readers = db.begin_transaction_batch(3)
    woken = []
    for index, (reader, obj) in enumerate(zip(readers, "xyx")):
        assert db.try_perform_batch(
            [(reader, "read", obj, None, lambda i=index: woken.append(i))]
        ) == [("blocked", None)]
    sub = holder.begin_subtransaction()
    sub.commit()  # holds nothing: moves no lock, wakes nobody
    assert woken == []
    holder.commit()
    assert sorted(woken) == [0, 1, 2]
    assert woken.index(0) < woken.index(2)
    assert db.stats.lock_waits == 3
    for reader in readers:
        db.cancel_waits(reader)
    settle(db, *readers)


def test_assert_quiescent_checks_the_wait_queues():
    db = make_db()
    db.assert_quiescent()
    db._waiters["x"] = [(None, lambda: None)]
    with pytest.raises(AssertionError, match="parked"):
        db.assert_quiescent()


# -- the waiter reports its wait after it has left the latch ------------------


def test_lock_waited_sink_may_read_the_engine():
    """``LockWaited`` is emitted by the woken waiter off-latch (the
    module's lock order); a sink that reads the engine from it would
    otherwise deadlock on the non-reentrant latch."""
    db = make_db()
    seen = []

    class ReadingSink:
        def handle(self, event):
            if event.kind == "lock_waited":
                seen.append((event.obj, db.read_committed(event.obj)))

    db.events.attach(ReadingSink())
    holder = db.begin_transaction()
    holder.write("x", 1)
    reader = db.begin_transaction()
    waiter = BlockingWaiter(reader, "x")
    wait_until(lambda: "x" in db._waiters, "the reader to park")
    holder.commit()
    assert waiter.outcome() == ("done", 1)
    assert seen == [("x", 1)]
    assert db.events.sink_errors == 0
    settle(db, reader)
