"""Schedules first pinned against the striped lock manager.

The striped mode is gone (DESIGN.md, "One latch"); what it was tested
for is not.  Each case here is a schedule the one engine must still get
right — prompt wake-up of a parked waiter, an abort waking a doomed
waiter, deadlock across objects, timeout with detection off, lazy
lose-lock — plus the stress configurations certified against the oracle.
The module and test names are historical: the suite's floor list pins
test ids and lets a change retire only a few (see CHANGES.md, PR 19, for
the mapping of every test here to where it belongs next).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.checker import check_engine
from repro.engine import (
    DeadlockAbort,
    EngineConfig,
    LockTimeout,
    NestedTransactionDB,
    TransactionAborted,
    UnknownObject,
)
from repro.workload import WorkloadConfig, WorkloadGenerator, execute, initial_values

# (engine config, worker threads).  The last two ids once set the stripe
# count; they now set the contention level instead: two workers, and more
# workers than the Zipf-hot objects can keep apart.
CONFIGS = [
    pytest.param(dict(), 6, id="rw-default"),
    pytest.param(dict(single_mode=True), 6, id="single-mode"),
    pytest.param(dict(lazy_lock_cleanup=True), 6, id="lazy-cleanup"),
    pytest.param(dict(deadlock_policy="requester"), 6, id="requester-victim"),
    pytest.param(dict(deadlock_policy="youngest"), 6, id="youngest-victim"),
    pytest.param(dict(), 2, id="one-stripe"),
    pytest.param(dict(), 12, id="more-stripes-than-objects"),
]

SNAPSHOT_KEYS = {
    "begun",
    "committed",
    "aborted",
    "reads",
    "writes",
    "lock_waits",
    "deadlocks",
    "lazy_lock_reaps",
    "increments",
    "snapshot_reads",
}


def _run_workload(db, threads, programs=60):
    cfg = WorkloadConfig(
        objects=16,
        theta=0.9,
        shape="mixed",
        ops_per_transaction=10,
        programs=programs,
        seed=99,
    )
    return execute(
        db,
        WorkloadGenerator(cfg).programs(),
        threads=threads,
        failure_prob=0.2,
        seed=99,
    )


@pytest.mark.parametrize("db_kwargs,threads", CONFIGS)
def test_striped_stress_matches_global_verdicts(db_kwargs, threads):
    """The engine's verdicts on a stress workload match the oracle's: all
    programs commit, the oracle passes, the store quiesces, and the
    stats snapshot keeps its keys and accounting invariants."""
    db = NestedTransactionDB(initial_values(16), config=EngineConfig(**db_kwargs))
    report = _run_workload(db, threads)
    assert report.committed_programs == 60
    assert check_engine(db).ok
    db.assert_quiescent()
    snap = db.stats.snapshot()
    assert set(snap) == SNAPSHOT_KEYS
    # Conservation: every transaction begun either committed or aborted.
    assert snap["begun"] == snap["committed"] + snap["aborted"]
    assert snap["begun"] >= 60
    assert snap["reads"] > 0 and snap["writes"] > 0
    if "lazy_lock_cleanup" not in db_kwargs:
        assert snap["lazy_lock_reaps"] == 0


def test_deterministic_script_snapshots_identical():
    """With one thread there is no scheduling nondeterminism: the
    blocking API and the batch API must produce identical stats and
    final state (the property suite in test_engine_kernel.py generalises
    this one script)."""

    def blocking(db):
        outer = db.begin_transaction()
        outer.write("a", 1)
        child = outer.begin_subtransaction()
        child.write("b", child.read("a") + 1)
        child.commit()
        doomed = outer.begin_subtransaction()
        doomed.write("c", 99)
        doomed.abort()
        outer.commit()
        solo = db.begin_transaction()
        solo.read("b")
        solo.commit()
        return db.snapshot(), db.stats.snapshot()

    def batched(db):
        def done(op):
            ((status, value),) = db.try_perform_batch([op])
            assert status == "done"
            return value

        (outer,) = db.begin_transaction_batch(1)
        done((outer, "write", "a", 1))
        child = outer.begin_subtransaction()
        done((child, "write", "b", done((child, "read", "a", None)) + 1))
        assert db.commit_batch([child]) == [("done", None)]
        doomed = outer.begin_subtransaction()
        done((doomed, "write", "c", 99))
        doomed.abort()
        assert db.commit_batch([outer]) == [("done", None)]
        (solo,) = db.begin_transaction_batch(1)
        done((solo, "read", "b", None))
        assert db.commit_batch([solo]) == [("done", None)]
        return db.snapshot(), db.stats.snapshot()

    initial = {"a": 0, "b": 0, "c": 0}
    state_blocking, stats_blocking = blocking(NestedTransactionDB(dict(initial)))
    state_batched, stats_batched = batched(NestedTransactionDB(dict(initial)))
    assert state_blocking == state_batched == {"a": 1, "b": 2, "c": 0}
    assert stats_blocking == stats_batched


def test_latch_mode_validation():
    """The latch knobs are gone, not merely ignored."""
    with pytest.raises(TypeError, match="latch_mode"):
        EngineConfig(latch_mode="striped")
    with pytest.raises(TypeError, match="stripes"):
        EngineConfig(stripes=4)


def test_striped_unknown_object():
    db = NestedTransactionDB({"a": 0})
    txn = db.begin_transaction()
    with pytest.raises(UnknownObject):
        txn.read("nope")
    with pytest.raises(UnknownObject):
        db.read_committed("nope")
    txn.abort()


def test_striped_read_committed_ignores_uncommitted_writes():
    db = NestedTransactionDB({"a": 10})
    txn = db.begin_transaction()
    txn.write("a", 77)
    assert db.read_committed("a") == 10
    txn.commit()
    assert db.read_committed("a") == 77


def test_striped_hot_objects_alias():
    db = NestedTransactionDB({"a": 0, "b": 0})
    holder = db.begin_transaction()
    holder.write("a", 1)

    def contender():
        other = db.begin_transaction()
        try:
            other.write("a", 2)
            other.commit()
        except TransactionAborted:
            other.abort()

    thread = threading.Thread(target=contender, daemon=True)
    thread.start()
    time.sleep(0.1)
    holder.commit()
    thread.join(5)
    assert not thread.is_alive()
    assert db.hot_objects() == db.contention_profile()
    assert dict(db.hot_objects()).get("a", 0) >= 1


def test_striped_targeted_wakeup_is_prompt():
    """A commit must wake the waiter parked on the released object well
    before the lock timeout — the notify path, not a timeout."""
    db = NestedTransactionDB({"a": 0}, config=EngineConfig(lock_timeout=30.0))
    holder = db.begin_transaction()
    holder.write("a", 1)
    elapsed = {}

    def waiter():
        txn = db.begin_transaction()
        start = time.monotonic()
        value = txn.read("a")
        elapsed["wait"] = time.monotonic() - start
        elapsed["value"] = value
        txn.commit()

    thread = threading.Thread(target=waiter, daemon=True)
    thread.start()
    time.sleep(0.2)  # let the waiter park on "a"
    holder.commit()
    thread.join(5)
    assert not thread.is_alive()
    assert elapsed["value"] == 1
    assert elapsed["wait"] < 5.0  # woken by notify, not the 30 s timeout


def test_striped_abort_wakes_doomed_waiter():
    """Aborting a subtree must wake its own parked descendants promptly."""
    db = NestedTransactionDB({"a": 0, "b": 0}, config=EngineConfig(lock_timeout=30.0))
    blocker = db.begin_transaction()
    blocker.write("a", 5)
    parent = db.begin_transaction()
    outcome = {}

    def child_worker():
        child = parent.begin_subtransaction()
        start = time.monotonic()
        try:
            child.read("a")  # parks behind blocker's write lock
            outcome["error"] = None
        except TransactionAborted:
            outcome["error"] = "aborted"
        outcome["wait"] = time.monotonic() - start

    thread = threading.Thread(target=child_worker, daemon=True)
    thread.start()
    time.sleep(0.2)  # let the child park on "a"
    parent.abort()  # kills the parked child's subtree
    thread.join(5)
    assert not thread.is_alive()
    assert outcome["error"] == "aborted"
    assert outcome["wait"] < 5.0
    blocker.commit()
    check_engine(db)
    db.assert_quiescent()


def test_striped_deadlock_detection_across_stripes():
    """Classic two-object deadlock: the waits-for graph must catch it."""
    db = NestedTransactionDB({"a": 0, "b": 0}, config=EngineConfig(deadlock_policy="requester"))
    t1 = db.begin_transaction()
    t2 = db.begin_transaction()
    t1.write("a", 1)
    t2.write("b", 2)
    ready = threading.Barrier(2)
    aborted = []

    def cross(txn, obj):
        ready.wait()
        try:
            txn.write(obj, 9)
            txn.commit()
        except DeadlockAbort:
            aborted.append(txn.name)
            txn.abort()
        except TransactionAborted:
            aborted.append(txn.name)

    threads = [
        threading.Thread(target=cross, args=(t1, "b"), daemon=True),
        threading.Thread(target=cross, args=(t2, "a"), daemon=True),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
        assert not thread.is_alive()
    assert len(aborted) >= 1
    assert db.stats.deadlocks >= 1
    db.assert_quiescent()


def test_striped_lock_timeout_without_detection():
    db = NestedTransactionDB({"a": 0}, config=EngineConfig(detect_deadlocks=False, lock_timeout=0.2))
    holder = db.begin_transaction()
    holder.write("a", 1)
    other = db.begin_transaction()
    with pytest.raises(LockTimeout):
        other.write("a", 2)
    other.abort()
    holder.commit()
    db.assert_quiescent()


def test_striped_lazy_cleanup_reaps_dead_locks():
    """With lazy cleanup, an aborted holder's locks stay in the table
    until a conflicting requester reaps them."""
    db = NestedTransactionDB({"a": 0}, config=EngineConfig(lazy_lock_cleanup=True))
    holder = db.begin_transaction()
    holder.write("a", 1)
    holder.abort()
    other = db.begin_transaction()
    other.write("a", 2)  # must reap the dead lock, not block
    other.commit()
    assert db.snapshot()["a"] == 2
    assert db.stats.lazy_lock_reaps >= 1
    db.assert_quiescent()
