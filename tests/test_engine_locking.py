"""Moss locking rules under forced thread interleavings.

These tests use events/barriers to pin down exact interleavings: sibling
conflicts block, read locks are shared, locks inherit on commit, and the
single-mode configuration makes reads conflict too.
"""

from __future__ import annotations

import threading
import time


from repro.engine import EngineConfig, NestedTransactionDB, READ, WRITE, ObjectLocks

WAIT = 5.0


def run_thread(fn):
    thread = threading.Thread(target=fn, daemon=True)
    thread.start()
    return thread


class TestObjectLocks:
    """Holders are path tuples: ``(1,)`` is ``U.child(1)``'s key."""

    def test_write_blocks_non_ancestor(self):
        locks = ObjectLocks()
        holder = (1,)
        locks.grant(holder, WRITE)
        assert locks.conflicts_with((2,), WRITE) == [holder]
        assert locks.conflicts_with((2,), READ) == [holder]

    def test_ancestor_holder_never_conflicts(self):
        locks = ObjectLocks()
        locks.grant((1,), WRITE)
        child = (1, 0)
        assert locks.conflicts_with(child, WRITE) == []
        assert locks.conflicts_with(child, READ) == []

    def test_read_locks_are_shared(self):
        locks = ObjectLocks()
        locks.grant((1,), READ)
        assert locks.conflicts_with((2,), READ) == []
        assert locks.conflicts_with((2,), WRITE) == [(1,)]

    def test_upgrade_read_to_write(self):
        locks = ObjectLocks()
        t = (1,)
        locks.grant(t, READ)
        assert locks.conflicts_with(t, WRITE) == []
        locks.grant(t, WRITE)
        assert locks.mode_of(t) == WRITE
        # write is never downgraded
        locks.grant(t, READ)
        assert locks.mode_of(t) == WRITE

    def test_inherit_merges_modes(self):
        locks = ObjectLocks()
        parent, child = (1,), (1, 0)
        locks.grant(parent, READ)
        locks.grant(child, WRITE)
        locks.inherit(child)
        assert locks.mode_of(parent) == WRITE
        assert locks.mode_of(child) is None

    def test_discard(self):
        locks = ObjectLocks()
        locks.grant((1,), WRITE)
        locks.discard((1,))
        assert locks.mode_of((1,)) is None


class TestBlockingBehaviour:
    def test_writer_blocks_sibling_writer_until_commit(self):
        db = NestedTransactionDB({"x": 0}, config=EngineConfig(lock_timeout=WAIT))
        t1 = db.begin_transaction()
        t1.write("x", 1)
        got_lock = threading.Event()
        result = {}

        def second():
            t2 = db.begin_transaction()
            result["value"] = t2.read("x")
            got_lock.set()
            t2.commit()

        thread = run_thread(second)
        assert not got_lock.wait(0.15)  # blocked while t1 holds the write lock
        t1.commit()
        assert got_lock.wait(WAIT)
        thread.join(WAIT)
        assert result["value"] == 1  # committed value visible after inherit to U

    def test_abort_releases_and_unblocks(self):
        db = NestedTransactionDB({"x": 0}, config=EngineConfig(lock_timeout=WAIT))
        t1 = db.begin_transaction()
        t1.write("x", 1)
        got = threading.Event()
        result = {}

        def second():
            result["value"] = db.run_transaction(lambda t: t.read("x"))
            got.set()

        thread = run_thread(second)
        assert not got.wait(0.15)
        t1.abort()
        assert got.wait(WAIT)
        thread.join(WAIT)
        assert result["value"] == 0  # abort restored the old value

    def test_concurrent_readers_do_not_block(self):
        db = NestedTransactionDB({"x": 7}, config=EngineConfig(lock_timeout=WAIT))
        t1 = db.begin_transaction()
        assert t1.read("x") == 7
        done = threading.Event()

        def second():
            t2 = db.begin_transaction()
            assert t2.read("x") == 7
            done.set()
            t2.commit()

        thread = run_thread(second)
        assert done.wait(WAIT)  # no blocking: shared read locks
        thread.join(WAIT)
        t1.commit()

    def test_single_mode_makes_reads_exclusive(self):
        db = NestedTransactionDB({"x": 7}, config=EngineConfig(single_mode=True, lock_timeout=WAIT))
        t1 = db.begin_transaction()
        t1.read("x")
        progressed = threading.Event()

        def second():
            t2 = db.begin_transaction()
            t2.read("x")
            progressed.set()
            t2.commit()

        thread = run_thread(second)
        assert not progressed.wait(0.15)  # reader blocks reader in single mode
        t1.commit()
        assert progressed.wait(WAIT)
        thread.join(WAIT)

    def test_parent_lock_admits_children(self):
        """A parent's write lock never blocks its own descendants."""
        db = NestedTransactionDB({"x": 0}, config=EngineConfig(lock_timeout=WAIT))
        with db.transaction() as t:
            t.write("x", 1)
            with t.subtransaction() as s:
                s.write("x", 2)
                with s.subtransaction() as g:
                    assert g.read("x") == 2
        assert db.snapshot()["x"] == 2

    def test_sibling_children_conflict(self):
        """Two children of the same parent conflict on writes like any
        other non-ancestor pair."""
        db = NestedTransactionDB({"x": 0}, config=EngineConfig(lock_timeout=WAIT))
        parent = db.begin_transaction()
        c1 = parent.begin_subtransaction()
        c1.write("x", 1)
        advanced = threading.Event()

        def second():
            c2 = parent.begin_subtransaction()
            c2.write("x", 2)
            advanced.set()
            c2.commit()

        thread = run_thread(second)
        assert not advanced.wait(0.15)
        c1.commit()  # lock inherits to parent — an ancestor of c2
        assert advanced.wait(WAIT)
        thread.join(WAIT)
        parent.commit()
        assert db.snapshot()["x"] == 2

    def test_lock_wait_statistics(self):
        db = NestedTransactionDB({"x": 0}, config=EngineConfig(lock_timeout=WAIT))
        t1 = db.begin_transaction()
        t1.write("x", 1)

        def second():
            db.run_transaction(lambda t: t.write("x", 2))

        thread = run_thread(second)
        time.sleep(0.1)
        t1.commit()
        thread.join(WAIT)
        assert db.stats.lock_waits >= 1


class TestLazyLockCleanup:
    def test_dead_holders_reaped_on_demand(self):
        db = NestedTransactionDB({"x": 0}, config=EngineConfig(lazy_lock_cleanup=True, lock_timeout=WAIT))
        t1 = db.begin_transaction()
        t1.write("x", 5)
        t1.abort()
        # The lock table still carries the dead holder; a new request
        # reaps it (the lazily-fired lose-lock event).
        value = db.run_transaction(lambda t: t.read("x"))
        assert value == 0
        assert db.stats.lazy_lock_reaps >= 1
