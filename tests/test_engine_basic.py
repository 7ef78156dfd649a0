"""Engine basics: lifecycle, value semantics, version stacks, errors."""

from __future__ import annotations

import pytest

from repro.engine import (
    EngineConfig,
    InvalidTransactionState,
    NestedTransactionDB,
    TransactionAborted,
    UnknownObject,
    VersionStack,
)


@pytest.fixture
def db():
    return NestedTransactionDB({"a": 10, "b": 20})


class TestLifecycle:
    def test_commit_publishes(self, db):
        with db.transaction() as t:
            t.write("a", 11)
        assert db.snapshot()["a"] == 11
        assert db.read_committed("a") == 11

    def test_abort_restores(self, db):
        txn = db.begin_transaction()
        txn.write("a", 99)
        txn.abort()
        assert db.snapshot()["a"] == 10

    def test_context_manager_aborts_on_error(self, db):
        with pytest.raises(RuntimeError):
            with db.transaction() as t:
                t.write("a", 99)
                raise RuntimeError("boom")
        assert db.snapshot()["a"] == 10

    def test_nested_commit_chains_upward(self, db):
        with db.transaction() as t:
            with t.subtransaction() as s1:
                s1.write("a", 1)
                with s1.subtransaction() as s2:
                    s2.write("a", 2)
            assert t.read("a") == 2
        assert db.snapshot()["a"] == 2

    def test_child_abort_undoes_only_child(self, db):
        with db.transaction() as t:
            t.write("a", 50)
            child = t.begin_subtransaction()
            child.write("a", 60)
            child.write("b", 61)
            child.abort()
            assert t.read("a") == 50
            assert t.read("b") == 20
        assert db.snapshot() == {"a": 50, "b": 20}

    def test_commit_with_active_child_rejected(self, db):
        txn = db.begin_transaction()
        child = txn.begin_subtransaction()
        with pytest.raises(InvalidTransactionState):
            txn.commit()
        child.abort()
        txn.commit()

    def test_double_commit_rejected(self, db):
        txn = db.begin_transaction()
        txn.commit()
        with pytest.raises(InvalidTransactionState):
            txn.commit()

    def test_commit_after_abort_raises(self, db):
        txn = db.begin_transaction()
        txn.abort()
        with pytest.raises(TransactionAborted):
            txn.commit()

    def test_abort_is_idempotent(self, db):
        txn = db.begin_transaction()
        txn.abort()
        txn.abort()

    def test_begin_under_done_parent_rejected(self, db):
        txn = db.begin_transaction()
        txn.commit()
        with pytest.raises(InvalidTransactionState):
            txn.begin_subtransaction()

    def test_operations_on_orphan_raise(self, db):
        txn = db.begin_transaction()
        child = txn.begin_subtransaction()
        txn.abort()
        with pytest.raises(TransactionAborted):
            child.read("a")
        assert not child.is_live

    def test_abort_cascades_to_subtree(self, db):
        txn = db.begin_transaction()
        child = txn.begin_subtransaction()
        grandchild = child.begin_subtransaction()
        grandchild.write("a", 5)
        txn.abort()
        assert grandchild.status == "aborted"
        assert db.snapshot()["a"] == 10

    def test_unknown_object(self, db):
        with pytest.raises(UnknownObject):
            with db.transaction() as t:
                t.read("zzz")
        with pytest.raises(UnknownObject):
            db.read_committed("zzz")


class TestValues:
    def test_update_helper(self, db):
        with db.transaction() as t:
            assert t.update("a", lambda v: v * 2) == 20
        assert db.snapshot()["a"] == 20

    def test_read_own_write(self, db):
        with db.transaction() as t:
            t.write("a", 1)
            assert t.read("a") == 1

    def test_child_reads_parent_write(self, db):
        with db.transaction() as t:
            t.write("a", 42)
            with t.subtransaction() as s:
                assert s.read("a") == 42

    def test_initial_values_property(self, db):
        assert db.initial_values == {"a": 10, "b": 20}

    def test_run_transaction_returns_value(self, db):
        result = db.run_transaction(lambda t: t.read("a") + 1)
        assert result == 11

    def test_stats_counters(self, db):
        with db.transaction() as t:
            t.read("a")
            t.write("b", 0)
        stats = db.stats.snapshot()
        assert stats["begun"] == 1
        assert stats["committed"] == 1
        assert stats["reads"] == 1
        assert stats["writes"] == 1


class TestVersionStack:
    def test_push_and_restore(self):
        stack = VersionStack(5)
        t = (0,)
        stack.ensure_version(t)
        stack.set_value(t, 9)
        assert stack.current == 9
        stack.discard(t)
        assert stack.current == 5

    def test_commit_merges_with_parent_entry(self):
        stack = VersionStack(0)
        parent, child = (0,), (0, 1)
        stack.ensure_version(parent)
        stack.set_value(parent, 1)
        stack.ensure_version(child)
        stack.set_value(child, 2)
        stack.commit_to_parent(child)
        assert stack.current == 2
        assert stack.owner == parent
        assert len(stack.entries) == 2  # U entry + parent entry

    def test_commit_retags_without_parent_entry(self):
        stack = VersionStack(0)
        child = (0, 1)
        stack.ensure_version(child)
        stack.set_value(child, 2)
        stack.commit_to_parent(child)
        assert stack.owner == (0,)
        assert stack.current == 2

    def test_ensure_version_idempotent(self):
        stack = VersionStack(0)
        t = (0,)
        stack.ensure_version(t)
        stack.ensure_version(t)
        assert len(stack.entries) == 2

    def test_set_value_wrong_owner_asserts(self):
        stack = VersionStack(0)
        with pytest.raises(AssertionError):
            stack.set_value((0,), 1)

    def test_discard_missing_is_noop(self):
        stack = VersionStack(0)
        stack.discard((0,))
        assert stack.current == 0


class TestTraceRecording:
    def test_trace_shape(self, db):
        with db.transaction() as t:
            t.read("a")
            with t.subtransaction() as s:
                s.write("b", 1)
        ops = [r.op for r in db.trace.records]
        assert ops == ["create", "perform", "create", "perform", "commit", "commit"]
        perform = [r for r in db.trace.records if r.op == "perform"]
        assert perform[0].kind == "read"
        assert perform[0].seen == 10
        assert perform[1].kind == "write"
        assert perform[1].seen == 20
        assert perform[1].arg == 1

    def test_trace_can_be_disabled(self):
        db = NestedTransactionDB({"a": 0}, config=EngineConfig(record_trace=False))
        with db.transaction() as t:
            t.read("a")
        assert db.trace is None
