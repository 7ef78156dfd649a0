"""Behavioral guarantees behind the E10 hot-path overhaul.

The optimizations (interned names, precomputed ancestor sets, deferred
trace publication, exact counters) must be *invisible*: every
test here pins an observable the fast paths could plausibly have bent.
"""

from __future__ import annotations

import io
import threading

from hypothesis import given
from hypothesis import strategies as st

from repro.core.naming import U, ActionName
from repro.engine import EngineConfig, NestedTransactionDB
from repro.engine.locks import READ, WRITE, ObjectLocks
from repro.engine.retry import RetryPolicy
from repro.engine.trace import COMMIT, CREATE, PERFORM, TraceRecord, TraceRecorder
from repro.checker import check_engine


class TestConflictsWithFastPaths:
    """Lock holders are path tuples (``Transaction.key``)."""

    def setup_method(self):
        self.t1 = (1,)
        self.t2 = (2,)
        self.t1c = self.t1 + (0,)

    def test_empty_table_no_conflict(self):
        locks = ObjectLocks()
        assert locks.conflicts_with(self.t1, WRITE) == []
        assert locks.conflicts_with(self.t1, READ) == []

    def test_ancestor_set_agrees_with_path_walk(self):
        # The prefix test must excuse exactly the holders the paper's
        # name-level ancestry excuses.
        locks = ObjectLocks()
        locks.grant(self.t1, WRITE)
        locks.grant(self.t2, READ)
        requester = ActionName(self.t1c)
        for mode in (READ, WRITE):
            by_name = [
                holder
                for holder, held in locks.holders.items()
                if not (held == mode == READ)
                and not ActionName(holder).is_ancestor_of(requester)
            ]
            assert sorted(locks.conflicts_with(self.t1c, mode)) == sorted(by_name)

    def test_sole_holder_self_is_no_conflict(self):
        locks = ObjectLocks()
        locks.grant(self.t1, WRITE)
        assert locks.conflicts_with(self.t1, WRITE) == []

    def test_result_is_fresh_when_conflicting(self):
        # The conflict (slow) path must return a private list the caller
        # may keep: two calls must not alias each other's results.
        locks = ObjectLocks()
        locks.grant(self.t1, WRITE)
        first = locks.conflicts_with(self.t2, WRITE)
        locks.grant((3,), WRITE)
        second = locks.conflicts_with(self.t2, WRITE)
        assert list(first) == [self.t1]
        assert len(second) == 2


class TestDeferredTracePublication:
    def test_out_of_order_publish_reads_sorted(self):
        rec = TraceRecorder()
        s0 = rec.reserve_seq()
        s1 = rec.reserve_seq()
        s2 = rec.reserve_seq()
        rec.publish(TraceRecord(CREATE, U.child(2), seq=s2))
        rec.publish(TraceRecord(CREATE, U.child(0), seq=s0))
        rec.publish(TraceRecord(CREATE, U.child(1), seq=s1))
        assert [r.seq for r in rec.records] == [s0, s1, s2]
        assert [r.txn for r in rec.records] == [(0,), (1,), (2,)]

    def test_dump_load_round_trip_preserves_sorted_order(self):
        rec = TraceRecorder()
        seqs = [rec.reserve_seq() for _ in range(4)]
        for s in reversed(seqs):
            rec.publish(
                TraceRecord(
                    PERFORM, U.child(s), U.child(s).child("r0"),
                    "x", "read", s, None, s,
                )
            )
        buffer = io.StringIO()
        rec.dump(buffer)
        buffer.seek(0)
        loaded = TraceRecorder.load(buffer)
        assert [r.seq for r in loaded.records] == seqs
        assert loaded.records == rec.records

    def test_convenience_api_equivalent_to_deferred(self):
        direct = TraceRecorder()
        direct.record_create(U.child(0))
        direct.record_commit(U.child(0))
        deferred = TraceRecorder()
        s0 = deferred.reserve_seq()
        s1 = deferred.reserve_seq()
        deferred.publish(TraceRecord(COMMIT, U.child(0), seq=s1))
        deferred.publish(TraceRecord(CREATE, U.child(0), seq=s0))
        assert direct.records == deferred.records

    def test_loaded_recorder_continues_sequence(self):
        rec = TraceRecorder()
        rec.record_create(U.child(0))
        buffer = io.StringIO()
        rec.dump(buffer)
        buffer.seek(0)
        loaded = TraceRecorder.load(buffer)
        assert loaded.reserve_seq() > rec.records[-1].seq

    @given(st.permutations(list(range(6))))
    def test_any_publication_order_reads_identically(self, order):
        rec = TraceRecorder()
        for _ in range(6):
            rec.reserve_seq()
        for s in order:
            rec.publish(TraceRecord(CREATE, U.child(s), seq=s))
        assert [r.seq for r in rec.records] == list(range(6))


def _exercise(db, threads=4, txns=12, ops=6):
    """Run a contended workload; return per-thread abort counts."""
    objects = list(db.objects)
    errors = []

    def worker(tid):
        import random

        rng = random.Random(tid)
        for t in range(txns):
            def body(txn):
                for i in range(ops):
                    obj = objects[rng.randrange(len(objects))]
                    if i % 2 == 0:
                        txn.read(obj)
                    else:
                        txn.write(obj, (tid, t, i))

            try:
                db.run_transaction(
                    body,
                    policy=RetryPolicy(max_retries=20),
                    sleep_fn=lambda _s: None,
                )
            except Exception as err:  # pragma: no cover - diagnostic
                errors.append(err)

    pool = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
    for th in pool:
        th.start()
    for th in pool:
        th.join()
    return errors


class TestStripedCountersExact:
    """Counter exactness under threads (class and test names predate the
    single-latch engine; the suite's floor list pins them)."""

    def test_lifecycle_counters_balance_threaded(self):
        db = NestedTransactionDB({"x%d" % i: 0 for i in range(8)}, config=EngineConfig(lock_timeout=5.0))
        errors = _exercise(db)
        assert not errors
        stats = db.stats
        # Every begun transaction resolved exactly one way; every counter
        # bump happens under the engine latch, so totals are exact, not
        # approximate.
        assert stats.begun == stats.committed + stats.aborted
        assert stats.reads + stats.writes > 0
        report = stats.snapshot()
        assert report["begun"] == stats.begun

    def test_data_counters_exact_single_thread(self):
        db = NestedTransactionDB({"a": 0, "b": 0}, config=EngineConfig(record_trace=True))
        txn = db.begin_transaction()
        for _ in range(3):
            txn.read("a")
            txn.write("b", 1)
        txn.commit()
        assert db.stats.reads == 3
        assert db.stats.writes == 3
        assert db.stats.committed == 1

    def test_striped_trace_still_certifies(self):
        # Twice the threads of TestGlobalModeUnchanged's cell: more
        # deferred publications in flight at once.
        db = NestedTransactionDB({"x%d" % i: 0 for i in range(6)}, config=EngineConfig(record_trace=True, lock_timeout=5.0))
        errors = _exercise(db, threads=6, txns=8, ops=4)
        assert not errors
        check_engine(db)
        # Quiescent trace: no seq gaps below the top reserved number.
        seqs = [r.seq for r in db.trace.records]
        assert seqs == sorted(seqs)
        assert len(seqs) == len(set(seqs))


class TestAncestryCaches:
    def test_ancestor_names_and_lineage(self):
        db = NestedTransactionDB({"a": 0})
        top = db.begin_transaction()
        child = top.begin_subtransaction()
        grand = child.begin_subtransaction()
        # Ancestry is no longer cached: the key is the path, every proper
        # prefix of it is an ancestor's key, and the parent links walk the
        # same line self-first.
        assert top.key == top.name.path and top.parent is None
        assert child.key == top.key + (0,)
        assert grand.key == child.key + (0,)
        assert {grand.key[:n] for n in range(len(grand.key))} == {
            U.path, top.key, child.key
        }
        lineage, node = [], grand
        while node is not None:
            lineage.append(node.name)
            node = node.parent
        assert lineage == [grand.name, child.name, top.name]

    def test_caches_agree_with_name_ancestry(self):
        db = NestedTransactionDB({"a": 0})
        top = db.begin_transaction()
        child = top.begin_subtransaction()
        assert [anc.path for anc in child.name.proper_ancestors()] == [
            child.key[:n] for n in range(len(child.key))
        ]
        assert child.depth == child.name.depth == len(child.key)
        assert top.is_ancestor_of(child) and top.is_ancestor_of(top)
        assert not child.is_ancestor_of(top)


    paths = st.lists(
        st.one_of(st.integers(-2, 3), st.sampled_from(["a", "b", "0"])),
        max_size=4,
    ).map(tuple)

    @given(paths, paths)
    def test_tuple_prefix_is_the_papers_ancestry(self, a, b):
        """The engine's one ancestry question — "is holder ``a`` the
        requester ``b`` or an ancestor of it?" — asked of path tuples
        agrees with ``ActionName`` on random paths: ``U`` (the empty
        path), equal paths, mixed int/str atoms."""
        name_a, name_b = ActionName(a), ActionName(b)
        prefix = b[: len(a)] == a
        assert prefix == name_a.is_ancestor_of(name_b)
        assert (prefix and a != b) == name_a.is_proper_ancestor_of(name_b)
        # ...and as the lock table asks it.
        locks = ObjectLocks()
        locks.grant(a, WRITE)
        blocked = locks.conflicts_with(b, WRITE)
        assert blocked == ([] if name_a.is_ancestor_of(name_b) else [a])


class TestGlobalModeUnchanged:
    def test_global_trace_certifies_and_sorted(self):
        db = NestedTransactionDB({"x%d" % i: 0 for i in range(6)}, config=EngineConfig(record_trace=True, lock_timeout=5.0))
        errors = _exercise(db, threads=3, txns=8, ops=4)
        assert not errors
        check_engine(db)
        seqs = [r.seq for r in db.trace.records]
        assert seqs == sorted(seqs)
        assert len(seqs) == len(set(seqs))
