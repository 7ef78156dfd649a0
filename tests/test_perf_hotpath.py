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

from repro.core.naming import U
from repro.engine import EngineConfig, NestedTransactionDB
from repro.engine.locks import READ, WRITE, ObjectLocks
from repro.engine.retry import RetryPolicy
from repro.engine.trace import COMMIT, CREATE, PERFORM, TraceRecord, TraceRecorder
from repro.checker import check_engine


class TestConflictsWithFastPaths:
    def setup_method(self):
        self.t1 = U.child(1)
        self.t2 = U.child(2)
        self.t1c = self.t1.child(0)

    def test_empty_table_no_conflict(self):
        locks = ObjectLocks()
        assert locks.conflicts_with(self.t1, WRITE) == []
        assert locks.conflicts_with(self.t1, READ) == []

    def test_ancestor_set_agrees_with_path_walk(self):
        locks = ObjectLocks()
        locks.grant(self.t1, WRITE)
        locks.grant(self.t2, READ)
        ancestors = frozenset((U, self.t1))
        for mode in (READ, WRITE):
            with_set = locks.conflicts_with(self.t1c, mode, ancestors)
            without = locks.conflicts_with(self.t1c, mode)
            assert sorted(with_set) == sorted(without)

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
        locks.grant(U.child(3), WRITE)
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
        assert [r.txn for r in rec.records] == [U.child(0), U.child(1), U.child(2)]

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
        assert top.ancestor_names == frozenset((U,))
        assert child.ancestor_names == frozenset((U, top.name))
        assert grand.ancestor_names == frozenset((U, top.name, child.name))
        assert [t.name for t in grand.lineage] == [
            grand.name,
            child.name,
            top.name,
        ]

    def test_caches_agree_with_name_ancestry(self):
        db = NestedTransactionDB({"a": 0})
        top = db.begin_transaction()
        child = top.begin_subtransaction()
        for anc in child.name.proper_ancestors():
            assert anc in child.ancestor_names
        assert len(child.ancestor_names) == child.name.depth


class TestGlobalModeUnchanged:
    def test_global_trace_certifies_and_sorted(self):
        db = NestedTransactionDB({"x%d" % i: 0 for i in range(6)}, config=EngineConfig(record_trace=True, lock_timeout=5.0))
        errors = _exercise(db, threads=3, txns=8, ops=4)
        assert not errors
        check_engine(db)
        seqs = [r.seq for r in db.trace.records]
        assert seqs == sorted(seqs)
        assert len(seqs) == len(set(seqs))
