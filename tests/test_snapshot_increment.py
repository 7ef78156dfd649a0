"""Snapshot reads, the commutative INCREMENT lock mode, and the
redesigned ``EngineConfig`` engine surface.

The property suites pin the two tentpole guarantees:

* snapshot visibility — a read-only transaction observes exactly the
  committed state at its begin horizon, no matter what commits after;
* increment exactness — N threads of blind increments always sum
  exactly, with zero lock waits (full commutativity).

The differential suite streams mixed snapshot/increment traces through
the online certifier and the offline Theorem-9 oracle and requires them
to agree — including on deliberately corrupted traces, which both must
reject.
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile
import threading
from dataclasses import replace as dc_replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checker import (
    OracleViolation,
    VERSION,
    certify_records,
    check_engine,
    check_snapshot_reads,
)
from repro.engine import (
    EngineConfig,
    INCREMENT,
    LockMode,
    NestedTransactionDB,
    ReadOnlyViolation,
)
from repro.engine.errors import LockTimeout, TransactionAborted

def make_db(initial, **overrides):
    return NestedTransactionDB(initial, config=EngineConfig(**overrides))


# ---------------------------------------------------------------------------
# INCREMENT lock mode


class TestIncrementMode:
    @pytest.mark.usefixtures("retired_latch_axis")
    def test_increment_folds_into_own_reads(self):
        db = make_db({"c": 10})

        def body(t):
            t.increment("c", 5)
            t.increment("c", -2)
            assert t.read("c") == 13

        db.run_transaction(body)
        assert db.snapshot()["c"] == 13
        db.assert_quiescent()
        assert check_engine(db).ok

    @pytest.mark.usefixtures("retired_latch_axis")
    def test_nthread_increment_exactness(self):
        """8 threads x 25 blind increments sum exactly — and commute:
        no increment ever waits for another increment's lock."""
        db = make_db({"c": 0}, record_trace=False)
        threads, per_thread, delta = 8, 25, 3

        def worker():
            for _ in range(per_thread):
                db.run_transaction(lambda t: t.increment("c", delta))

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert db.snapshot()["c"] == threads * per_thread * delta
        assert db.stats.lock_waits == 0
        assert db.stats.increments == threads * per_thread
        db.assert_quiescent()

    @pytest.mark.usefixtures("retired_latch_axis")
    def test_subtransaction_delta_inheritance_and_abort(self):
        db = make_db({"c": 100})

        def body(t):
            with t.subtransaction() as sub:
                sub.increment("c", 7)
            # Moss inheritance: the child's delta is now the parent's.
            assert t.read("c") == 107
            try:
                with t.subtransaction() as sub2:
                    sub2.increment("c", 1000)
                    raise RuntimeError("force child abort")
            except RuntimeError:
                pass
            # The aborted child's delta is discarded, the inherited one
            # survives.
            assert t.read("c") == 107

        db.run_transaction(body)
        assert db.snapshot()["c"] == 107
        db.assert_quiescent()
        assert check_engine(db).ok

    def test_increment_conflicts_with_readers(self):
        """INCREMENT commutes only with itself: a reader in another
        family must wait for (here: time out on) the increment lock."""
        db = make_db({"c": 0}, lock_timeout=0.05, detect_deadlocks=False)
        holder = db.begin_transaction()
        holder.increment("c", 1)
        reader = db.begin_transaction()
        with pytest.raises(LockTimeout):
            reader.read("c")
        reader.abort()
        holder.commit()
        assert db.snapshot()["c"] == 1

    def test_increment_conflicts_with_writers(self):
        db = make_db({"c": 0}, lock_timeout=0.05, detect_deadlocks=False)
        holder = db.begin_transaction()
        holder.write("c", 42)
        other = db.begin_transaction()
        with pytest.raises(LockTimeout):
            other.increment("c", 1)
        other.abort()
        holder.commit()
        assert db.snapshot()["c"] == 42

    def test_write_after_increment_materializes(self):
        """A write grant folds pending ancestor deltas into real versions
        before the writer's version is pushed."""
        db = make_db({"c": 100})

        def body(t):
            t.increment("c", 5)
            t.write("c", t.read("c") * 2)

        db.run_transaction(body)
        assert db.snapshot()["c"] == 210
        db.assert_quiescent()
        assert check_engine(db).ok

    def test_single_mode_increment_degrades_to_rmw(self):
        """Single-mode engines express increment as read_for_update +
        write, keeping their level-2 conformance intact."""
        db = make_db({"c": 10}, single_mode=True)
        db.run_transaction(lambda t: t.increment("c", 5))
        assert db.snapshot()["c"] == 15
        assert db.stats.increments == 0  # degraded, not a blind add
        assert check_engine(db).ok


# ---------------------------------------------------------------------------
# Snapshot reads


class TestSnapshotReads:
    @pytest.mark.usefixtures("retired_latch_axis")
    def test_snapshot_pinned_at_begin(self):
        db = make_db({"x": 1})
        snap = db.begin_transaction(read_only=True)
        db.run_transaction(lambda t: t.write("x", 2))
        assert snap.read("x") == 1  # horizon predates the write
        snap.commit()
        late = db.begin_transaction(read_only=True)
        assert late.read("x") == 2
        late.commit()
        db.assert_quiescent()
        assert check_engine(db).ok

    def test_snapshot_rejects_mutation(self):
        db = make_db({"x": 0})
        snap = db.begin_transaction(read_only=True)
        with pytest.raises(ReadOnlyViolation):
            snap.write("x", 1)
        with pytest.raises(ReadOnlyViolation):
            snap.increment("x", 1)
        with pytest.raises(ReadOnlyViolation):
            snap.read_for_update("x")
        snap.commit()

    @pytest.mark.usefixtures("retired_latch_axis")
    def test_snapshot_never_blocks_on_writer_locks(self):
        """A snapshot read proceeds while a writer holds the object's
        write lock mid-transaction — and sees the pre-write value."""
        db = make_db({"x": 1})
        writer = db.begin_transaction()
        writer.write("x", 99)  # write lock held, uncommitted
        snap = db.begin_transaction(read_only=True)
        assert snap.read("x") == 1
        snap.commit()
        writer.commit()
        assert db.snapshot()["x"] == 99
        db.assert_quiescent()
        assert check_engine(db).ok

    @given(
        script=st.lists(
            st.tuples(st.booleans(), st.integers(-5, 5)),
            min_size=1,
            max_size=20,
        ),
        snap_points=st.sets(st.integers(0, 20), max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_snapshot_visibility_property(self, script, snap_points):
        """Snapshots begun between arbitrary committed writes/increments
        always read the model value at their begin point — even when the
        read happens after many later commits."""
        db = make_db({"c": 0})
        model = 0
        open_snaps = []  # (txn, expected value at its horizon)
        for step, (is_write, value) in enumerate(script):
            if step in snap_points:
                open_snaps.append((db.begin_transaction(read_only=True), model))
            if is_write:
                db.run_transaction(lambda t, v=value: t.write("c", v))
                model = value
            else:
                db.run_transaction(lambda t, v=value: t.increment("c", v))
                model = model + value
        for snap, expected in open_snaps:
            assert snap.read("c") == expected
            assert snap.read("c") == expected  # repeatable
            snap.commit()
        assert db.snapshot()["c"] == model
        db.assert_quiescent()
        assert check_engine(db).ok
        report = certify_records(list(db.trace.records), db.initial_values)
        assert report.ok, report.violations


# ---------------------------------------------------------------------------
# Differential certification: streaming vs offline oracle


def _mixed_run(seed):
    """A concurrent mixed workload: writers, incrementers, snapshot
    readers.  Returns the finished (certifying) engine."""
    import random

    db = make_db(
        {"a": 0, "b": 10, "c": 100},
        certify="streaming",
    )

    def worker(wid):
        rng = random.Random(seed * 31 + wid)
        for _ in range(12):
            roll = rng.random()
            if roll < 0.3:
                snap = db.begin_transaction(read_only=True)
                snap.read(rng.choice("abc"))
                snap.read(rng.choice("abc"))
                snap.commit()
            elif roll < 0.65:
                obj, delta = rng.choice("abc"), rng.randint(1, 9)
                db.run_transaction(lambda t: t.increment(obj, delta))
            else:
                obj, value = rng.choice("abc"), rng.randint(0, 99)

                def body(t):
                    with t.subtransaction() as sub:
                        sub.write(obj, value + sub.read(obj) % 7)

                db.run_transaction(body)

    pool = [threading.Thread(target=worker, args=(w,)) for w in range(6)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    db.assert_quiescent()
    return db


class TestDifferentialCertification:
    @pytest.mark.parametrize("seed", (1, 2))
    def test_streaming_agrees_with_offline_oracle(self, seed):
        db = _mixed_run(seed)
        # Online: the engine's own streaming certifier saw every record.
        db.assert_certified()
        records = list(db.trace.records)
        initial = db.initial_values
        # Offline oracle: level-2rw conformance + Theorem-9 + snapshots.
        assert check_engine(db).ok
        assert check_snapshot_reads(records, initial) == []
        # Replayed streaming pass agrees.
        report = certify_records(records, initial)
        assert report.ok, report.violations

    def test_corrupted_snapshot_read_rejected_by_both(self):
        """Negative differential: falsify one snapshot read's observed
        value — the streaming certifier and the offline oracle must both
        flag it."""
        db = make_db({"x": 5})
        db.run_transaction(lambda t: t.write("x", 6))
        snap = db.begin_transaction(read_only=True)
        assert snap.read("x") == 6
        snap.commit()
        records = list(db.trace.records)
        corrupted = [
            dc_replace(rec, seen=999)
            if rec.op == "perform" and rec.seen == 6
            else rec
            for rec in records
        ]
        assert corrupted != records
        report = certify_records(corrupted, db.initial_values)
        assert not report.ok
        assert any(v.kind == VERSION for v in report.violations)
        failures = check_snapshot_reads(
            corrupted, db.initial_values, strict=False
        )
        assert failures
        with pytest.raises(OracleViolation):
            check_snapshot_reads(corrupted, db.initial_values)

    def test_corrupted_increment_total_rejected(self):
        """Falsify a later read's seen value so the replayed increment
        arithmetic no longer matches — the certifier catches it."""
        db = make_db({"c": 0})
        db.run_transaction(lambda t: t.increment("c", 5))

        def body(t):
            assert t.read("c") == 5

        db.run_transaction(body)
        records = list(db.trace.records)
        corrupted = [
            dc_replace(rec, seen=4)
            if rec.op == "perform" and rec.kind == "read" and rec.seen == 5
            else rec
            for rec in records
        ]
        assert corrupted != records
        report = certify_records(corrupted, db.initial_values)
        assert not report.ok


# ---------------------------------------------------------------------------
# WAL / recovery


class TestDurableIncrements:
    def test_increment_recovery(self, tmp_path):
        directory = str(tmp_path / "wal")
        cfg = EngineConfig(durability=directory)
        db = NestedTransactionDB({"c": 100, "x": 1}, config=cfg)

        def body(t):
            t.increment("c", 5)
            t.write("x", 42)

        db.run_transaction(body)
        db.run_transaction(lambda t: t.increment("c", 7))
        # Crash: reopen the directory without closing.
        recovered = NestedTransactionDB({"c": 100, "x": 1}, config=cfg)
        assert recovered.snapshot() == {"c": 112, "x": 42}
        recovered.close()
        db.close()

    def test_increment_recovery_across_checkpoint(self, tmp_path):
        directory = str(tmp_path / "wal")
        cfg = EngineConfig(durability=directory)
        db = NestedTransactionDB({"c": 0}, config=cfg)
        for _ in range(10):
            db.run_transaction(lambda t: t.increment("c", 2))
        assert db.checkpoint() is not None
        db.run_transaction(lambda t: t.increment("c", 3))
        recovered = NestedTransactionDB({"c": 0}, config=cfg)
        assert recovered.snapshot()["c"] == 23
        recovered.close()
        db.close()


# ---------------------------------------------------------------------------
# EngineConfig surface


class TestEngineConfigSurface:
    def test_canonical_config_constructor(self):
        cfg = EngineConfig(lock_timeout=2.0, record_trace=False)
        db = NestedTransactionDB({"x": 0}, config=cfg)
        assert db.config is cfg
        db.run_transaction(lambda t: t.write("x", 1))
        assert db.snapshot()["x"] == 1

    def test_unknown_kwarg_raises_type_error(self):
        """EngineConfig is the only configuration surface: the loose
        keyword arguments (deprecated since 1.4) are ordinary unknown
        kwargs now, not a warning."""
        with pytest.raises(TypeError, match="max_retries"):
            NestedTransactionDB({"x": 0}, max_retries=3)
        with pytest.raises(TypeError, match="record_trace"):
            NestedTransactionDB({"x": 0}, **{"record_trace": False})

    def test_config_plus_loose_kwargs_rejected(self):
        with pytest.raises(TypeError, match="single_mode"):
            NestedTransactionDB(
                {"x": 0}, config=EngineConfig(), **{"single_mode": True}
            )

    def test_removed_run_transaction_retry_kwargs(self):
        db = NestedTransactionDB({"x": 0})
        with pytest.raises(TypeError):
            db.run_transaction(lambda t: t.read("x"), max_retries=3)
        with pytest.raises(TypeError):
            db.run_transaction(lambda t: t.read("x"), backoff=0.1)

    def test_lock_mode_exports(self):
        assert LockMode.INCREMENT == INCREMENT == "increment"
        assert LockMode.INCREMENT.self_commutes
        assert LockMode.READ.self_commutes
        assert not LockMode.WRITE.self_commutes

    def test_invalid_latch_mode_rejected(self):
        """Every latch mode is invalid now: the field is gone."""
        with pytest.raises(TypeError, match="latch_mode"):
            EngineConfig(latch_mode="global")
        assert len(dataclasses.fields(EngineConfig)) == 10


# ---------------------------------------------------------------------------
# Abort-path exception masking


class TestAbortMasking:
    def test_abort_failure_does_not_mask_body_error(self, monkeypatch):
        from repro.engine.transaction import Transaction

        db = NestedTransactionDB({"x": 0})
        original_abort = Transaction.abort

        def broken_abort(self):
            original_abort(self)
            raise RuntimeError("abort bookkeeping failed")

        monkeypatch.setattr(Transaction, "broken", broken_abort, raising=False)
        monkeypatch.setattr(Transaction, "abort", broken_abort)

        def body(t):
            raise ValueError("body failure")

        with pytest.raises(ValueError, match="body failure") as excinfo:
            db.run_transaction(body)
        # The abort-time error rides along as context, never replaces it.
        assert isinstance(excinfo.value.__context__, RuntimeError)

    def test_retryable_abort_still_retries(self):
        db = NestedTransactionDB({"x": 0})
        attempts = []

        def body(t):
            attempts.append(1)
            if len(attempts) < 3:
                raise TransactionAborted(t.name, "synthetic victim")
            t.write("x", len(attempts))

        db.run_transaction(body, sleep_fn=lambda _s: None)
        assert db.snapshot()["x"] == 3
