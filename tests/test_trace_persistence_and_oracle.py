"""Trace persistence, executor latency stats, message-ordering edge cases,
and the oracle's sensitivity to trace mutations."""

from __future__ import annotations

import io
import random

import pytest

from repro.checker import check_trace_serializable
from repro.core import (
    ActionSummary,
    Create,
    HomeAssignment,
    Level5Algebra,
    Perform,
    Receive,
    Send,
    U,
    Universe,
    write,
)
from repro.core.action_tree import ACTIVE
from repro.engine import NestedTransactionDB, TraceRecord, TraceRecorder
from repro.workload import WorkloadConfig, WorkloadGenerator, execute, initial_values


class TestTracePersistence:
    def _run(self):
        db = NestedTransactionDB({"a": 0, "b": 5})
        with db.transaction() as t:
            t.write("a", 1)
            with t.subtransaction() as s:
                s.write("b", s.read("a") + 1)
        txn = db.begin_transaction()
        txn.write("a", 99)
        txn.abort()
        return db

    def test_roundtrip_through_stream(self):
        db = self._run()
        buffer = io.StringIO()
        db.trace.dump(buffer)
        buffer.seek(0)
        loaded = TraceRecorder.load(buffer)
        assert loaded.records == db.trace.records

    def test_roundtrip_through_file(self, tmp_path):
        db = self._run()
        path = str(tmp_path / "trace.jsonl")
        db.trace.dump(path)
        loaded = TraceRecorder.load(path)
        assert loaded.records == db.trace.records

    def test_loaded_trace_certifies(self, tmp_path):
        db = self._run()
        path = str(tmp_path / "trace.jsonl")
        db.trace.dump(path)
        loaded = TraceRecorder.load(path)
        report = check_trace_serializable(loaded.records, db.initial_values)
        assert report.ok

    def test_string_labels_survive(self):
        recorder = TraceRecorder()
        txn = U.child(3)
        recorder.record_create(txn)
        recorder.record_perform(txn, txn.child("r0"), "x", "read", 7)
        buffer = io.StringIO()
        recorder.dump(buffer)
        buffer.seek(0)
        loaded = TraceRecorder.load(buffer)
        assert loaded.records[1].access == txn.child("r0").path
        assert loaded.records[1].seen == 7

    def test_empty_trace_roundtrip(self, tmp_path):
        recorder = TraceRecorder()
        path = str(tmp_path / "empty.jsonl")
        recorder.dump(path)
        loaded = TraceRecorder.load(path)
        assert loaded.records == ()
        # The reloaded recorder is still usable: sequence numbering
        # restarts from zero, same as a fresh one.
        loaded.record_create(U.child(1))
        assert loaded.records[0].seq == 0

    def test_non_ascii_object_names_roundtrip(self, tmp_path):
        """Object names and values outside ASCII survive a file round
        trip byte-for-byte (files are written/read as UTF-8 regardless
        of locale, with ensure_ascii off so the JSONL stays readable)."""
        db = NestedTransactionDB({"café": 0, "口座": 5})
        with db.transaction() as t:
            t.write("café", "✓ français")
            t.write("口座", t.read("café"))
        path = str(tmp_path / "unicode.jsonl")
        db.trace.dump(path)
        # The on-disk form keeps the raw characters (no \uXXXX escapes).
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
        assert "café" in raw and "口座" in raw
        loaded = TraceRecorder.load(path)
        assert loaded.records == db.trace.records
        report = check_trace_serializable(loaded.records, db.initial_values)
        assert report.ok


class TestLatencyStats:
    def test_percentiles_tracked(self):
        db = NestedTransactionDB(initial_values(8))
        cfg = WorkloadConfig(objects=8, programs=12, seed=1)
        report = execute(db, WorkloadGenerator(cfg).programs(), threads=2)
        assert len(report.latencies) == 12
        assert report.latency_percentile(0.0) <= report.latency_percentile(1.0)
        assert report.latency_percentile(0.95) > 0
        assert "p95_ms" in report.as_row()

    def test_percentile_validation(self):
        from repro.workload import ExecutionReport

        empty = ExecutionReport()
        assert empty.latency_percentile(0.5) == 0.0
        filled = ExecutionReport(latencies=[0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            filled.latency_percentile(1.5)
        assert filled.latency_percentile(0.0) == 0.1
        assert filled.latency_percentile(1.0) == 0.3


class TestMessageOrderingEdgeCases:
    def _setting(self):
        universe = Universe()
        universe.define_object("x", init=0)
        t1 = U.child(1)
        universe.declare_access(t1.child("w"), "x", write(1))
        homes = HomeAssignment(
            universe, 2, object_homes={"x": 1}, action_homes={t1: 0}
        )
        return universe, homes, Level5Algebra(universe, homes), t1

    def test_duplicate_receive_is_idempotent(self):
        universe, homes, algebra, t1 = self._setting()
        ship = ActionSummary({t1: ACTIVE})
        events = [
            Create(t1),
            Send(0, 1, ship),
            Receive(1, ship),
            Receive(1, ship),  # the buffer keeps everything ever sent
        ]
        state = algebra.run(events)
        assert state.node(1).summary.is_active(t1)

    def test_receive_subset_then_superset(self):
        universe, homes, algebra, t1 = self._setting()
        w = t1.child("w")
        full = ActionSummary({t1: ACTIVE, w: ACTIVE})
        part = ActionSummary({t1: ACTIVE})
        events = [
            Create(t1),
            Create(w),
            Send(0, 1, full),
            Receive(1, part),  # any sub-summary of M_1 may be delivered
            Receive(1, full),
        ]
        state = algebra.run(events)
        assert state.node(1).summary.is_active(w)

    def test_stale_knowledge_redelivery_cannot_downgrade(self):
        """Receiving an old 'active' after learning 'committed' keeps the
        newer status (union precedence)."""
        universe, homes, algebra, t1 = self._setting()
        w = t1.child("w")
        stale = ActionSummary({w: ACTIVE})
        events = [
            Create(t1),
            Create(w),
            Send(0, 1, stale),  # ships 'active' before the perform
            Receive(1, stale),
            Perform(w, 0),      # w commits at node 1 (home of x)
            Receive(1, stale),  # stale redelivery from the buffer
        ]
        state = algebra.run(events)
        assert state.node(1).summary.is_committed(w)


class TestOracleMutationSensitivity:
    """Mutate a certified trace and confirm the oracle notices: the checks
    are not vacuous for any record field that matters."""

    def _good_trace(self):
        db = NestedTransactionDB({"x": 0, "y": 0})
        with db.transaction() as t:
            t.write("x", 3)
        with db.transaction() as t:
            assert t.read("x") == 3
            t.write("y", t.read("x") + 1)
        assert check_trace_serializable(db.trace.records, db.initial_values).ok
        return list(db.trace.records), db.initial_values

    def test_mutating_read_values_is_caught(self):
        records, initial = self._good_trace()
        rng = random.Random(0)
        caught = 0
        total = 0
        for index, record in enumerate(records):
            if record.op != "perform" or record.kind != "read":
                continue
            total += 1
            mutated = list(records)
            mutated[index] = TraceRecord(
                record.op,
                record.txn,
                record.access,
                record.obj,
                record.kind,
                seen=(record.seen or 0) + rng.randint(1, 9),
            )
            report = check_trace_serializable(mutated, initial, strict=False)
            if not report.ok:
                caught += 1
        assert total > 0
        assert caught == total  # every read-value mutation detected

    def test_dropping_a_commit_hides_the_subtree(self):
        """Removing a commit makes the writer non-permanent: the reader's
        seen value becomes inexplicable."""
        records, initial = self._good_trace()
        # drop the first top-level's commit
        index = next(
            i for i, r in enumerate(records) if r.op == "commit" and len(r.txn) == 1
        )
        mutated = records[:index] + records[index + 1 :]
        report = check_trace_serializable(mutated, initial, strict=False)
        assert not report.ok

    def test_swapping_conflicting_writes_is_caught(self):
        """Two committed writers to one object, then a reader: swapping
        the writers' order in the trace flips the expected value."""
        db = NestedTransactionDB({"x": 0})
        with db.transaction() as t:
            t.write("x", 1)
        with db.transaction() as t:
            t.write("x", 2)
        with db.transaction() as t:
            assert t.read("x") == 2
        records = list(db.trace.records)
        perform_indexes = [
            i for i, r in enumerate(records) if r.op == "perform" and r.kind == "write"
        ]
        i, j = perform_indexes[0], perform_indexes[1]
        records[i], records[j] = (
            TraceRecord("perform", records[j].txn, records[j].access, "x", "write", 0, 2),
            TraceRecord("perform", records[i].txn, records[i].access, "x", "write", 0, 1),
        )
        report = check_trace_serializable(records, db.initial_values, strict=False)
        assert not report.ok