"""The streaming certifier: differential against the offline oracle,
injected-violation detection, bounded-memory windowing, out-of-order
tolerance, and the live engine wiring (``certify="streaming"``).

The offline oracle (``check_trace_serializable``) is the ground truth:
it holds the whole trace and replays the paper's algebra post hoc.  The
streaming checker must reach the *same verdict* incrementally, record by
record, while retiring window state the moment concurrency allows — so
the differential tests below compare the two on randomized traces, on
deliberately corrupted traces, and on real concurrent engine runs.
"""

from __future__ import annotations

import gc
import io
import itertools
import json
import os
import random
import subprocess
import sys
from collections import deque
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checker import (
    CYCLE,
    FAMILY_CYCLE,
    PROTOCOL,
    VERSION,
    ReorderBuffer,
    RetirementClock,
    StreamingCertifier,
    StreamingViolation,
    certify_records,
    check_engine,
    check_trace_serializable,
)
from repro.core import U
from repro.engine import EngineConfig, NestedTransactionDB, TraceBusBridge
from repro.engine.trace import (
    ABORT,
    COMMIT,
    CREATE,
    PERFORM,
    TraceRecord,
)
from repro.obs import JsonlFileSink
from repro.workload import WorkloadConfig, WorkloadGenerator, execute, initial_values


def perform(txn, index, obj, kind, seen, arg=None):
    access = txn.child("%s%d" % ("r" if kind == "read" else "w", index))
    return TraceRecord(PERFORM, txn, access, obj, kind, seen, arg)


def counter_trace(tops, objects):
    """A serial, version-compatible run: each top reads then increments
    one object.  Certifies clean by construction."""
    values = {obj: 0 for obj in objects}
    records = []
    for i in range(tops):
        top = U.child(str(i))
        obj = objects[i % len(objects)]
        records.append(TraceRecord(CREATE, top))
        records.append(perform(top, 0, obj, "read", values[obj]))
        records.append(perform(top, 1, obj, "write", values[obj], values[obj] + 1))
        values[obj] += 1
        records.append(TraceRecord(COMMIT, top))
    return records


# ---------------------------------------------------------------------------
# Differential: randomized protocol-valid traces, streaming vs offline
# ---------------------------------------------------------------------------

OBJECTS = ("x", "y", "z")
INITIAL = {obj: 0 for obj in OBJECTS}


@st.composite
def random_trace(draw):
    """A protocol-valid trace of 1-4 tops (flat accesses and depth-2
    subtransactions, commits and aborts), with *arbitrary* seen/arg
    values — most draws are version-incompatible, some close cycles, a
    few certify; the verdict itself is the property under test."""
    tops = draw(st.integers(min_value=1, max_value=4))
    per_top = []
    for index in range(tops):
        top = U.child(str(index))
        events = [TraceRecord(CREATE, top)]
        counter = itertools.count()
        for child in range(draw(st.integers(min_value=1, max_value=3))):
            if draw(st.booleans()):
                sub = top.child("s%d" % child)
                events.append(TraceRecord(CREATE, sub))
                for _ in range(draw(st.integers(min_value=1, max_value=2))):
                    events.append(_random_perform(draw, sub, counter))
                events.append(
                    TraceRecord(draw(st.sampled_from((COMMIT, ABORT))), sub)
                )
            else:
                events.append(_random_perform(draw, top, counter))
        events.append(TraceRecord(draw(st.sampled_from((COMMIT, ABORT))), top))
        per_top.append(deque(events))
    lanes = [i for i, events in enumerate(per_top) for _ in events]
    order = draw(st.permutations(lanes))
    return [per_top[lane].popleft() for lane in order]


def _random_perform(draw, txn, counter):
    obj = draw(st.sampled_from(OBJECTS))
    kind = draw(st.sampled_from(("read", "write")))
    seen = draw(st.integers(min_value=0, max_value=2))
    arg = draw(st.integers(min_value=0, max_value=2)) if kind == "write" else None
    return perform(txn, next(counter), obj, kind, seen, arg)


class TestDifferentialRandomTraces:
    @given(random_trace())
    def test_verdict_matches_offline_oracle(self, records):
        streaming = certify_records(records, INITIAL)
        offline = check_trace_serializable(records, INITIAL, strict=False)
        assert streaming.ok == offline.ok, (
            streaming.violations,
            offline.failure,
        )
        assert streaming.permanent_accesses == offline.permanent_datasteps
        assert streaming.records == len(records)

    @given(
        st.integers(min_value=1, max_value=12),
        st.data(),
    )
    def test_corrupted_counter_trace_is_flagged(self, tops, data):
        """Mutation property: corrupt one permanent access's observed
        value in a trace that certifies clean — both checkers must flag
        it, and they must keep agreeing."""
        records = counter_trace(tops, OBJECTS)
        assert certify_records(records, INITIAL).ok

        performs = [i for i, r in enumerate(records) if r.op == PERFORM]
        index = data.draw(st.sampled_from(performs))
        delta = data.draw(st.integers(min_value=1, max_value=3))
        mutated = list(records)
        mutated[index] = replace(
            mutated[index], seen=mutated[index].seen + delta
        )

        streaming = certify_records(mutated, INITIAL)
        offline = check_trace_serializable(mutated, INITIAL, strict=False)
        assert not streaming.ok
        assert not offline.ok
        assert any(v.kind == VERSION for v in streaming.violations)


class TestInjectedViolations:
    def test_write_skew_cycle(self):
        """Classic write skew: version-compatible but not serializable —
        the cycle must be flagged the moment its closing edge appears."""
        t1, t2 = U.child("1"), U.child("2")
        records = [
            TraceRecord(CREATE, t1),
            TraceRecord(CREATE, t2),
            perform(t1, 0, "x", "read", 0),
            perform(t2, 0, "y", "read", 0),
            perform(t1, 1, "y", "write", 0, 1),
            perform(t2, 1, "x", "write", 0, 1),
            TraceRecord(COMMIT, t1),
            TraceRecord(COMMIT, t2),
        ]
        report = certify_records(records, {"x": 0, "y": 0})
        assert not report.ok
        assert any(v.kind == CYCLE for v in report.violations)
        assert not check_trace_serializable(records, {"x": 0, "y": 0}, strict=False).ok

    def test_version_incompatibility(self):
        t = U.child("0")
        records = [
            TraceRecord(CREATE, t),
            perform(t, 0, "x", "read", 41),  # x starts at 0
            TraceRecord(COMMIT, t),
        ]
        report = certify_records(records, {"x": 0})
        assert not report.ok
        assert report.violations[0].kind == VERSION
        assert report.violations[0].obj == "x"

    def test_nested_family_cycle(self):
        """Two committed siblings inside one top conflicting in opposite
        orders on two objects: serializable at top level, cyclic inside
        the family — flagged at the top's commit."""
        top = U.child("0")
        a, b = top.child("s0"), top.child("s1")
        records = [
            TraceRecord(CREATE, top),
            TraceRecord(CREATE, a),
            TraceRecord(CREATE, b),
            perform(a, 0, "x", "write", 0, 1),
            perform(b, 0, "x", "write", 1, 2),
            perform(b, 1, "y", "write", 0, 1),
            perform(a, 1, "y", "write", 1, 2),
            TraceRecord(COMMIT, a),
            TraceRecord(COMMIT, b),
            TraceRecord(COMMIT, top),
        ]
        report = certify_records(records, {"x": 0, "y": 0})
        assert not report.ok
        assert any(v.kind == FAMILY_CYCLE for v in report.violations)
        assert not check_trace_serializable(
            records, {"x": 0, "y": 0}, strict=False
        ).ok

    def test_aborted_work_is_not_flagged(self):
        """An aborted top may have seen anything; it never becomes
        permanent, so the certifier must not charge it."""
        t1, t2 = U.child("1"), U.child("2")
        records = [
            TraceRecord(CREATE, t1),
            perform(t1, 0, "x", "read", 999),
            TraceRecord(ABORT, t1),
            TraceRecord(CREATE, t2),
            perform(t2, 0, "x", "read", 0),
            TraceRecord(COMMIT, t2),
        ]
        report = certify_records(records, {"x": 0})
        assert report.ok
        assert report.permanent_accesses == 1
        assert report.dropped_accesses == 1


# ---------------------------------------------------------------------------
# The path-tuple fast path: permanence per transaction, the family skip
# rule, and top-level labels indexed by path[0]
# ---------------------------------------------------------------------------


class TestPathTupleFastPath:
    def test_aborted_middle_of_deep_chain_drops_only_its_subtree(self):
        """top > a > b > c with b aborted under a committed top: b's and
        c's accesses leave perm(T) (c committed, but into an aborted
        parent); a's own access and a's sibling d survive.  The dropped
        reads saw garbage, so keeping any of them would flag VERSION."""
        top = U.child("0")
        a = top.child("a")
        b = a.child("b")
        c = b.child("c")
        d = top.child("d")
        records = [
            TraceRecord(CREATE, top),
            TraceRecord(CREATE, a),
            perform(a, 0, "x", "write", 0, 1),
            TraceRecord(CREATE, b),
            perform(b, 0, "x", "read", 999),
            TraceRecord(CREATE, c),
            perform(c, 0, "y", "read", 999),
            perform(c, 1, "y", "write", 999, 5),
            TraceRecord(COMMIT, c),
            TraceRecord(ABORT, b),
            perform(a, 1, "y", "read", 0),
            TraceRecord(COMMIT, a),
            TraceRecord(CREATE, d),
            perform(d, 0, "y", "write", 0, 2),
            TraceRecord(COMMIT, d),
            TraceRecord(COMMIT, top),
        ]
        initial = {"x": 0, "y": 0}
        report = certify_records(records, initial)
        assert report.ok, report.violations
        assert report.permanent_accesses == 3
        assert report.dropped_accesses == 3
        assert check_trace_serializable(records, initial, strict=False).ok
        # The same trace with the middle committed keeps the garbage reads.
        kept = [
            replace(r, op=COMMIT) if r.op == ABORT and r.txn == b.path else r
            for r in records
        ]
        assert not certify_records(kept, initial).ok

    def test_interleaved_deep_siblings_still_flag_family_cycle(self):
        """Guards the skip rule: sibling subtrees whose accesses interleave
        (p.s0, q.s0, q.s0, p.s1) close p -> q -> p under the top.  The
        accesses sit two levels below the cyclic family, and a third,
        purely sequential sibling must not hide it."""
        top = U.child("0")
        p, q, r = top.child("p"), top.child("q"), top.child("r")
        p0, p1, q0 = p.child("s0"), p.child("s1"), q.child("s0")
        x1 = perform(p0, 0, "x", "write", 0, 1)
        x2 = perform(q0, 0, "x", "write", 1, 2)
        y1 = perform(q0, 1, "y", "write", 0, 1)
        y2 = perform(p1, 0, "y", "write", 1, 2)
        records = [
            TraceRecord(CREATE, top),
            TraceRecord(CREATE, p), TraceRecord(CREATE, q),
            TraceRecord(CREATE, p0), TraceRecord(CREATE, q0),
            x1, TraceRecord(COMMIT, p0),
            x2, y1, TraceRecord(COMMIT, q0),
            TraceRecord(CREATE, p1), y2, TraceRecord(COMMIT, p1),
            TraceRecord(COMMIT, p), TraceRecord(COMMIT, q),
            TraceRecord(CREATE, r),
            perform(r, 0, "z", "write", 0, 1),
            TraceRecord(COMMIT, r),
            TraceRecord(COMMIT, top),
        ]
        initial = {"x": 0, "y": 0, "z": 0}
        report = certify_records(records, initial)
        cycles = [v for v in report.violations if v.kind == FAMILY_CYCLE]
        assert len(cycles) == 1 and len(report.violations) == 1
        assert cycles[0].txns == (p, q)
        assert tuple(name.path for name in cycles[0].accesses) == (
            x1.access, x2.access, y1.access, y2.access
        )
        assert not check_trace_serializable(records, initial, strict=False).ok

    def test_sequential_siblings_need_no_cycle_search(self, monkeypatch):
        """The shape every engine run produces — each subtree's accesses
        contiguous — is cleared without enumerating a single pair."""
        from repro.checker import streaming

        def unreachable(edges):
            raise AssertionError("cycle search on a sequential family")

        monkeypatch.setattr(streaming, "_digraph_cycle", unreachable)
        top = U.child("0")
        records = [TraceRecord(CREATE, top)]
        value = 0
        for i in range(4):
            sub = top.child("s%d" % i)
            records.append(TraceRecord(CREATE, sub))
            records.append(perform(sub, 0, "x", "read", value))
            records.append(perform(sub, 1, "x", "write", value, value + 1))
            records.append(TraceRecord(COMMIT, sub))
            value += 1
        records.append(perform(top, 0, "x", "read", value))
        records.append(TraceRecord(COMMIT, top))
        report = certify_records(records, {"x": 0})
        assert report.ok and report.permanent_accesses == 9

    def test_top_level_label_reused_after_retirement(self):
        """created -> committed -> retired -> created again under the same
        label: the second incarnation must start from a fresh window
        entry, not inherit the first one's status or accesses."""
        top = U.child("again")
        first = [
            TraceRecord(CREATE, top),
            perform(top, 0, "x", "write", 0, 1),
            TraceRecord(COMMIT, top),
        ]
        second = [
            TraceRecord(CREATE, top),
            perform(top, 1, "x", "read", 1),
            perform(top, 2, "x", "write", 1, 2),
            TraceRecord(COMMIT, top),
        ]
        certifier = StreamingCertifier({"x": 0})
        certifier.feed_many(first)
        assert certifier.report().stats["retired_tops"] == 1
        assert certifier.report().stats["live_tops"] == 0
        certifier.feed_many(second)
        report = certifier.finish()
        assert report.ok, report.violations
        assert report.permanent_accesses == 3
        assert report.stats["retired_tops"] == 2
        assert report.stats["max_live_tops"] == 1

    def test_create_of_a_still_active_top_is_a_protocol_violation(self):
        top = U.child("0")
        report = certify_records(
            [TraceRecord(CREATE, top), TraceRecord(CREATE, top),
             TraceRecord(COMMIT, top)],
            {"x": 0},
        )
        assert [v.kind for v in report.violations] == [PROTOCOL]
        assert report.stats["retired_tops"] == 1

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=30)
    def test_feed_many_matches_repeated_feed(self, rng):
        """Batch feeding is only a coarser lock: same violations, same
        statistics as feeding one record at a time, whatever the arrival
        order and however the stream is cut into batches."""
        records = [
            replace(record, seq=i)
            for i, record in enumerate(counter_trace(10, OBJECTS))
        ]
        performs = [i for i, r in enumerate(records) if r.op == PERFORM]
        records[performs[7]] = replace(records[performs[7]], seen=40)
        rng.shuffle(records)
        one_by_one = StreamingCertifier(INITIAL)
        for record in records:
            one_by_one.feed(record)
        batched = StreamingCertifier(INITIAL)
        cut = 0
        while cut < len(records):
            size = rng.randint(1, 9)
            batched.feed_many(records[cut:cut + size])
            cut += size
        assert batched.report().to_dict() == one_by_one.report().to_dict()
        assert batched.finish().to_dict() == one_by_one.finish().to_dict()
        assert not batched.ok


# ---------------------------------------------------------------------------
# Bounded memory: the window tracks concurrency, not run length
# ---------------------------------------------------------------------------


class TestBoundedWindow:
    def test_serial_run_window_is_constant(self):
        report = certify_records(counter_trace(200, OBJECTS), INITIAL)
        assert report.ok
        assert report.stats["max_live_tops"] == 1
        assert report.stats["retired_tops"] == 200
        assert report.stats["max_applied_accesses"] <= 2
        assert report.stats["live_tops"] == 0
        assert report.stats["applied_accesses"] == 0

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=20)
    def test_batched_run_window_tracks_batch_width(self, width, batches):
        """Tops run in batches of ``width``: all begin, all commit, next
        batch.  The live window must never exceed the batch width however
        many batches run, and every top must eventually retire."""
        values = {obj: 0 for obj in OBJECTS}
        records = []
        for batch in range(batches):
            tops = [U.child(str(batch * width + i)) for i in range(width)]
            for top in tops:
                records.append(TraceRecord(CREATE, top))
            for i, top in enumerate(tops):
                obj = OBJECTS[i % len(OBJECTS)]
                records.append(perform(top, 0, obj, "read", values[obj]))
            for top in tops:
                records.append(TraceRecord(COMMIT, top))
        report = certify_records(records, INITIAL)
        assert report.ok
        assert report.stats["max_live_tops"] <= width
        assert report.stats["retired_tops"] == width * batches
        assert report.stats["live_tops"] == 0
        assert report.stats["graph_edges"] == 0

    def test_retired_windows_are_freed_by_reference_count(self):
        """2 000 certified programs of the spine's nested shape with the
        cyclic collector off: no ``_Access`` / ``_TopTxn`` outlives the
        window, so retirement alone — by reference count — freed them.
        (A top and its accesses pointing at each other used to keep
        every retired window for a generation-2 pass: 40 000 accesses
        and 2 000 tops.)"""
        from repro.checker import streaming

        names = ["o%d" % i for i in range(64)]
        db = NestedTransactionDB(
            dict.fromkeys(names, 1000), config=EngineConfig(certify="streaming")
        )
        rng = random.Random(3)
        gc.collect()  # other tests' garbage, before — never between run and count
        gc.disable()
        try:
            for _ in range(2000):
                top = db.begin_transaction()
                for _ in range(4):
                    read_obj, src, dst = rng.sample(names, 3)
                    child = top.begin_subtransaction()
                    child.read(read_obj)
                    child.write(src, child.read_for_update(src) - 1)
                    child.write(dst, child.read_for_update(dst) + 1)
                    child.commit()
                top.commit()
            stats = db.certifier.report().stats
            survivors = {"_Access": 0, "_TopTxn": 0}
            for obj in gc.get_objects():
                if type(obj) is streaming._Access:
                    survivors["_Access"] += 1
                elif type(obj) is streaming._TopTxn:
                    survivors["_TopTxn"] += 1
        finally:
            gc.enable()
        assert stats["live_tops"] == 0 and stats["applied_accesses"] == 0
        assert survivors == {"_Access": 0, "_TopTxn": 0}
        db.assert_certified()

    def test_general_path_windows_are_freed_by_reference_count(self):
        """The same property where the window is used: a one-client
        engine's families are certified in one pass and build no window
        at all, so here the records of 500 such programs are fed one by
        one through ``feed``, which queues every access, drains and
        retires it."""
        from repro.checker import streaming

        names = ["o%d" % i for i in range(64)]
        db = NestedTransactionDB(
            dict.fromkeys(names, 1000), config=EngineConfig(record_trace=True)
        )
        rng = random.Random(3)
        for _ in range(500):
            top = db.begin_transaction()
            for _ in range(4):
                read_obj, src, dst = rng.sample(names, 3)
                child = top.begin_subtransaction()
                child.read(read_obj)
                child.write(src, child.read_for_update(src) - 1)
                child.write(dst, child.read_for_update(dst) + 1)
                child.commit()
            top.commit()
        records = db.trace.records
        certifier = StreamingCertifier(db.initial_values)
        gc.collect()
        gc.disable()
        try:
            for record in records:
                certifier.feed(record)
            stats = certifier.report().stats
            survivors = sum(
                type(obj) in (streaming._Access, streaming._TopTxn)
                for obj in gc.get_objects()
            )
        finally:
            gc.enable()
        assert stats["retired_tops"] == 500 and stats["live_tops"] == 0
        assert stats["max_applied_accesses"] == 20
        assert survivors == 0
        assert certifier.finish().ok


# ---------------------------------------------------------------------------
# Out-of-order publication tolerance
# ---------------------------------------------------------------------------


class TestReorderTolerance:
    @given(st.randoms(use_true_random=False))
    @settings(max_examples=30)
    def test_shuffled_feed_matches_in_order_feed(self, rng):
        """Publication order is not seq order (the recorder publishes off
        the critical path); any permutation of a seq-stamped trace must
        certify identically."""
        records = [
            replace(record, seq=i)
            for i, record in enumerate(counter_trace(12, OBJECTS))
        ]
        in_order = certify_records(records, INITIAL)
        shuffled = list(records)
        rng.shuffle(shuffled)
        out_of_order = certify_records(shuffled, INITIAL)
        assert out_of_order.ok == in_order.ok is True
        assert (
            out_of_order.permanent_accesses == in_order.permanent_accesses
        )
        assert out_of_order.stats["retired_tops"] == in_order.stats["retired_tops"]

    def test_shuffled_corrupt_trace_still_flagged(self):
        records = [
            replace(record, seq=i)
            for i, record in enumerate(counter_trace(8, OBJECTS))
        ]
        performs = [i for i, r in enumerate(records) if r.op == PERFORM]
        records[performs[5]] = replace(
            records[performs[5]], seen=records[performs[5]].seen + 2
        )
        reversed_feed = certify_records(list(reversed(records)), INITIAL)
        assert not reversed_feed.ok
        assert any(v.kind == VERSION for v in reversed_feed.violations)


class TestReorderBuffer:
    def test_contiguous_release(self):
        buffer = ReorderBuffer()
        assert buffer.push(1, "b") == []
        assert buffer.push(2, "c") == []
        assert buffer.push(0, "a") == ["a", "b", "c"]
        assert buffer.buffered_high_water == 3  # counted before release

    def test_seqless_items_pass_through(self):
        buffer = ReorderBuffer()
        assert buffer.push(None, "x") == ["x"]
        assert buffer.push(0, "a") == ["a"]

    def test_drain_flushes_gap(self):
        buffer = ReorderBuffer()
        buffer.push(2, "c")
        buffer.push(5, "f")
        assert buffer.drain() == ["c", "f"]
        assert buffer.drain() == []


    def test_in_order_pushes_release_immediately(self):
        buffer = ReorderBuffer()
        for seq in range(5):
            assert buffer.push(seq, seq) == [seq]
        assert len(buffer) == 0
        assert buffer.buffered_high_water == 1
        assert buffer.push(6, 6) == []
        assert buffer.push(5, 5) == [5, 6]


class TestRetirementClock:
    @given(st.lists(st.integers(min_value=0, max_value=3), max_size=60))
    def test_watermark_is_the_minimum_unresolved_begin(self, choices):
        """The O(1) watermark (first entry of the begin-ordered dict)
        equals the minimum begin seq over unresolved keys — what the
        O(live) ``min()`` it replaced computed — under any interleaving
        of begins and resolves."""
        clock = RetirementClock()
        unresolved = {}
        seq = 0
        for choice in choices:
            seq += 1
            if choice == 0 or not unresolved:
                unresolved[seq] = seq
                clock.begin(seq, seq)
            else:
                key = sorted(unresolved)[choice % len(unresolved)]
                del unresolved[key]
                clock.resolve(key, seq)
                clock.retire_ready()
            expected = min(unresolved.values()) if unresolved else None
            assert clock.watermark == expected
            assert clock.live_count() >= len(unresolved)

    def test_seqs_must_not_run_backwards(self):
        clock = RetirementClock()
        clock.begin("a", 5)
        with pytest.raises(ValueError):
            clock.begin("b", 5)
        clock.resolve("a", 7)
        clock.begin("c", 8)
        with pytest.raises(ValueError):
            clock.resolve("c", 6)

    def test_watermark_and_retirement(self):
        clock = RetirementClock()
        clock.begin("a", 0)
        clock.begin("b", 1)
        assert clock.watermark == 0
        clock.resolve("a", 2)
        # b (begun at 1, unresolved) holds the watermark below a's
        # resolution, so a cannot retire yet.
        assert clock.watermark == 1
        assert list(clock.retire_ready()) == []
        clock.begin("c", 3)
        clock.resolve("b", 4)
        assert clock.watermark == 3
        assert list(clock.retire_ready()) == ["a"]
        clock.resolve("c", 5)
        assert clock.watermark is None
        assert list(clock.retire_ready()) == ["b", "c"]
        assert clock.live_count() == 0
        assert clock.retired == 3


# ---------------------------------------------------------------------------
# Live engine wiring
# ---------------------------------------------------------------------------


def run_workload(db, seed=11, programs=30, failure_prob=0.1):
    cfg = WorkloadConfig(
        objects=16,
        theta=0.7,
        shape="mixed",
        ops_per_transaction=6,
        programs=programs,
        seed=seed,
    )
    return execute(
        db,
        WorkloadGenerator(cfg).programs(),
        threads=4,
        failure_prob=failure_prob,
        seed=seed,
    )


class TestLiveEngineWiring:
    @pytest.mark.usefixtures("retired_latch_axis")
    @pytest.mark.parametrize(
        "retired_latch_axis", ["global", "striped"], indirect=True
    )  # explicit so the ids stay seed-first
    @pytest.mark.parametrize("seed", [11, 12])
    def test_live_certifier_agrees_with_oracle(self, seed):
        db = NestedTransactionDB(initial_values(16), config=EngineConfig(certify="streaming"))
        run_workload(db, seed=seed)
        db.assert_certified()  # no violations while live
        streaming = db.certifier.finish()
        offline = check_engine(db)
        assert streaming.ok and offline.ok
        assert streaming.permanent_accesses == offline.permanent_datasteps
        assert streaming.records == len(db.trace.records)
        assert db.trace.listener_errors == 0
        # Quiescent stream: everything drained and retired.
        assert streaming.stats["live_tops"] == 0
        assert streaming.stats["pending_accesses"] == 0

    def test_finish_is_idempotent(self):
        db = NestedTransactionDB(initial_values(16), config=EngineConfig(certify="streaming"))
        run_workload(db, programs=10, failure_prob=0.0)
        first = db.certifier.finish()
        second = db.certifier.finish()
        assert first.ok == second.ok
        assert first.permanent_accesses == second.permanent_accesses

    def test_certify_requires_trace(self):
        with pytest.raises(ValueError, match="record_trace"):
            NestedTransactionDB(initial_values(4), config=EngineConfig(record_trace=False, certify="streaming"))

    def test_unknown_certify_mode_rejected(self):
        with pytest.raises(ValueError, match="streaming"):
            NestedTransactionDB(initial_values(4), config=EngineConfig(certify="offline"))

    def test_assert_certified_requires_certify(self):
        db = NestedTransactionDB(initial_values(4))
        with pytest.raises(ValueError, match="certify"):
            db.assert_certified()

    def test_assert_certified_raises_on_violation(self):
        db = NestedTransactionDB(initial_values(4), config=EngineConfig(certify="streaming"))
        # Inject a corrupt record directly into the trace stream: the
        # listener sees it immediately and the violation is queryable
        # without any finish() call.
        db.trace.record_perform(
            U.child("0"), U.child("0").child("r0"), "obj0000", "read", 77
        )
        db.trace.record_commit(U.child("0"))
        with pytest.raises(StreamingViolation, match="obj0000"):
            db.assert_certified()
        assert not db.certifier.ok

    def test_assert_certified_fails_after_a_listener_raised(self, monkeypatch):
        """A listener that raised saw only part of the stream; before the
        fix the certifier's silence still read as "certified".  The fault
        is injected at the entry the recorder calls: a top-level that
        finishes alone is certified without ``_ingest``."""
        boom = RuntimeError("certifier bug")
        real_feed_rows = StreamingCertifier.feed_rows
        calls = itertools.count()

        def flaky(certifier, rows):
            if next(calls) == 0:
                raise boom
            real_feed_rows(certifier, rows)

        # Patched on the class before the engine subscribes its
        # certifier, so the bound method the recorder holds is this one.
        monkeypatch.setattr(StreamingCertifier, "feed_rows", flaky)
        db = NestedTransactionDB(initial_values(4), config=EngineConfig(certify="streaming"))
        with db.transaction() as txn:
            txn.write("obj0000", 1)
            txn.write("obj0001", 2)
        assert db.certifier.ok  # no violation was ever flagged
        assert db.trace.listener_errors == 1
        with pytest.raises(StreamingViolation, match="listener") as caught:
            db.assert_certified()
        assert caught.value.__cause__ is boom

    def test_assert_certified_fails_after_ingest_raised_on_overlapping_tops(self):
        """The same guard on the general path: two overlapping top-levels
        are merged by the reorder window and ingested row by row, and the
        third row raises."""
        db = NestedTransactionDB(initial_values(4), config=EngineConfig(certify="streaming"))
        boom = RuntimeError("certifier bug")
        real_ingest = db.certifier._ingest
        calls = itertools.count()

        def flaky(row):
            if next(calls) == 2:
                raise boom
            real_ingest(row)

        db.certifier._ingest = flaky
        first, second = db.begin_transaction_batch(2)
        first.write("obj0000", 1)
        second.write("obj0001", 2)
        second.commit()  # held behind the first's rows
        first.commit()
        assert next(calls) == 3  # the third row raised and ended the pass
        assert db.certifier.ok  # no violation was ever flagged
        assert db.trace.listener_errors == 1
        with pytest.raises(StreamingViolation, match="listener") as caught:
            db.assert_certified()
        assert caught.value.__cause__ is boom

    def test_stranded_records_show_in_the_report(self):
        """Records parked behind a seq that never publishes are visible
        as ``reorder_buffered`` (current), not only in the high-water."""
        records = [
            replace(record, seq=i)
            for i, record in enumerate(counter_trace(2, OBJECTS))
        ]
        certifier = StreamingCertifier(INITIAL)
        certifier.feed_many(records[:3] + records[4:])
        stats = certifier.report().stats
        assert stats["reorder_buffered"] == len(records) - 4
        assert certifier.report().records == 3
        assert certifier.finish().stats["reorder_buffered"] == 0

    def test_trace_bus_bridge_stream_certifies(self):
        """The JSONL event stream produced by TraceBusBridge + a file
        sink replays through feed_dict to the same verdict — the CI
        streaming gate's exact path."""
        db = NestedTransactionDB(initial_values(16), config=EngineConfig(certify="streaming"))
        stream = io.StringIO()
        db.events.attach(JsonlFileSink(stream))
        bridge = db.trace.add_listener(TraceBusBridge(db.events))
        run_workload(db)
        live = db.certifier.finish()

        replayed = StreamingCertifier(db.initial_values)
        fed = 0
        for line in stream.getvalue().splitlines():
            event = json.loads(line)
            if event.get("kind") == "trace_record":
                replayed.feed_dict(event["record"])
                fed += 1
        report = replayed.finish()
        assert fed == len(db.trace.records) == bridge.forwarded
        assert report.ok == live.ok is True
        assert report.permanent_accesses == live.permanent_accesses


# ---------------------------------------------------------------------------
# The CLI gate itself
# ---------------------------------------------------------------------------

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CERTIFY_CLI = os.path.join(REPO_ROOT, "scripts", "certify_stream.py")


def run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, CERTIFY_CLI, *args],
        capture_output=True,
        text=True,
        input=stdin,
        timeout=120,
        cwd=REPO_ROOT,
    )


class TestCertifyStreamCLI:
    def _dump(self, tmp_path, records, initial):
        trace = tmp_path / "trace.jsonl"
        from repro.engine.trace import _record_to_json

        trace.write_text(
            "".join(json.dumps(_record_to_json(r)) + "\n" for r in records),
            encoding="utf-8",
        )
        init = tmp_path / "initial.json"
        init.write_text(json.dumps(initial), encoding="utf-8")
        return str(trace), str(init)

    def test_clean_trace_exits_zero(self, tmp_path):
        trace, init = self._dump(tmp_path, counter_trace(10, OBJECTS), INITIAL)
        report_path = str(tmp_path / "verdict.json")
        result = run_cli("--initial", init, "--report", report_path, trace)
        assert result.returncode == 0, result.stderr
        assert "CERTIFIED" in result.stdout
        verdict = json.loads(open(report_path).read())
        assert verdict["ok"] and verdict["input"]["records"] == 40

    def test_violating_trace_exits_one(self, tmp_path):
        records = counter_trace(6, OBJECTS)
        index = next(i for i, r in enumerate(records) if r.op == PERFORM)
        records[index] = replace(records[index], seen=55)
        trace, init = self._dump(tmp_path, records, INITIAL)
        result = run_cli("--initial", init, trace)
        assert result.returncode == 1
        assert "VIOLATION" in result.stdout
        assert VERSION in result.stderr

    def test_garbage_input_exits_two(self):
        result = run_cli("--objects", "4", "-", stdin="definitely not json\n")
        assert result.returncode == 2
