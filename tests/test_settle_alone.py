"""A top-level that finishes alone is certified in one pass over its rows.

When a top-level's family reaches :meth:`StreamingCertifier.feed_rows`
in turn, whole, while nothing else is in the window, no other top-level
is concurrent with it, and the certifier settles it with one replay of
its permanent accesses instead of queueing each on a per-object FIFO.
These tests pin that the shortcut is invisible: the same stream fed
family by family (one pass when alone) and record by record through
:meth:`~StreamingCertifier.feed` (always the general path) gives the
same report — violations, counters and window statistics — and both
agree with :func:`certify_records` and the offline oracle.  The
deterministic tests below each fail when one part of the one-pass
settle is left out.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checker import (
    FAMILY_CYCLE,
    VERSION,
    RetirementClock,
    StreamingCertifier,
    certify_records,
    check_trace_serializable,
)
from repro.checker import streaming
from repro.engine import EngineConfig, NestedTransactionDB
from repro.engine.trace import _record

OBJECTS = ("a", "b", "c", "d", "e")
#: Left out of the certifier's initial values when a run asks for an
#: object the certifier does not know.
ABSENT = "e"


# ---------------------------------------------------------------------------
# Engine runs, one thread, as families
# ---------------------------------------------------------------------------


def apply(txn, ops):
    for kind, obj in ops:
        if kind == "read":
            txn.read(obj)
        elif kind == "rmw":
            txn.write(obj, txn.read_for_update(obj) + 1)
        else:
            txn.increment(obj, 1)


def run_update(db, top_ops, subs, abort_top):
    """A top-level with its own ops, then children one after another;
    each child may have one grandchild, may fail (abort after its ops)
    and may then be retried by a fresh child that commits."""
    top = db.begin_transaction()
    apply(top, top_ops)
    for ops, fail, retry, grand in subs:
        for attempt in range(2 if fail and retry else 1):
            child = top.begin_subtransaction()
            apply(child, ops)
            if grand is not None:
                grand_ops, grand_fail = grand
                grandchild = child.begin_subtransaction()
                apply(grandchild, grand_ops)
                if grand_fail:
                    grandchild.abort()
                else:
                    grandchild.commit()
            if fail and attempt == 0:
                child.abort()
            else:
                child.commit()
    if abort_top:
        top.abort()
    else:
        top.commit()


def run_snapshot(db, objs):
    reader = db.begin_transaction(read_only=True)
    for obj in objs:
        reader.read(obj)
    reader.commit()


def run_reentered(db, first, second):
    """Two live children of one top, the first re-entered after the
    second's access: the family the one-pass settle leaves to the
    general path."""
    top = db.begin_transaction()
    left, right = top.begin_subtransaction(), top.begin_subtransaction()
    left.read(first)
    right.write(second, right.read_for_update(second) + 1)
    left.write(first, left.read_for_update(first) + 1)
    left.commit()
    right.commit()
    top.commit()


def run_overlapping(db, first, second):
    """Two top-levels on different objects, the later one finishing
    first: their families reach the certifier out of turn."""
    early, late = db.begin_transaction_batch(2)
    early.write(first, early.read_for_update(first) + 1)
    late.write(second, late.read_for_update(second) + 1)
    late.commit()
    early.commit()


RUNNERS = {
    "update": run_update,
    "snapshot": run_snapshot,
    "reentered": run_reentered,
    "overlapping": run_overlapping,
}


def families_of(programs):
    """The families a traced one-thread engine delivers for ``programs``."""
    db = NestedTransactionDB(
        dict.fromkeys(OBJECTS, 0), config=EngineConfig(record_trace=True)
    )
    families = []
    db.trace.add_listener(lambda record: None, rows=families.append)
    for shape, *args in programs:
        RUNNERS[shape](db, *args)
    db.assert_quiescent()
    return [list(family) for family in families]


ops = st.lists(
    st.tuples(st.sampled_from(("read", "rmw", "inc")), st.sampled_from(OBJECTS)),
    min_size=0,
    max_size=3,
)
sub = st.tuples(
    ops.filter(bool),
    st.booleans(),
    st.booleans(),
    st.none() | st.tuples(ops.filter(bool), st.booleans()),
)
two_objects = st.lists(
    st.sampled_from(OBJECTS), min_size=2, max_size=2, unique=True
)
update = st.tuples(
    st.just("update"),
    ops,
    st.lists(sub, min_size=1, max_size=3),
    st.integers(0, 4).map(lambda n: n == 0),  # a fifth abort
)
programs = st.lists(
    st.one_of(
        update,
        update,  # half the programs: the shape the one-pass settle takes
        st.tuples(st.just("snapshot"), two_objects),
        two_objects.map(lambda objs: ("reentered",) + tuple(objs)),
        two_objects.map(lambda objs: ("overlapping",) + tuple(objs)),
    ),
    min_size=1,
    max_size=8,
)


# ---------------------------------------------------------------------------
# Feeding and comparing
# ---------------------------------------------------------------------------


def by_families(families, initial):
    certifier = StreamingCertifier(initial)
    for family in families:
        certifier.feed_rows(family)
    return certifier.finish()


def by_records(families, initial):
    certifier = StreamingCertifier(initial)
    for family in families:
        for row in family:
            certifier.feed(_record(*row))
    return certifier.finish()


def comparable(report, reorder=True):
    """``report.to_dict()`` with its violations as a multiset (the
    general path flags object by object, the one-pass path in seq
    order).  ``reorder=False`` leaves out the reorder window's high
    water: a run held out of turn counts whole, records one by one."""
    data = report.to_dict()
    data["violations"] = Counter(
        json.dumps(v, sort_keys=True) for v in data["violations"]
    )
    if not reorder:
        del data["stats"]["reorder_high_water"]
    return data


def in_turn(families):
    """Whether every family arrives in turn and gapless (so neither side
    ever holds a row back)."""
    expected = 0
    for family in families:
        if [row[7] for row in family] != list(
            range(expected, expected + len(family))
        ):
            return False
        expected += len(family)
    return True


def assert_one_pass_is_invisible(families, initial):
    live = by_families(families, initial)
    general = by_records(families, initial)
    whole = in_turn(families)
    assert comparable(live, whole) == comparable(general, whole)
    records = sorted(
        (_record(*row) for family in families for row in family),
        key=lambda record: record.seq,
    )
    offline = certify_records(records, initial)
    assert comparable(live, reorder=False) == comparable(offline, reorder=False)
    # The oracle has no verdict on a trace naming an unknown object.
    if all(record.obj in initial for record in records if record.obj):
        oracle = check_trace_serializable(records, initial, strict=False)
        assert oracle.ok == live.ok, (live.violations, oracle.failure)
    return live


# ---------------------------------------------------------------------------
# Differential
# ---------------------------------------------------------------------------


@settings(deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs, st.data())
def test_one_pass_matches_the_general_path(script, data):
    families = families_of(script)
    if data.draw(st.booleans(), label="strip commit stamps"):
        families = [
            [
                row[:6] + (None,) + row[7:]
                if row[0] == "commit" and len(row[1]) == 1 else row
                for row in family
            ]
            for family in families
        ]
    tamperable = [
        (f, r)
        for f, family in enumerate(families)
        for r, row in enumerate(family)
        if row[0] == "perform" and row[4] != "increment"
    ]
    if tamperable and data.draw(st.booleans(), label="tamper a seen"):
        f, r = data.draw(st.sampled_from(tamperable), label="tampered row")
        row = families[f][r]
        families[f] = list(families[f])
        families[f][r] = row[:5] + (row[5] + 100,) + row[6:]
    initial = dict.fromkeys(OBJECTS, 0)
    if data.draw(st.booleans(), label="an object absent from initial"):
        del initial[ABSENT]
    assert_one_pass_is_invisible(families, initial)


# ---------------------------------------------------------------------------
# Which path a family takes
# ---------------------------------------------------------------------------


def count_accesses(monkeypatch):
    """Count ``_Access`` constructions from here on."""
    built = Counter()
    real = streaming._Access.__init__

    def counted(self, *args):
        built["accesses"] += 1
        real(self, *args)

    monkeypatch.setattr(streaming._Access, "__init__", counted)
    return built


PLAIN = ("update", [("rmw", "a")], [([("read", "b"), ("rmw", "c")], False, False,
                                     ([("inc", "d")], False))], False)


def test_a_plain_family_builds_no_access(monkeypatch):
    families = families_of([PLAIN, PLAIN, ("update", [], [
        ([("rmw", "a")], True, True, None)], True)])
    built = count_accesses(monkeypatch)
    report = by_families(families, dict.fromkeys(OBJECTS, 0))
    assert report.ok and report.stats["retired_tops"] == 3
    assert built["accesses"] == 0


@pytest.mark.parametrize("program", [
    ("snapshot", ["a", "b"]),
    ("reentered", "a", "b"),
    ("overlapping", "a", "b"),
])
def test_other_families_take_the_general_path(monkeypatch, program):
    families = families_of([PLAIN, program])
    built = count_accesses(monkeypatch)
    assert_one_pass_is_invisible(families, dict.fromkeys(OBJECTS, 0))
    assert built["accesses"] > 0


def test_retire_alone_refuses_a_live_window():
    clock = RetirementClock()
    clock.begin("t", 0)
    with pytest.raises(ValueError):
        clock.retire_alone(1, 2)
    clock.resolve("t", 3)
    assert clock.live_count() == 1  # resolved, not yet retired
    with pytest.raises(ValueError):
        clock.retire_alone(4, 5)
    assert clock.retire_ready() == ["t"]
    clock.retire_alone(4, 5)
    assert clock.retired == 2 and clock.live_count() == 0


# ---------------------------------------------------------------------------
# One test per part of the one-pass settle
# ---------------------------------------------------------------------------


def test_a_misread_in_a_family_alone_is_flagged():
    families = families_of([
        ("update", [("rmw", "a")], [([("read", "a")], False, False, None)],
         False),
        ("update", [("read", "a")], [([("read", "b")], False, False, None)],
         False),
    ])
    reader = families[1]
    index = next(i for i, row in enumerate(reader)
                 if row[0] == "perform" and row[3] == "a")
    row = reader[index]
    assert (row[4], row[5]) == ("read", 1)
    reader[index] = row[:5] + (7,) + row[6:]
    live = assert_one_pass_is_invisible(families, dict.fromkeys(OBJECTS, 0))
    assert [(v.kind, v.seq) for v in live.violations] == [(VERSION, row[7])]
    assert "saw 7, replay of its visible history gives 1" in (
        live.violations[0].message
    )


def test_an_aborted_childs_write_is_not_replayed():
    families = families_of([
        ("update", [], [([("rmw", "a")], True, False, None),
                        ([("rmw", "b")], False, False, ([("rmw", "c")], True))],
         False),
        ("update", [("read", "a"), ("read", "b"), ("read", "c")], [], False),
    ])
    live = assert_one_pass_is_invisible(families, dict.fromkeys(OBJECTS, 0))
    assert live.ok
    assert (live.permanent_accesses, live.dropped_accesses) == (5, 4)


def test_a_snapshot_after_a_family_alone_reads_its_commit():
    families = families_of([
        ("update", [("rmw", "a"), ("inc", "b")], [], False),
        ("update", [], [([("inc", "b")], False, False, None)], False),
        ("snapshot", ["a", "b"]),
    ])
    live = assert_one_pass_is_invisible(families, dict.fromkeys(OBJECTS, 0))
    assert live.ok


def nested_family_cycle_rows():
    """One top whose two committed children write x and y in opposite
    orders: serializable at top level, cyclic inside the family."""
    top, a, b = (0,), (0, "s0"), (0, "s1")
    rows = [
        ("create", top, None, None, None, None, None),
        ("create", a, None, None, None, None, None),
        ("create", b, None, None, None, None, None),
        ("perform", a, "w0", "x", "write", 0, 1),
        ("perform", b, "w0", "x", "write", 1, 2),
        ("perform", b, "w1", "y", "write", 0, 1),
        ("perform", a, "w1", "y", "write", 1, 2),
        ("commit", a, None, None, None, None, None),
        ("commit", b, None, None, None, None, None),
        ("commit", top, None, None, None, None, 1),
    ]
    return [row + (seq,) for seq, row in enumerate(rows)]


def test_a_family_cycle_in_a_family_alone_is_flagged():
    initial = {"x": 0, "y": 0}
    live = by_families([nested_family_cycle_rows()], initial)
    general = by_records([nested_family_cycle_rows()], initial)
    assert comparable(live) == comparable(general)
    assert [v.kind for v in live.violations] == [FAMILY_CYCLE]


def test_a_family_beside_a_live_top_takes_the_general_path():
    """A top-level fed record by record is still live when a later
    family arrives in turn: that family's read queues behind the live
    top's write, and is flagged once the write turns out permanent."""
    writer = [
        ("create", (0,), None, None, None, None, None, 0),
        ("perform", (0,), "w0", "x", "write", 0, 5, 1),
    ]
    reader = [
        ("create", (1,), None, None, None, None, None, 2),
        ("perform", (1,), "r0", "x", "read", 0, None, 3),
        ("commit", (1,), None, None, None, None, 1, 4),
    ]
    commit = ("commit", (0,), None, None, None, None, 2, 5)
    certifier = StreamingCertifier({"x": 0})
    for row in writer:
        certifier.feed(_record(*row))
    certifier.feed_rows(reader)
    certifier.feed(_record(*commit))
    live = certifier.finish()
    general = by_records([writer + reader + [commit]], {"x": 0})
    assert comparable(live) == comparable(general)
    assert [(v.kind, v.seq) for v in live.violations] == [(VERSION, 3)]
