"""Where a trace record's path becomes the paper's name.

Trace records carry path tuples; an ``ActionName`` is rendered only
where someone reads one.  These tests pin the observable boundary: the
JSONL dump of a seeded script is byte-identical to a golden file
committed under ``tests/data/``, the loaded trace gets the same offline
and streaming verdicts, and violations still name actions.

Regenerate the golden file (only when the trace format is meant to
change) with::

    PYTHONPATH=src:tests python -c "import test_trace_boundary as t; t.write_golden()"
"""

from __future__ import annotations

import io
import os
import random

from repro.checker import (
    CYCLE,
    FAMILY_CYCLE,
    VERSION,
    certify_records,
    check_trace_serializable,
)
from repro.checker.streaming import Violation
from repro.core import ActionName, U
from repro.engine import EngineConfig, NestedTransactionDB, TraceRecord, TraceRecorder
from repro.engine.trace import COMMIT, CREATE, PERFORM

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_trace.jsonl")
OBJECTS = ["x%d" % i for i in range(6)] + ["café"]


def seeded_script(seed: int = 7) -> NestedTransactionDB:
    """A deterministic single-client run touching every record shape:
    nested commits and aborts three levels deep, write-intent reads,
    blind increments, an aborted top-level and snapshot readers."""
    rng = random.Random(seed)
    db = NestedTransactionDB(
        {obj: 10 for obj in OBJECTS}, config=EngineConfig(record_trace=True)
    )
    for round_ in range(12):
        if round_ % 5 == 4:
            with db.transaction(read_only=True) as snapshot:
                for obj in rng.sample(OBJECTS, 2):
                    snapshot.read(obj)
            continue
        top = db.begin_transaction()
        top.read(rng.choice(OBJECTS))
        for _ in range(3):
            child = top.begin_subtransaction()
            a, b = rng.sample(OBJECTS, 2)
            child.write(a, child.read_for_update(a) - 1)
            child.increment(b, rng.randint(1, 3))
            grandchild = child.begin_subtransaction()
            grandchild.read(a)
            grandchild.write(a, rng.randint(0, 99))
            if rng.random() < 0.3:
                grandchild.abort()
            else:
                grandchild.commit()
            if rng.random() < 0.25:
                child.abort()
            else:
                child.commit()
        if rng.random() < 0.2:
            top.abort()
        else:
            top.commit()
    return db


def dumped(recorder: TraceRecorder) -> str:
    buffer = io.StringIO()
    recorder.dump(buffer)
    return buffer.getvalue()


def write_golden() -> None:
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumped(seeded_script().trace))


def read_golden() -> str:
    with open(GOLDEN, encoding="utf-8", newline="\n") as fh:
        return fh.read()


def test_dump_is_byte_identical_to_golden():
    assert dumped(seeded_script().trace) == read_golden()


def test_golden_loads_back_with_unchanged_verdicts():
    db = seeded_script()
    loaded = TraceRecorder.load(io.StringIO(read_golden()))
    assert loaded.records == db.trace.records
    assert dumped(loaded) == read_golden()
    offline = check_trace_serializable(loaded.records, db.initial_values)
    assert (offline.ok, offline.datasteps, offline.permanent_datasteps,
            offline.edges) == (True, 160, 71, 82)
    streaming = certify_records(loaded.records, db.initial_values)
    assert streaming.ok
    assert (streaming.records, streaming.permanent_accesses,
            streaming.dropped_accesses) == (308, 75, 89)


def test_records_carry_paths_and_accept_names():
    db = seeded_script()
    perform = next(r for r in db.trace.records if r.op == PERFORM)
    assert type(perform.txn) is tuple and type(perform.access) is tuple
    assert perform.access[:-1] == perform.txn
    named = TraceRecord(PERFORM, ActionName.make(perform.txn),
                        ActionName.make(perform.access), perform.obj,
                        perform.kind, perform.seen, perform.arg, perform.seq)
    assert named == perform and hash(named) == hash(perform)


def _version_violation() -> Violation:
    t1 = U.child(0)
    records = [
        TraceRecord(CREATE, t1),
        TraceRecord(PERFORM, t1, t1.child("r0"), "x", "read", 5),
        TraceRecord(COMMIT, t1),
    ]
    (violation,) = certify_records(records, {"x": 0}).violations
    return violation


def _cycle_violation() -> Violation:
    # One object, so the edge order does not depend on set iteration.
    t1, t2 = U.child(1), U.child(2)
    records = [
        TraceRecord(CREATE, t1),
        TraceRecord(CREATE, t2),
        TraceRecord(PERFORM, t1, t1.child("r0"), "y", "read", 0),
        TraceRecord(PERFORM, t2, t2.child("w0"), "y", "write", 0, 1),
        TraceRecord(PERFORM, t1, t1.child("w1"), "y", "write", 1, 2),
        TraceRecord(COMMIT, t1),
        TraceRecord(COMMIT, t2),
    ]
    (violation,) = certify_records(records, {"y": 0}).violations
    return violation


def _family_violation() -> Violation:
    top = U.child("0")
    p, q = top.child("p"), top.child("q")
    records = [
        TraceRecord(CREATE, top),
        TraceRecord(CREATE, p),
        TraceRecord(CREATE, q),
        TraceRecord(PERFORM, p, p.child("w0"), "x", "write", 0, 1),
        TraceRecord(PERFORM, q, q.child("w0"), "x", "write", 1, 2),
        TraceRecord(PERFORM, q, q.child("w1"), "y", "write", 0, 1),
        TraceRecord(PERFORM, p, p.child("w1"), "y", "write", 1, 2),
        TraceRecord(COMMIT, p),
        TraceRecord(COMMIT, q),
        TraceRecord(COMMIT, top),
    ]
    (violation,) = certify_records(records, {"x": 0, "y": 0}).violations
    return violation


def test_violations_name_actions():
    for violation in (_version_violation(), _cycle_violation(),
                      _family_violation()):
        assert violation.txns and violation.accesses
        for name in violation.txns + violation.accesses:
            assert isinstance(name, ActionName)


def test_violation_dicts_unchanged():
    assert _version_violation().to_dict() == {
        "kind": VERSION,
        "message": "data step <0/r0> on 'x' saw 5, replay of its visible "
                   "history gives 0",
        "seq": None,
        "obj": "x",
        "txns": [[0]],
        "accesses": [[0, "r0"]],
    }
    assert _cycle_violation().to_dict() == {
        "kind": CYCLE,
        "message": "conflict sibling precedence has a cycle: "
                   "['<2>', '<1>', '<2>']",
        "seq": None,
        "obj": "y",
        "txns": [[2], [1], [2]],
        "accesses": [[2, "w0"], [1, "w1"]],
    }
    assert _family_violation().to_dict() == {
        "kind": FAMILY_CYCLE,
        "message": "sibling precedence inside <0> has a cycle under <0>: "
                   "['<0/p>', '<0/q>']",
        "seq": 9,
        "obj": None,
        "txns": [["0", "p"], ["0", "q"]],
        "accesses": [["0", "p", "w0"], ["0", "q", "w0"],
                     ["0", "q", "w1"], ["0", "p", "w1"]],
    }
