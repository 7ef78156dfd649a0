"""The columnar trace store gives back exactly what was published.

``TraceRecorder`` keeps records as columns and builds a ``TraceRecord``
only on read, so every reader — ``records``, ``dump`` / ``load``, a live
listener — must see records field for field equal to the ones published,
in seq order (``None`` first, ties in publication order), whatever their
shape: engine rows, hand-built records with ``ActionName`` s, no seq, no
access, an access that is not a child of its transaction, values that
are not ints, ops and seqs the columns cannot code.
"""

from __future__ import annotations

import io
import random
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.naming import ActionName
from repro.engine import EngineConfig, NestedTransactionDB, TransactionAborted
from repro.engine.trace import (
    ABORT,
    COMMIT,
    CREATE,
    PERFORM,
    TraceRecord,
    TraceRecorder,
)

atoms = st.one_of(
    st.integers(min_value=0, max_value=50), st.sampled_from(["r0", "w1", "é", "s"])
)
paths = st.lists(atoms, min_size=1, max_size=3).map(tuple)
# JSON-representable values: what dump / load must carry unchanged.
values = st.one_of(
    st.none(),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.text(max_size=4),
    st.booleans(),
    st.lists(st.integers(), max_size=2),
)


def as_given(path, as_name):
    """A path as a record's constructor may take it."""
    return ActionName(path) if as_name else path


@st.composite
def records(draw):
    txn = draw(paths)
    shape = draw(st.sampled_from(["none", "child", "other"]))
    access = {
        "none": None,
        "child": txn + (draw(atoms),),
        "other": draw(paths),
    }[shape]
    return TraceRecord(
        draw(st.sampled_from([CREATE, PERFORM, COMMIT, ABORT, "custom"])),
        as_given(txn, draw(st.booleans())),
        None if access is None else as_given(access, draw(st.booleans())),
        draw(st.one_of(st.none(), st.sampled_from(["x", "y", "ünï"]))),
        draw(st.sampled_from(
            [None, "read", "write", "increment", "snapshot", "custom"]
        )),
        draw(values),
        draw(values),
    )


def seq_ordered(published):
    """What readers must see: seq order, ``None`` as ``-1``, ties in
    publication order."""
    return sorted(published, key=lambda r: -1 if r.seq is None else r.seq)


def round_trip(recorder):
    buffer = io.StringIO()
    recorder.dump(buffer)
    buffer.seek(0)
    return TraceRecorder.load(buffer)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_published_records_come_back_equal_in_seq_order(data):
    drawn = data.draw(st.lists(records(), max_size=12))
    # Distinct seqs, published out of order; some records carry none,
    # and a seq past 64 bits must survive too.
    seqs = data.draw(st.permutations(list(range(len(drawn)))))
    big = data.draw(st.booleans())
    published = []
    for record, seq in zip(drawn, seqs):
        if data.draw(st.integers(0, 5)) == 0:
            seq = None
        elif big and seq == 0:
            seq = 2 ** 64 + 1
        record.seq = seq
        published.append(record)
    heard = []
    recorder = TraceRecorder()
    recorder.add_listener(heard.append)
    rest = list(published)
    while rest:
        size = data.draw(st.integers(1, 3))
        batch, rest = rest[:size], rest[size:]
        if size == 1 and data.draw(st.booleans()):
            recorder.publish(batch[0])
        else:
            recorder.publish_many(batch)
    assert heard == published  # listeners hear each record as published
    expected = seq_ordered(published)
    assert len(recorder) == len(published)
    assert list(recorder.records) == expected
    assert list(recorder.records) == expected  # a second read, sorted
    loaded = round_trip(recorder)
    assert list(loaded.records) == expected
    assert list(round_trip(loaded).records) == expected


def test_non_child_access_keeps_its_path():
    recorder = TraceRecorder()
    hand_built = [
        TraceRecord(PERFORM, (0,), (1, "r0"), "x", "read", 5, None, 0),
        TraceRecord(PERFORM, (0,), (0, 1, "r0"), "x", "read", 5, None, 1),
        TraceRecord(PERFORM, (0,), (0, (1, 2)), "x", "read", 5, None, 2),
        TraceRecord(PERFORM, (0,), (0, "w1"), "x", "write", 5, 6, 3),
    ]
    recorder.publish_many(hand_built)
    assert recorder.records == tuple(hand_built)
    assert [r.access for r in recorder.records] == [
        (1, "r0"), (0, 1, "r0"), (0, (1, 2)), (0, "w1"),
    ]


def test_seqs_outside_the_seq_column_are_kept_whole():
    # -2**63 is the column's code for "no seq"; 2**64 overflows it.
    odd = [
        TraceRecord(CREATE, (0,), seq=-(2 ** 63)),
        TraceRecord(CREATE, (1,), seq=None),
        TraceRecord(CREATE, (2,), seq=7),
        TraceRecord(CREATE, (3,), seq=2 ** 64),
    ]
    recorder = TraceRecorder()
    for record in reversed(odd):
        recorder.publish(record)
    assert recorder.records == tuple(odd)
    assert round_trip(recorder).records == tuple(odd)


def run_script(db, rng, names):
    """A small nested script with reads, writes, increments, a snapshot
    reader and a contained subtransaction abort."""
    top = db.begin_transaction()
    for _ in range(rng.randint(1, 3)):
        child = top.begin_subtransaction()
        obj = rng.choice(names)
        child.write(obj, child.read_for_update(obj) + 1)
        child.increment(rng.choice(names), rng.randint(1, 3))
        if rng.random() < 0.3:
            child.abort()
        else:
            child.commit()
    top.read(rng.choice(names))
    top.commit()
    reader = db.begin_transaction(read_only=True)
    reader.read(rng.choice(names))
    reader.commit()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32), st.booleans())
def test_engine_records_reach_every_reader_alike(seed, threaded):
    names = ["x%d" % i for i in range(6)]
    db = NestedTransactionDB(
        dict.fromkeys(names, 10), config=EngineConfig(record_trace=True)
    )
    heard = []
    lock = threading.Lock()

    def listen(record):
        with lock:
            heard.append(record)

    db.trace.add_listener(listen)

    def worker(index):
        rng = random.Random(seed + index)
        for _ in range(4):
            try:
                run_script(db, rng, names)
            except TransactionAborted:
                pass

    if threaded:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    else:
        worker(0)
    db.assert_quiescent()
    records = db.trace.records
    assert list(records) == seq_ordered(heard)
    assert [r.seq for r in records] == list(range(len(records)))
    for record in records:
        if record.op == PERFORM:
            assert record.access[:-1] == record.txn
            assert record.access[-1][0] in "rwi"
        else:
            assert record.access is None
    assert round_trip(db.trace).records == records


def test_access_labels_past_the_shared_table():
    db = NestedTransactionDB({"x": 0}, config=EngineConfig(record_trace=True))
    txn = db.begin_transaction()
    for _ in range(5000):
        txn.read("x")
    txn.write("x", 1)
    txn.commit()
    labels = [r.access[-1] for r in db.trace.records if r.op == PERFORM]
    assert labels == ["r%d" % i for i in range(5000)] + ["w5000"]
