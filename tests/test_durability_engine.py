"""Engine-level durability tests: the WAL/checkpoint/recovery stack wired
into ``NestedTransactionDB`` via the ``durability=`` flag, plus the
injectable retry backoff clock and the atomic trace dump."""

import json
import threading

import pytest

from repro.durability import DurabilityManager
from repro.durability.wal import replay_commits
from repro.engine import EngineConfig, NestedTransactionDB
from repro.engine.errors import TransactionAborted
from repro.engine.recovery import InjectedFailure, retry_subtransaction
from repro.engine.retry import RetryPolicy
from repro.engine.trace import TraceRecorder
from repro.obs import EventBus, MetricsRegistry, RingBufferSink

def make_db(tmp_path, **kwargs):
    manager = DurabilityManager(str(tmp_path / "wal"), **kwargs)
    return NestedTransactionDB({"x": 0, "y": 0}, config=EngineConfig(durability=manager))


def increment(t, obj="x"):
    with t.subtransaction() as s:
        s.write(obj, s.read_for_update(obj) + 1)


# ---------------------------------------------------------------------------
# Persistence across reopen
# ---------------------------------------------------------------------------


@pytest.mark.usefixtures("retired_latch_axis")
def test_commits_survive_reopen(tmp_path):
    db = make_db(tmp_path)
    for _ in range(3):
        db.run_transaction(increment)
    db.run_transaction(lambda t: increment(t, "y"))
    assert db.snapshot() == {"x": 3, "y": 1}
    db.close()

    db = make_db(tmp_path)
    assert db.snapshot() == {"x": 3, "y": 1}
    assert db.initial_values == {"x": 3, "y": 1}  # oracle replays from here
    db.run_transaction(increment)
    assert db.snapshot() == {"x": 4, "y": 1}
    db.close()


@pytest.mark.usefixtures("retired_latch_axis")
def test_aborted_transactions_leave_no_trace_in_wal(tmp_path):
    db = make_db(tmp_path)

    class Boom(Exception):
        pass

    def poison(t):
        # An aborted subtransaction under a committing parent...
        child = t.begin_subtransaction()
        child.write("x", 666)
        child.abort()
        t.write("y", 1)

    def poison_top(t):
        # ...and an aborting top-level transaction.
        t.write("x", 666)
        raise Boom()

    db.run_transaction(poison)
    with pytest.raises(Boom):
        db.run_transaction(poison_top)
    db.close()

    commits, stats = replay_commits(str(tmp_path / "wal"))
    assert [c.writes for c in commits] == [{"y": 1}]
    assert stats.discarded_records == 0

    db = make_db(tmp_path)
    assert db.snapshot() == {"x": 0, "y": 1}
    db.close()


def test_subtransaction_commit_not_in_wal_until_top_commit(tmp_path):
    db = make_db(tmp_path)
    wal = db.durability.wal
    mid_commits = []

    def body(t):
        with t.subtransaction() as s:
            s.write("x", 41)
        # The child has committed (into the parent, in memory) but the
        # top-level transaction has not: nothing may be in the log yet.
        mid_commits.append(wal.appended_commits)
        t.write("x", 42)

    db.run_transaction(body)
    assert mid_commits == [0]
    assert wal.appended_commits == 1
    db.close()
    commits, _stats = replay_commits(str(tmp_path / "wal"))
    assert [c.writes for c in commits] == [{"x": 42}]


def test_read_only_transactions_log_nothing(tmp_path):
    db = make_db(tmp_path)
    db.run_transaction(lambda t: t.read("x"))
    assert db.durability.wal.appended_commits == 0
    db.close()


def test_durability_accepts_a_plain_path(tmp_path):
    db = NestedTransactionDB({"x": 0}, config=EngineConfig(durability=str(tmp_path / "wal")))
    assert isinstance(db.durability, DurabilityManager)
    db.run_transaction(increment)
    db.close()
    db = NestedTransactionDB({"x": 0}, config=EngineConfig(durability=str(tmp_path / "wal")))
    assert db.snapshot() == {"x": 1}
    db.close()


@pytest.mark.usefixtures("retired_latch_axis")
def test_concurrent_durable_commits(tmp_path):
    db = make_db(tmp_path, sync_policy="group", group_window=0.001)
    per_thread = 10

    def worker():
        for _ in range(per_thread):
            db.run_transaction(increment)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert db.snapshot()["x"] == 4 * per_thread
    db.close()

    db = make_db(tmp_path)
    assert db.snapshot()["x"] == 4 * per_thread
    db.close()


# ---------------------------------------------------------------------------
# Checkpoints through the engine
# ---------------------------------------------------------------------------


def test_explicit_checkpoint_truncates_and_recovers(tmp_path):
    db = make_db(tmp_path, segment_max_bytes=1)
    for _ in range(5):
        db.run_transaction(increment)
    data = db.checkpoint()
    assert data is not None and data.values["x"] == 5
    db.run_transaction(increment)
    db.close()

    db = make_db(tmp_path)
    recovery = db.durability.last_recovery
    assert db.snapshot()["x"] == 6
    assert recovery.checkpoint_seq == data.seq
    assert recovery.commits_replayed == 1  # only the post-checkpoint commit
    db.close()


def test_auto_checkpoint_every_n_commits(tmp_path):
    db = make_db(tmp_path, checkpoint_interval=2)
    for _ in range(5):
        db.run_transaction(increment)
    assert db.durability.checkpointer.latest().seq >= 2
    db.close()
    db = make_db(tmp_path)
    assert db.snapshot()["x"] == 5
    db.close()


def test_checkpoint_without_durability_rejected():
    db = NestedTransactionDB({"x": 0})
    with pytest.raises(ValueError):
        db.checkpoint()


# ---------------------------------------------------------------------------
# Observability wiring
# ---------------------------------------------------------------------------


def test_wal_metrics_and_events(tmp_path):
    metrics = MetricsRegistry()
    sink = RingBufferSink()
    events = EventBus()
    events.attach(sink)
    manager = DurabilityManager(str(tmp_path / "wal"), checkpoint_interval=2)
    db = NestedTransactionDB({"x": 0}, config=EngineConfig(durability=manager, metrics=metrics, events=events))
    for _ in range(3):
        db.run_transaction(increment)
    db.close()

    snap = metrics.snapshot()
    assert snap["counters"]["wal_commits_total"] == 3
    assert snap["counters"]["wal_syncs_total"] >= 1
    assert snap["counters"]["checkpoints_total"] >= 1
    assert snap["gauges"]["wal_durable_lsn"] > 0
    assert snap["histograms"]["wal_sync_seconds"]["count"] >= 1

    assert len(sink.of_kind("recovery_completed")) == 1
    logged = sink.of_kind("wal_commit_logged")
    assert [e.objects for e in logged] == [1, 1, 1]  # one object per batch
    assert sink.of_kind("wal_synced")
    taken = sink.of_kind("checkpoint_taken")
    assert taken and taken[0].seq == 1


def commit_one(db):
    txn = db.begin_transaction()
    txn.write("x", 1)
    txn.commit()


def commit_one_batched(db):
    (txn,) = db.begin_transaction_batch(1)
    assert db.try_perform_batch([(txn, "write", "x", 1)]) == [("done", None)]
    assert db.commit_batch([txn]) == [("done", None)]


@pytest.mark.parametrize("commit", [commit_one, commit_one_batched])
def test_sinks_hear_of_a_commit_only_once_it_is_durable(tmp_path, commit):
    """Both commit paths deliver ``txn_committed`` after the fsync that
    covers it, so a sink that acts on it never acts on a commit a crash
    could still lose."""
    manager = DurabilityManager(str(tmp_path / "wal"), fsync_fn=lambda fd: None)
    db = NestedTransactionDB({"x": 0}, config=EngineConfig(durability=manager))
    sink = db.events.attach(RingBufferSink())
    commit(db)
    assert [event.kind for event in sink.events] == [
        "txn_begun",
        "wal_commit_logged",
        "wal_synced",
        "txn_committed",
        "lock_inherited",
    ]
    db.assert_quiescent()
    db.close()


def test_recovery_event_reports_replay(tmp_path):
    db = make_db(tmp_path)
    db.run_transaction(increment)
    db.close()

    sink = RingBufferSink()
    events = EventBus()
    events.attach(sink)
    manager = DurabilityManager(str(tmp_path / "wal"))
    db = NestedTransactionDB({"x": 0}, config=EngineConfig(durability=manager, events=events))
    db.close()
    (event,) = sink.of_kind("recovery_completed")
    assert event.commits_replayed == 1
    assert event.clean


# ---------------------------------------------------------------------------
# Satellite: injectable backoff clock
# ---------------------------------------------------------------------------


def test_run_transaction_backoff_uses_injected_clock():
    db = NestedTransactionDB({"x": 0})
    sleeps = []
    attempts = []

    def flaky(t):
        attempts.append(1)
        if len(attempts) < 3:
            raise TransactionAborted("try again")
        t.write("x", len(attempts))

    db.run_transaction(
        flaky,
        policy=RetryPolicy(max_retries=5, backoff=0.25),
        sleep_fn=sleeps.append,
    )
    assert db.snapshot() == {"x": 3}
    assert sleeps == [0.25, 0.5]  # linear backoff, no wall-clock waits


def test_retry_subtransaction_backoff_uses_injected_clock():
    db = NestedTransactionDB({"x": 0})
    sleeps = []
    calls = []

    def body(t):
        def child_fn(child):
            calls.append(1)
            if len(calls) < 3:
                raise InjectedFailure("flaky")
            child.write("x", 7)

        retry_subtransaction(
            t,
            child_fn,
            policy=RetryPolicy(max_retries=4, backoff=0.1),
            sleep_fn=sleeps.append,
        )

    db.run_transaction(body)
    assert db.snapshot() == {"x": 7}
    assert sleeps == [0.1, 0.2]


# ---------------------------------------------------------------------------
# Satellite: atomic trace dump
# ---------------------------------------------------------------------------


def test_trace_dump_is_atomic(tmp_path):
    db = NestedTransactionDB({"x": 0})
    db.run_transaction(increment)
    path = str(tmp_path / "trace.jsonl")
    db.trace.dump(path)
    loaded = TraceRecorder.load(path)
    assert len(loaded) == len(db.trace)
    assert not [n for n in tmp_path.iterdir() if n.name.endswith(".tmp")]

    # A failing dump must leave the previous file untouched (and clean up
    # its temp file) — never a torn trace.
    with open(path, encoding="utf-8") as fh:
        before = fh.read()
    bad = TraceRecorder()
    bad.record_perform(
        db.trace.records[0].txn,
        db.trace.records[0].txn,
        "x",
        "write",
        seen=object(),  # not JSON-serializable
    )
    with pytest.raises(TypeError):
        bad.dump(path)
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == before
    assert not [n for n in tmp_path.iterdir() if n.name.endswith(".tmp")]
    assert json.loads(before.splitlines()[0])["op"] == "create"
