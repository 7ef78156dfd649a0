"""The serve layer: asyncio sessions over the batch submitter.

Covers the reactor-vs-CPU-pool contract end to end — async sessions
multiplexed over a small worker pool, batched begins/ops/commits,
compound-op expansion, blocked ops parked on the engine's wait queue
(woken by the release, LockTimeout at the deadline), error containment
in futures, and graceful degradation for backends without the batch
entry points.
"""

from __future__ import annotations

import asyncio
import random
import sys
import threading
import time

import pytest

from repro.engine import EngineConfig, NestedTransactionDB
from repro.engine.errors import LockTimeout, TransactionAborted
from repro.obs import MetricsRegistry
from repro.serve import AsyncFrontend, BatchSubmitter

# The byte-identical ``[striped]`` rerun of these tests is retired; the
# surviving ``[global]`` id is the one the suite's floor list pins.
PINNED_GLOBAL = pytest.mark.parametrize(
    "retired_latch_axis", ["global"], indirect=True
)


def make_db(**kwargs):
    return NestedTransactionDB(
        {"x": 0, "y": 0, "z": 0}, config=EngineConfig(**kwargs)
    )


def run(coro):
    return asyncio.run(coro)


# -- async sessions ----------------------------------------------------------


@pytest.mark.usefixtures("retired_latch_axis")
@PINNED_GLOBAL
def test_session_context_manager_commits():
    db = make_db()

    async def main():
        async with AsyncFrontend(db, workers=2) as frontend:
            async with frontend.session() as s:
                await s.write("x", 7)
                await s.increment("y", 3)
                assert await s.read("x") == 7

    run(main())
    assert db.read_committed("x") == 7
    assert db.read_committed("y") == 3
    db.assert_quiescent()


@pytest.mark.usefixtures("retired_latch_axis")
@PINNED_GLOBAL
def test_session_aborts_on_error():
    db = make_db()

    async def main():
        async with AsyncFrontend(db, workers=2) as frontend:
            with pytest.raises(RuntimeError, match="boom"):
                async with frontend.session() as s:
                    await s.write("x", 99)
                    raise RuntimeError("boom")

    run(main())
    assert db.read_committed("x") == 0
    db.assert_quiescent()


def test_session_requires_begin():
    db = make_db()

    async def main():
        async with AsyncFrontend(db, workers=1) as frontend:
            s = frontend.session()
            with pytest.raises(RuntimeError, match="no active transaction"):
                await s.read("x")
            await s.begin()
            with pytest.raises(RuntimeError, match="already began"):
                await s.begin()
            await s.abort()
            await s.abort()  # idempotent after the transaction is gone

    run(main())


@pytest.mark.usefixtures("retired_latch_axis")
@PINNED_GLOBAL
def test_many_concurrent_sessions():
    db = make_db()
    sessions = 200

    async def one(frontend, i):
        async def body(s):
            await s.increment("x", 1)
            return await s.read("y")

        return await frontend.run_session(body)

    async def main():
        async with AsyncFrontend(db, workers=2, max_batch=32) as frontend:
            await asyncio.gather(
                *[one(frontend, i) for i in range(sessions)]
            )

    run(main())
    assert db.read_committed("x") == sessions
    db.assert_quiescent()


def test_run_session_retries_aborts():
    db = make_db()
    attempts = []

    async def body(s):
        attempts.append(1)
        if len(attempts) == 1:
            raise TransactionAborted(s.txn.name, "injected")
        await s.write("x", 42)

    async def main():
        async with AsyncFrontend(db, workers=1) as frontend:
            await frontend.run_session(body, backoff=0.0001)

    run(main())
    assert len(attempts) == 2
    assert db.read_committed("x") == 42


def test_run_session_gives_up_after_max_retries():
    db = make_db()

    async def body(s):
        raise TransactionAborted(s.txn.name, "always")

    async def main():
        async with AsyncFrontend(db, workers=1) as frontend:
            with pytest.raises(TransactionAborted):
                await frontend.run_session(body, max_retries=2, backoff=0)

    run(main())
    db.assert_quiescent()


@pytest.mark.usefixtures("retired_latch_axis")
@PINNED_GLOBAL
def test_rmw_and_single_mode_increment_expand():
    # rmw always expands to read_for_update + write through the queue;
    # increment degenerates the same way on a single-mode engine.
    db = make_db(single_mode=True)

    async def main():
        async with AsyncFrontend(db, workers=2) as frontend:
            async with frontend.session() as s:
                assert await s.rmw("x", 5) == 5
                await s.increment("x", 2)
            async with frontend.session() as s:
                assert await s.rmw("x", -3) == 4

    run(main())
    assert db.read_committed("x") == 4
    db.assert_quiescent()


def test_read_only_session():
    db = make_db()

    async def main():
        async with AsyncFrontend(db, workers=1) as frontend:
            async with frontend.session(read_only=True) as s:
                assert await s.read("x") == 0

    run(main())


async def _fail_via_run_session(frontend):
    await frontend.run_session(lambda s: s.write("x", {1, 2}))


async def _fail_via_context_manager(frontend):
    async with frontend.session() as s:
        await s.write("x", {1, 2})


async def _fail_via_bare_commit(frontend):
    s = await frontend.session().begin()
    await s.write("x", {1, 2})
    try:
        await s.commit()
    finally:
        await s.abort()


@pytest.mark.parametrize(
    "drive",
    [_fail_via_run_session, _fail_via_context_manager, _fail_via_bare_commit],
    ids=["run_session", "context_manager", "bare_commit_then_abort"],
)
def test_failed_commit_releases_the_transaction(tmp_path, drive):
    # The WAL rejects a set (not JSON) and leaves the transaction ACTIVE
    # for its owner to abort; the session must still hold the handle.
    db = NestedTransactionDB(
        {"x": 0},
        config=EngineConfig(durability=str(tmp_path), lock_timeout=0.5),
    )

    async def main():
        async with AsyncFrontend(db, workers=2) as frontend:
            with pytest.raises(TypeError):
                await drive(frontend)
            db.assert_quiescent()
            # A fresh writer of the same object commits first try.
            await frontend.run_session(
                lambda s: s.write("x", 1), max_retries=0
            )

    run(main())
    assert db.read_committed("x") == 1
    db.assert_quiescent()
    db.close()


def test_ten_thousand_held_sessions_commit_certified():
    # 10k session coroutines alive at once behind a 256-wide admission
    # window: the event loop holds the fleet, the batch path batches and
    # the streaming certifier follows the whole served trace.
    sessions = 10_000
    n_obj = 4 * sessions
    db = NestedTransactionDB(
        {"o%d" % i: 0 for i in range(n_obj)},
        config=EngineConfig(certify="streaming"),
    )
    registry = MetricsRegistry(enabled=True)
    rng = random.Random(15)
    targets = [
        ["o%d" % rng.randrange(n_obj) for _ in range(3)]
        for _ in range(sessions)
    ]

    async def one(frontend, admission, objs):
        async def body(s):
            await s.increment(objs[0], 1)
            await s.increment(objs[1], 1)
            return await s.read(objs[2])

        async with admission:
            await frontend.run_session(body)

    async def main():
        admission = asyncio.Semaphore(256)
        async with AsyncFrontend(
            db, workers=2, max_batch=128, metrics=registry
        ) as frontend:
            results = await asyncio.gather(
                *[one(frontend, admission, objs) for objs in targets],
                return_exceptions=True,
            )
        assert [r for r in results if r is not None] == []

    run(main())
    assert db.stats.committed == sessions
    assert sum(db.snapshot().values()) == 2 * sessions
    db.assert_certified()
    db.assert_quiescent()
    counters = registry.snapshot()["counters"]
    assert counters["serve_batches_total"] < counters["serve_ops_total"]


def test_results_reach_the_loop_in_bursts():
    # Workers land results in the loop's outbox and only the one that
    # finds it empty wakes the loop, so 512 concurrent sessions cost far
    # fewer wake-ups than the results they await.  More workers than
    # cores and a short switch interval stress the hand-off: a result
    # lost between a post and the drain would hang a session.
    sessions = 512
    db = NestedTransactionDB(
        {"o%d" % i: 0 for i in range(sessions)}, config=EngineConfig()
    )
    registry = MetricsRegistry(enabled=True)

    async def main():
        async with AsyncFrontend(db, workers=4, metrics=registry) as frontend:
            async def one(i):
                async with frontend.session() as s:
                    await s.increment("o%d" % i, 1)

            await asyncio.wait_for(
                asyncio.gather(*[one(i) for i in range(sessions)]), 60
            )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        run(main())
    finally:
        sys.setswitchinterval(interval)
    assert sum(db.snapshot().values()) == sessions
    db.assert_quiescent()
    wakeups = registry.snapshot()["counters"]["serve_loop_wakeups_total"]
    # Each session awaited three results: its begin, op and commit.
    assert 0 < wakeups < 3 * sessions


def test_session_cancelled_during_begin_leaks_no_transaction():
    db = make_db()

    async def main():
        frontend = AsyncFrontend(db, workers=1)
        task = asyncio.ensure_future(frontend.session().begin())
        await asyncio.sleep(0)  # the begin is submitted; cancel it in flight
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task
        await frontend.aclose()

    run(main())
    # Nobody holds the transaction that begin made: it was aborted.
    db.assert_quiescent()


# -- the submitter's park/retry path ----------------------------------------


@pytest.mark.usefixtures("retired_latch_axis")
@PINNED_GLOBAL
def test_blocked_op_parks_then_wakes_on_commit():
    db = make_db()
    sub = BatchSubmitter(db, workers=2, max_batch=16)
    try:
        holder = sub.submit_begin().result(timeout=5)
        sub.submit_op(holder, "read_for_update", "x").result(timeout=5)
        waiter = sub.submit_begin().result(timeout=5)
        blocked = sub.submit_op(waiter, "read_for_update", "x")
        # The conflicting request must park, not resolve and not consume
        # a worker thread (both workers stay free to run the commit).
        with pytest.raises(Exception):
            blocked.result(timeout=0.2)
        sub.submit_op(holder, "write", "x", 10).result(timeout=5)
        sub.submit_commit(holder).result(timeout=5)
        # The commit's targeted flush re-submits the parked op.
        assert blocked.result(timeout=5) == 10
        sub.submit_commit(waiter).result(timeout=5)
    finally:
        sub.close(timeout=5)
    db.assert_quiescent()


def test_blocked_op_wakes_on_abort():
    db = make_db()
    sub = BatchSubmitter(db, workers=2)
    try:
        holder = sub.submit_begin().result(timeout=5)
        sub.submit_op(holder, "write", "x", 5).result(timeout=5)
        waiter = sub.submit_begin().result(timeout=5)
        blocked = sub.submit_op(waiter, "read", "x")
        sub.submit_abort(holder).result(timeout=5)
        assert blocked.result(timeout=5) == 0  # aborted write rolled back
        sub.submit_commit(waiter).result(timeout=5)
    finally:
        sub.close(timeout=5)


def test_parked_op_times_out_with_lock_timeout():
    db = make_db(lock_timeout=0.3, detect_deadlocks=False)
    sub = BatchSubmitter(db, workers=2)
    try:
        holder = sub.submit_begin().result(timeout=5)
        sub.submit_op(holder, "write", "x", 1).result(timeout=5)
        waiter = sub.submit_begin().result(timeout=5)
        blocked = sub.submit_op(waiter, "read", "x")
        with pytest.raises(LockTimeout):
            blocked.result(timeout=5)
        # The timed-out waiter's waits-for edges were withdrawn — the
        # graph must not remember a request nobody is waiting on.
        assert not db._waits.has_waits(waiter.name)
        sub.submit_abort(waiter).result(timeout=5)
        sub.submit_commit(holder).result(timeout=5)
    finally:
        sub.close(timeout=5)


def test_parked_op_costs_nothing_until_its_lock_moves():
    """No retry tick: a blocked op is attempted once, then sits on the
    engine's wait queue until the release itself wakes it — here a commit
    through the *blocking* API, which never passes through the submitter."""
    registry = MetricsRegistry(enabled=True)
    db = make_db()
    sub = BatchSubmitter(db, workers=2, metrics=registry)

    def batches():
        return registry.snapshot()["counters"]["serve_batches_total"]

    try:
        holder = db.begin_transaction()
        holder.write("x", 7)
        waiter = sub.submit_begin().result(timeout=5)
        blocked = sub.submit_op(waiter, "read", "x")
        deadline = time.monotonic() + 5
        while not sub.parked_depth:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        batches_when_parked = batches()
        time.sleep(0.3)
        assert not blocked.done()
        assert db.stats.lock_waits == 1
        assert batches() == batches_when_parked
        holder.commit()
        assert blocked.result(timeout=5) == 7
        assert db.stats.lock_waits == 1
        assert batches() == batches_when_parked + 1
        sub.submit_commit(waiter).result(timeout=5)
    finally:
        sub.close(timeout=5)
    assert registry.snapshot()["counters"]["serve_parked_total"] == 1
    db.assert_quiescent()


def test_deadlock_between_submitted_sessions_names_a_victim():
    db = make_db()
    sub = BatchSubmitter(db, workers=2)
    try:
        t1 = sub.submit_begin().result(timeout=5)
        t2 = sub.submit_begin().result(timeout=5)
        sub.submit_op(t1, "write", "x", 1).result(timeout=5)
        sub.submit_op(t2, "write", "y", 2).result(timeout=5)
        crossing_1 = sub.submit_op(t1, "read", "y")
        crossing_2 = sub.submit_op(t2, "read", "x")
        # One of the two must die as the deadlock victim; the other's
        # request then grants off the victim's released locks.
        results = []
        for future, txn in ((crossing_1, t1), (crossing_2, t2)):
            try:
                results.append(("ok", future.result(timeout=10), txn))
            except TransactionAborted:
                results.append(("aborted", None, txn))
        outcomes = sorted(status for status, _, _ in results)
        assert outcomes == ["aborted", "ok"]
        for status, _, txn in results:
            if status == "ok":
                sub.submit_commit(txn).result(timeout=5)
            else:
                sub.submit_abort(txn).result(timeout=5)
    finally:
        sub.close(timeout=5)
    db.assert_quiescent()


# -- submitter mechanics -----------------------------------------------------


def test_close_rejects_new_submissions():
    db = make_db()
    sub = BatchSubmitter(db, workers=1)
    sub.close(timeout=5)
    with pytest.raises(RuntimeError, match="closed"):
        sub.submit_begin()
    sub.close(timeout=5)  # idempotent


def test_submitter_validates_arguments():
    db = make_db()
    with pytest.raises(ValueError):
        BatchSubmitter(db, workers=0)
    with pytest.raises(ValueError):
        BatchSubmitter(db, workers=1, max_batch=0)
    sub = BatchSubmitter(db, workers=1)
    try:
        txn = sub.submit_begin().result(timeout=5)
        with pytest.raises(ValueError, match="unknown op kind"):
            sub.submit_op(txn, "frobnicate", "x")
        sub.submit_abort(txn).result(timeout=5)
    finally:
        sub.close(timeout=5)


def test_batch_metrics_recorded():
    db = make_db()
    registry = MetricsRegistry(enabled=True)

    async def main():
        async with AsyncFrontend(db, workers=2, metrics=registry) as frontend:
            async def body(s):
                await s.increment("x", 1)

            await asyncio.gather(
                *[frontend.run_session(body) for _ in range(50)]
            )

    run(main())
    snap = registry.snapshot()
    assert snap["counters"]["serve_ops_total"] >= 50
    assert snap["counters"]["serve_commits_total"] >= 50
    assert snap["counters"]["serve_batches_total"] > 0
    # Batching amortizes: strictly fewer latch crossings than operations.
    assert (
        snap["counters"]["serve_batches_total"]
        < snap["counters"]["serve_ops_total"]
        + snap["counters"]["serve_commits_total"]
    )
    assert snap["histograms"]["serve_batch_size"]["count"] > 0
    assert snap["histograms"]["serve_commit_batch_size"]["count"] > 0
    assert snap["histograms"]["serve_session_commit_seconds"]["count"] == 50


def test_errors_stay_contained_in_their_future():
    db = make_db()
    sub = BatchSubmitter(db, workers=1)
    try:
        txn = sub.submit_begin().result(timeout=5)
        sub.submit_abort(txn).result(timeout=5)
        # Operating on an aborted transaction errors — in its own future,
        # without poisoning the worker or neighbouring items.
        bad = sub.submit_op(txn, "write", "x", 1)
        good = sub.submit_begin()
        with pytest.raises(TransactionAborted):
            bad.result(timeout=5)
        other = good.result(timeout=5)
        sub.submit_op(other, "write", "y", 3).result(timeout=5)
        sub.submit_commit(other).result(timeout=5)
    finally:
        sub.close(timeout=5)
    assert db.read_committed("y") == 3


def test_cancelled_future_does_not_poison_its_batch(monkeypatch):
    # Five commits queue into one chunk behind a worker held inside a
    # first commit_batch, and the first of them is cancelled.  All five
    # still commit; the other four must report it, not the refusal of
    # the cancelled future (a client retrying on error would apply its
    # writes twice).
    db = NestedTransactionDB(
        {"o%d" % i: 0 for i in range(6)}, config=EngineConfig()
    )
    entered = threading.Event()
    release = threading.Event()
    commit_batch = db.commit_batch

    def held_first(txns):
        if not entered.is_set():
            entered.set()
            assert release.wait(timeout=10)
        return commit_batch(txns)

    monkeypatch.setattr(db, "commit_batch", held_first)
    sub = BatchSubmitter(db, workers=1)
    try:
        txns = [sub.submit_begin().result(timeout=5) for _ in range(6)]
        for i, txn in enumerate(txns):
            sub.submit_op(txn, "write", "o%d" % i, 1).result(timeout=5)
        first = sub.submit_commit(txns[0])
        assert entered.wait(timeout=5)
        queued = [sub.submit_commit(txn) for txn in txns[1:]]
        assert queued[0].cancel()
        release.set()
        assert first.result(timeout=5) is None
        for future in queued[1:]:
            assert future.result(timeout=5) is None
    finally:
        release.set()
        sub.close(timeout=5)
    assert [db.read_committed("o%d" % i) for i in range(6)] == [1] * 6
    db.assert_quiescent()


class _PlainBackend:
    """A minimal non-batched backend (the cluster coordinator surface):
    ``begin()`` plus per-op methods, no batch entry points."""

    def __init__(self):
        self.db = NestedTransactionDB({"x": 0}, config=EngineConfig())
        self.rmw_calls = 0

    def begin(self):
        backend = self

        class _Txn:
            def __init__(self):
                self.txn = backend.db.begin_transaction()

            def read(self, obj):
                return self.txn.read(obj)

            def read_for_update(self, obj):
                return self.txn.read_for_update(obj)

            def write(self, obj, value):
                return self.txn.write(obj, value)

            def increment(self, obj, delta):
                return self.txn.increment(obj, delta)

            def rmw(self, obj, delta):
                backend.rmw_calls += 1
                value = self.txn.read_for_update(obj) + delta
                self.txn.write(obj, value)
                return value

            def commit(self):
                return self.txn.commit()

            def abort(self):
                return self.txn.abort()

        return _Txn()


def test_unbatched_backend_degrades_to_per_op():
    backend = _PlainBackend()

    async def main():
        async with AsyncFrontend(backend, workers=2) as frontend:
            async with frontend.session() as s:
                await s.write("x", 1)
                assert await s.rmw("x", 4) == 5

    run(main())
    assert backend.rmw_calls == 1  # native rmw used, no expansion
    assert backend.db.read_committed("x") == 5


# -- engine batch entry points (what the submitter rides on) -----------------


@pytest.mark.usefixtures("retired_latch_axis")
def test_begin_transaction_batch():
    db = make_db()
    txns = db.begin_transaction_batch(5)
    assert len(txns) == 5
    assert len({t.name for t in txns}) == 5
    for txn in txns:
        txn.abort()
    db.assert_quiescent()


@pytest.mark.usefixtures("retired_latch_axis")
def test_try_perform_batch_statuses():
    db = make_db()
    holder = db.begin_transaction()
    holder.write("x", 1)
    other = db.begin_transaction()
    results = db.try_perform_batch(
        [
            (other, "read", "y", None),  # grants
            (other, "read", "x", None),  # conflicts with holder
        ]
    )
    assert results[0] == ("done", 0)
    assert results[1][0] == "blocked"
    holder.commit()
    (retry,) = db.try_perform_batch([(other, "read", "x", None)])
    assert retry == ("done", 1)
    other.commit()
    db.assert_quiescent()


@pytest.mark.usefixtures("retired_latch_axis")
@PINNED_GLOBAL
def test_commit_batch_group_commits(tmp_path):
    db = NestedTransactionDB(
        {"x": 0, "y": 0},
        config=EngineConfig(durability=str(tmp_path)),
    )
    txns = db.begin_transaction_batch(4)
    for i, txn in enumerate(txns):
        (status, _) = db.try_perform_batch([(txn, "increment", "x", 1)])[0]
        assert status == "done"
    results = db.commit_batch(txns)
    assert all(status == "done" for status, _ in results)
    wal = db.durability.wal
    # One deferred fsync covered the whole batch.
    assert wal.synced_commits == 4
    assert wal.syncs < 4
    assert db.read_committed("x") == 4
    db.assert_quiescent()


@pytest.mark.usefixtures("retired_latch_axis")
def test_cancel_waits_clears_batch_registered_edges():
    db = make_db()
    holder = db.begin_transaction()
    holder.write("x", 1)
    waiter = db.begin_transaction()
    (status, _) = db.try_perform_batch([(waiter, "read", "x", None)])[0]
    assert status == "blocked"
    assert db._waits.has_waits(waiter.name)
    db.cancel_waits(waiter)
    assert not db._waits.has_waits(waiter.name)
    holder.abort()
    waiter.abort()
    db.assert_quiescent()


def test_parked_retry_under_churn_makes_progress():
    """A writer pipeline over one hot object through the submitter: every
    session must eventually grant via park/flush, no lost increments."""
    db = make_db()
    sub = BatchSubmitter(db, workers=3, max_batch=8)
    sessions = 30
    futures = []

    def one(i):
        txn = sub.submit_begin().result(timeout=10)
        for attempt in range(60):
            try:
                sub.submit_op(txn, "increment", "z", 1).result(timeout=10)
                sub.submit_commit(txn).result(timeout=10)
                return
            except TransactionAborted:
                sub.submit_abort(txn).result(timeout=10)
                txn = sub.submit_begin().result(timeout=10)
                time.sleep(0.001 * (attempt + 1))
        raise AssertionError("session %d starved" % i)

    try:
        threads = [
            threading.Thread(target=one, args=(i,)) for i in range(sessions)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
    finally:
        sub.close(timeout=10)
    del futures
    assert db.read_committed("z") == sessions
    db.assert_quiescent()
