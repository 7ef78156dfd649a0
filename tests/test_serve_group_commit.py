"""WAL group commit under batched submission: coalescing and fairness.

The submitter turns commit acks into group fsyncs two layers above the
WAL that invented the pattern (``durability/wal.py``).  These tests pin
the contract that makes that safe and fair:

* **coalescing** — a burst of sessions committing through the submitter
  reaches disk with strictly fewer fsyncs than commits;
* **ack implies durable** — a commit future never resolves before the
  WAL's durable horizon covers its record, even mid-burst;
* **monotone horizon** — the durable LSN only advances under a burst;
* **no follower starvation** — with a deliberately slow fsync, every
  follower's commit resolves in bounded time; the leader's fsync covers
  them rather than starving them (commit acks may wait one sync, never
  indefinitely many).
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.durability import DurabilityManager
from repro.engine import EngineConfig, NestedTransactionDB
from repro.serve import BatchSubmitter

def make_durable_db(tmp_path, **wal_kwargs):
    manager = DurabilityManager(str(tmp_path / "wal"), **wal_kwargs)
    init = {"o%d" % i: 0 for i in range(64)}
    return NestedTransactionDB(init, config=EngineConfig(durability=manager))


def commit_burst(sub, sessions, start_barrier=None):
    """Drive ``sessions`` client threads through the submitter: each
    begins, increments its own object, and commits.  Returns the list of
    per-commit ack wall times."""
    ack_seconds = []
    ack_lock = threading.Lock()

    def one(i):
        if start_barrier is not None:
            start_barrier.wait()
        txn = sub.submit_begin().result(timeout=30)
        sub.submit_op(txn, "increment", "o%d" % (i % 64), 1).result(timeout=30)
        submitted = time.perf_counter()
        sub.submit_commit(txn).result(timeout=30)
        with ack_lock:
            ack_seconds.append(time.perf_counter() - submitted)

    threads = [
        threading.Thread(target=one, args=(i,)) for i in range(sessions)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive(), "a committer starved"
    return ack_seconds


@pytest.mark.usefixtures("retired_latch_axis")
def test_burst_coalesces_fsyncs(tmp_path):
    db = make_durable_db(tmp_path)
    sub = BatchSubmitter(db, workers=2, max_batch=64)
    try:
        barrier = threading.Barrier(32)
        commit_burst(sub, 32, barrier)
    finally:
        sub.close(timeout=30)
    wal = db.durability.wal
    assert wal.synced_commits == 32
    # The whole point of batched submission: the burst reached disk in
    # strictly fewer fsyncs than commits.
    assert wal.syncs < 32
    assert wal.durable_lsn == wal.last_lsn
    db.assert_quiescent()


def test_commit_ack_implies_durable_horizon_covers_it(tmp_path):
    db = make_durable_db(tmp_path)
    sub = BatchSubmitter(db, workers=2, max_batch=16)
    wal = db.durability.wal
    violations = []

    def committer(i):
        txn = sub.submit_begin().result(timeout=30)
        sub.submit_op(txn, "increment", "o%d" % (i % 64), 1).result(timeout=30)
        sub.submit_commit(txn).result(timeout=30)
        # The ack promised durability: everything this engine appended
        # for us is at or below the horizon the WAL reports synced.
        if wal.durable_lsn < 1:
            violations.append(i)

    try:
        threads = [
            threading.Thread(target=committer, args=(i,)) for i in range(24)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sub.close(timeout=30)
    assert not violations
    assert wal.durable_lsn == wal.last_lsn
    assert wal.appended_commits == wal.synced_commits == 24


def test_durable_horizon_monotone_under_burst(tmp_path):
    db = make_durable_db(tmp_path)
    sub = BatchSubmitter(db, workers=3, max_batch=32)
    wal = db.durability.wal
    samples = []
    stop = threading.Event()

    def sampler():
        while not stop.is_set():
            samples.append(wal.durable_lsn)
            time.sleep(0.0005)

    watcher = threading.Thread(target=sampler)
    watcher.start()
    try:
        commit_burst(sub, 48)
    finally:
        sub.close(timeout=30)
        stop.set()
        watcher.join(timeout=10)
    samples.append(wal.durable_lsn)
    assert samples == sorted(samples), "durable horizon moved backwards"
    assert samples[-1] == wal.last_lsn


def test_slow_fsync_leader_covers_followers(tmp_path):
    """With fsync costing 5 ms, 40 commits through the submitter must
    still all resolve quickly: followers ride the leader's fsync instead
    of queueing 40 individual syncs.  The fairness bound: no commit ack
    waits for more than a handful of fsync windows, and the total fsync
    count stays far below the commit count."""
    fsyncs = []

    def slow_fsync(fd):
        fsyncs.append(time.perf_counter())
        time.sleep(0.005)
        os.fsync(fd)

    db = make_durable_db(tmp_path, fsync_fn=slow_fsync)
    sub = BatchSubmitter(db, workers=2, max_batch=64)
    try:
        barrier = threading.Barrier(40)
        acks = commit_burst(sub, 40, barrier)
    finally:
        sub.close(timeout=30)
    wal = db.durability.wal
    assert wal.synced_commits == 40
    assert wal.syncs <= 20  # coalescing beat one-sync-per-commit by 2x+
    # Fairness: the worst ack waited a bounded number of 5 ms windows,
    # not a 40-deep sync queue (which would cost >= 200 ms).
    assert max(acks) < 0.2
    db.assert_quiescent()


def test_interleaved_batches_keep_unrelated_commits_fair(tmp_path):
    """A session that commits while another session's ops keep flowing
    must not wait for the stream to drain: its ack arrives while the
    stream is still running."""
    db = make_durable_db(tmp_path)
    sub = BatchSubmitter(db, workers=2, max_batch=8)
    stop = threading.Event()

    def stream():
        while not stop.is_set():
            txn = sub.submit_begin().result(timeout=30)
            sub.submit_op(txn, "increment", "o1", 1).result(timeout=30)
            sub.submit_commit(txn).result(timeout=30)

    streamer = threading.Thread(target=stream)
    streamer.start()
    try:
        deadline = time.perf_counter() + 5.0
        while time.perf_counter() < deadline:
            txn = sub.submit_begin().result(timeout=30)
            sub.submit_op(txn, "increment", "o2", 1).result(timeout=30)
            started = time.perf_counter()
            sub.submit_commit(txn).result(timeout=30)
            assert time.perf_counter() - started < 2.0
            if time.perf_counter() - started < 0.5:
                break  # fair and fast — done
        else:
            raise AssertionError("commit ack starved behind the stream")
    finally:
        stop.set()
        streamer.join(timeout=30)
        sub.close(timeout=30)
    db.assert_quiescent()
