"""Unit tests for the durability primitives: WAL framing and replay,
segment rotation and truncation, group-commit fsync batching, checkpoint
files, and the standalone RecoveryManager."""

import json
import os
import struct
import threading
import zlib

import pytest

from repro.core.naming import ActionName
from repro.durability.checkpoint import Checkpointer
from repro.durability.recovery import RecoveryManager
from repro.durability.wal import (
    SYNC_GROUP,
    SYNC_NONE,
    CorruptSegmentError,
    WalSyncError,
    WriteAheadLog,
    list_segments,
    replay_commits,
)


def frame(record):
    payload = json.dumps(record).encode("utf-8")
    return struct.pack(">II", len(payload), zlib.crc32(payload)) + payload

T1 = ActionName((1,))
T2 = ActionName((2,))
T3 = ActionName((3,))


def wal_dir(tmp_path):
    return str(tmp_path / "wal")


# ---------------------------------------------------------------------------
# Framing / replay
# ---------------------------------------------------------------------------


def test_append_replay_roundtrip(tmp_path):
    wal = WriteAheadLog(wal_dir(tmp_path))
    lsn1 = wal.append_commit(T1, {"x": 5, "y": 7})
    lsn2 = wal.append_commit(T2, {"x": 6})
    assert lsn2 > lsn1
    wal.close()

    commits, stats = replay_commits(wal_dir(tmp_path))
    assert [(c.txn, c.writes) for c in commits] == [
        (T1, {"x": 5, "y": 7}),
        (T2, {"x": 6}),
    ]
    assert commits[0].lsn == lsn1 and commits[1].lsn == lsn2
    assert stats.commits == 2
    assert stats.discarded_records == 0
    assert not stats.torn_tail
    assert stats.last_lsn == lsn2


def test_replay_after_lsn_skips_covered_commits(tmp_path):
    wal = WriteAheadLog(wal_dir(tmp_path))
    lsn1 = wal.append_commit(T1, {"x": 1})
    wal.append_commit(T2, {"x": 2})
    wal.close()
    commits, stats = replay_commits(wal_dir(tmp_path), after_lsn=lsn1)
    assert [c.writes for c in commits] == [{"x": 2}]
    assert stats.commits == 1


def test_corrupt_frame_ends_the_scan(tmp_path):
    wal = WriteAheadLog(wal_dir(tmp_path))
    wal.append_commit(T1, {"x": 1})
    boundary = os.path.getsize(wal.segments[0])
    wal.append_commit(T2, {"x": 2})
    path = wal.segments[0]
    wal.close()

    # Flip one payload byte of the second batch: its CRC no longer
    # matches, so replay must stop there and keep only the first commit.
    with open(path, "rb+") as fh:
        fh.seek(boundary + 8 + 2)  # past the first frame header
        byte = fh.read(1)
        fh.seek(boundary + 8 + 2)
        fh.write(bytes([byte[0] ^ 0xFF]))

    commits, stats = replay_commits(wal_dir(tmp_path))
    assert [c.writes for c in commits] == [{"x": 1}]
    assert stats.torn_tail


def test_torn_tail_truncated_on_reopen(tmp_path):
    wal = WriteAheadLog(wal_dir(tmp_path))
    wal.append_commit(T1, {"x": 1})
    path = wal.segments[0]
    wal.close()
    whole = os.path.getsize(path)

    wal = WriteAheadLog(wal_dir(tmp_path))
    wal.append_commit(T2, {"x": 2})
    wal.close()
    with open(path, "rb+") as fh:  # tear T2's batch mid-header
        fh.truncate(whole + 1)

    commits, stats = replay_commits(wal_dir(tmp_path))
    assert stats.torn_tail
    assert [c.writes for c in commits] == [{"x": 1}]

    # Reopening for append drops the torn tail, then extends a valid log.
    wal = WriteAheadLog(wal_dir(tmp_path))
    assert os.path.getsize(path) == whole
    wal.append_commit(T3, {"x": 3})
    wal.close()
    commits, stats = replay_commits(wal_dir(tmp_path))
    assert [c.writes for c in commits] == [{"x": 1}, {"x": 3}]
    assert not stats.torn_tail


def test_uncommitted_batch_is_discarded(tmp_path):
    """Write frames without a commit frame model a crash mid-batch: the
    values must never be replayed."""
    wal = WriteAheadLog(wal_dir(tmp_path))
    wal.append_commit(T1, {"x": 1})
    path = wal.segments[0]
    wal.close()

    payload = json.dumps(
        {"t": "w", "l": 99, "x": [2], "o": "x", "v": 1234}
    ).encode("utf-8")
    with open(path, "ab") as fh:  # a valid frame, but no commit follows
        fh.write(struct.pack(">II", len(payload), zlib.crc32(payload)))
        fh.write(payload)

    commits, stats = replay_commits(wal_dir(tmp_path))
    assert [c.writes for c in commits] == [{"x": 1}]
    assert stats.discarded_records == 1
    assert stats.per_txn_discarded == [str(T2)]


def test_commit_with_wrong_count_is_discarded(tmp_path):
    """A commit frame whose batch is not whole (count mismatch) must not
    apply a partial batch."""
    directory = wal_dir(tmp_path)
    os.makedirs(directory)

    def frame(record):
        payload = json.dumps(record).encode("utf-8")
        return struct.pack(">II", len(payload), zlib.crc32(payload)) + payload

    with open(os.path.join(directory, "wal-00000001.log"), "wb") as fh:
        fh.write(frame({"t": "w", "l": 1, "x": [1], "o": "x", "v": 5}))
        fh.write(frame({"t": "c", "l": 2, "x": [1], "n": 2}))  # claims 2 writes

    commits, stats = replay_commits(directory)
    assert commits == []
    assert stats.discarded_records == 1
    assert str(T1) in stats.per_txn_discarded


# ---------------------------------------------------------------------------
# Rotation / truncation
# ---------------------------------------------------------------------------


def test_segment_rotation_and_cross_segment_replay(tmp_path):
    wal = WriteAheadLog(wal_dir(tmp_path), segment_max_bytes=1)
    for i in range(1, 6):
        wal.append_commit(ActionName((i,)), {"x": i})
    assert wal.rotations >= 4
    assert len(list_segments(wal_dir(tmp_path))) >= 5
    wal.close()
    commits, stats = replay_commits(wal_dir(tmp_path))
    assert [c.writes["x"] for c in commits] == [1, 2, 3, 4, 5]
    assert stats.segments >= 5


def test_truncate_through_only_removes_covered_segments(tmp_path):
    wal = WriteAheadLog(wal_dir(tmp_path), segment_max_bytes=1)
    lsns = [wal.append_commit(ActionName((i,)), {"x": i}) for i in (1, 2, 3)]
    removed = wal.truncate_through(lsns[1])
    assert removed == 2  # segments for commits 1 and 2 are covered
    commits, _stats = wal.replay()
    assert [c.writes["x"] for c in commits] == [3]

    # LSNs keep ascending across reopen after truncation.
    wal.close()
    wal = WriteAheadLog(wal_dir(tmp_path))
    lsn4 = wal.append_commit(ActionName((4,)), {"x": 4})
    assert lsn4 > lsns[2]
    wal.close()


# ---------------------------------------------------------------------------
# Sync policies
# ---------------------------------------------------------------------------


def test_sync_batches_pending_commits(tmp_path):
    fsyncs = []
    wal = WriteAheadLog(wal_dir(tmp_path), fsync_fn=fsyncs.append)
    fsyncs.clear()  # ignore any fsync during open
    for i in (1, 2, 3):
        wal.append_commit(ActionName((i,)), {"x": i})
    last = wal.last_lsn
    assert wal.durable_lsn < last

    batched = wal.sync(last)
    assert batched == 3  # one fsync covered all three commits
    assert len(fsyncs) == 1
    assert wal.durable_lsn == last

    assert wal.sync(last) == 0  # already durable: no extra fsync
    assert len(fsyncs) == 1
    wal.close()


def test_append_does_not_wait_for_another_threads_fsync(tmp_path):
    """An fsync runs off the append lock: ``append_commit`` (called under
    the engine latch) returns while another thread's fsync is parked,
    and the parked fsync still makes its own commits durable."""
    parked = threading.Event()
    release = threading.Event()
    blocking = [False]

    def blocking_fsync(fd):
        os.fstat(fd)  # a live descriptor, not one closed under it
        if blocking[0]:
            parked.set()
            assert release.wait(10)

    wal = WriteAheadLog(wal_dir(tmp_path), fsync_fn=blocking_fsync)
    first = wal.append_commit(T1, {"x": 1})
    blocking[0] = True
    syncer = threading.Thread(target=wal.sync, args=(first,), daemon=True)
    syncer.start()
    assert parked.wait(10)
    appended = []
    appender = threading.Thread(
        target=lambda: appended.append(
            wal.append_commit(ActionName((2,)), {"x": 2})
        ),
        daemon=True,
    )
    appender.start()
    appender.join(2)
    returned_while_parked = not appender.is_alive()
    release.set()
    syncer.join(10)
    appender.join(10)
    assert returned_while_parked
    assert appended and appended[0] > first
    assert wal.durable_lsn >= first
    blocking[0] = False
    assert wal.sync(appended[0]) == 1
    wal.close()


def test_group_policy_waits_the_window_then_syncs(tmp_path):
    sleeps = []
    wal = WriteAheadLog(
        wal_dir(tmp_path),
        sync_policy=SYNC_GROUP,
        group_window=0.004,
        sleep_fn=sleeps.append,
    )
    lsn = wal.append_commit(T1, {"x": 1})
    assert wal.sync(lsn) == 1
    assert sleeps == [0.004]  # leader held the window open before fsync
    assert wal.durable_lsn == lsn
    wal.close()


def test_none_policy_never_fsyncs(tmp_path):
    fsyncs = []
    wal = WriteAheadLog(
        wal_dir(tmp_path), sync_policy=SYNC_NONE, fsync_fn=fsyncs.append
    )
    fsyncs.clear()
    lsn = wal.append_commit(T1, {"x": 1})
    assert wal.sync(lsn) == 0
    assert fsyncs == []
    assert wal.durable_lsn < lsn
    wal.close()


def test_bad_sync_policy_rejected(tmp_path):
    with pytest.raises(ValueError):
        WriteAheadLog(wal_dir(tmp_path), sync_policy="eventually")


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_write_latest_prune(tmp_path):
    cp = Checkpointer(str(tmp_path))
    assert cp.latest() is None
    first = cp.write(10, {"x": 1})
    second = cp.write(20, {"x": 2, "y": 3})
    assert (first.seq, second.seq) == (1, 2)

    latest = cp.latest()
    assert latest.seq == 2
    assert latest.lsn == 20
    assert latest.values == {"x": 2, "y": 3}

    assert cp.prune(keep=1) == 1
    assert [seq for seq, _path in cp.list()] == [2]
    # No temp files left behind by the atomic write protocol.
    assert not [n for n in os.listdir(str(tmp_path)) if n.endswith(".tmp")]


def test_corrupt_checkpoint_skipped(tmp_path):
    cp = Checkpointer(str(tmp_path))
    good = cp.write(10, {"x": 1})
    bad = cp.write(20, {"x": 2})
    with open(bad.path, "w", encoding="utf-8") as fh:
        fh.write('{"format": 1, "seq": 2')  # torn JSON
    latest = cp.latest()
    assert latest.seq == good.seq
    assert latest.values == {"x": 1}


# ---------------------------------------------------------------------------
# RecoveryManager (checkpoint overlay + log suffix)
# ---------------------------------------------------------------------------


def test_recovery_overlays_checkpoint_then_replays_suffix(tmp_path):
    d = str(tmp_path)
    wal = WriteAheadLog(d)
    wal.append_commit(T1, {"x": 1, "y": 1})
    lsn = wal.last_lsn
    Checkpointer(d).write(lsn, {"x": 1, "y": 1, "z": 0})
    wal.append_commit(T2, {"x": 2})
    wal.close()

    result = RecoveryManager(d).recover({"x": 0, "y": 0, "z": 0})
    assert result.values == {"x": 2, "y": 1, "z": 0}
    assert result.checkpoint_seq == 1
    assert result.checkpoint_lsn == lsn
    assert result.commits_replayed == 1  # only the suffix past the checkpoint
    assert result.clean


def test_recovery_on_empty_directory_is_identity(tmp_path):
    result = RecoveryManager(str(tmp_path)).recover({"x": 7})
    assert result.values == {"x": 7}
    assert result.checkpoint_seq == 0
    assert result.commits_replayed == 0
    assert result.clean


# ---------------------------------------------------------------------------
# Reopen truncates to the last complete batch
# ---------------------------------------------------------------------------


def test_reopen_drops_dangling_writes_so_reused_txn_name_commits(tmp_path):
    """Two-crash scenario: a crash mid-batch leaves individually-valid
    write frames without their commit frame; top-level txn names restart
    per process, so the next incarnation reuses the same name.  Reopening
    must truncate back to the last complete batch — otherwise the stale
    writes accumulate under the reused name, the commit record's count
    mismatches, and replay discards the fsync'd, acked batch."""
    wal = WriteAheadLog(wal_dir(tmp_path))
    wal.append_commit(T1, {"x": 1})
    path = wal.segments[0]
    wal.close()

    # Crash mid-batch: T2's write frames reached disk, its commit did not.
    with open(path, "ab") as fh:
        fh.write(frame({"t": "w", "l": 98, "x": [2], "o": "x", "v": 666}))
        fh.write(frame({"t": "w", "l": 99, "x": [2], "o": "y", "v": 667}))

    # Next incarnation: reopen, reuse T2's name, commit and sync.
    wal = WriteAheadLog(wal_dir(tmp_path))
    lsn = wal.append_commit(T2, {"y": 9})
    assert lsn > 99  # dropped frames still advance the LSN (no reuse)
    wal.sync(lsn)
    wal.close()

    commits, stats = replay_commits(wal_dir(tmp_path))
    assert [(c.txn, c.writes) for c in commits] == [
        (T1, {"x": 1}),
        (T2, {"y": 9}),  # the acked commit survives
    ]
    assert stats.discarded_records == 0
    assert not stats.torn_tail


def test_reopen_truncates_dangling_writes_and_torn_frame_together(tmp_path):
    wal = WriteAheadLog(wal_dir(tmp_path))
    wal.append_commit(T1, {"x": 1})
    path = wal.segments[0]
    wal.close()
    whole = os.path.getsize(path)

    with open(path, "ab") as fh:
        fh.write(frame({"t": "w", "l": 50, "x": [2], "o": "x", "v": 1}))
        fh.write(b"\x00\x00\x00\x09torn")  # torn frame after the writes

    wal = WriteAheadLog(wal_dir(tmp_path))
    # Truncated past both the torn frame and the batchless write frame.
    assert os.path.getsize(path) == whole
    wal.close()


def test_open_refuses_corrupt_non_final_segment(tmp_path):
    """A corrupt frame in a closed segment means recovery can never read
    anything after it; appending (and acking) new commits to such a log
    would silently lose them, so opening must fail loudly."""
    wal = WriteAheadLog(wal_dir(tmp_path))
    wal.append_commit(T1, {"x": 1})
    first = wal.segments[0]
    wal.rotate()
    wal.append_commit(T2, {"x": 2})
    wal.close()

    with open(first, "rb+") as fh:
        fh.seek(10)
        byte = fh.read(1)
        fh.seek(10)
        fh.write(bytes([byte[0] ^ 0xFF]))

    with pytest.raises(CorruptSegmentError):
        WriteAheadLog(wal_dir(tmp_path))


# ---------------------------------------------------------------------------
# fsync failure (fsyncgate) and leader-flag hygiene
# ---------------------------------------------------------------------------


def test_failed_fsync_poisons_the_log(tmp_path):
    """After a failed fsync the data may never reach disk even if a retry
    'succeeds', so sync() must not advance the durable horizon and every
    later sync() must keep failing rather than ack lost data."""
    calls = []

    def flaky_fsync(fd):
        calls.append(fd)
        raise OSError(5, "Input/output error")

    wal = WriteAheadLog(wal_dir(tmp_path), fsync_fn=flaky_fsync)
    durable_before = wal.durable_lsn
    lsn = wal.append_commit(T1, {"x": 1})
    with pytest.raises(OSError):
        wal.sync(lsn)
    assert wal.durable_lsn == durable_before  # never advanced
    assert wal.syncs == 0 and wal.synced_commits == 0
    assert wal._pending_commits == 1  # the batch went back to pending

    # Poisoned: even an fsync that would now "succeed" must not ack.
    wal._fsync_fn = lambda fd: None
    with pytest.raises(WalSyncError):
        wal.sync(lsn)
    assert wal.durable_lsn == durable_before
    wal._fsync_fn = lambda fd: None  # let close() fsync harmlessly
    wal.close()


def test_sleep_failure_releases_the_leader_without_poisoning(tmp_path):
    """If the group-window sleep raises (fake clock, KeyboardInterrupt),
    the leader flag must be cleared — otherwise every later sync() waits
    forever — but nothing failed on disk, so the log is not poisoned."""
    boom = [True]

    def sleep_once(seconds):
        if boom[0]:
            boom[0] = False
            raise RuntimeError("fake clock exploded")

    wal = WriteAheadLog(
        wal_dir(tmp_path), sync_policy=SYNC_GROUP, sleep_fn=sleep_once
    )
    lsn = wal.append_commit(T1, {"x": 1})
    with pytest.raises(RuntimeError):
        wal.sync(lsn)
    assert wal.durable_lsn < lsn
    # Not poisoned and not deadlocked: the retry becomes leader and syncs.
    assert wal.sync(lsn) == 1
    assert wal.durable_lsn == lsn
    wal.close()


def test_sync_during_rotation_storm(tmp_path):
    """Concurrent appends that rotate on every batch must not yank the
    active file handle out from under a syncing leader."""
    import threading

    wal = WriteAheadLog(wal_dir(tmp_path), segment_max_bytes=1)
    errors = []

    def committer(base):
        try:
            for i in range(25):
                lsn = wal.append_commit(ActionName((base + i,)), {"x": i})
                wal.sync(lsn)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=committer, args=(100 * t,)) for t in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    wal.close()
    commits, stats = replay_commits(wal_dir(tmp_path))
    assert len(commits) == 100
    assert not stats.torn_tail
