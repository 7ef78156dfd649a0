"""The write-ahead log: CRC-framed redo records with Moss commit semantics.

The engine's version stacks are purely in-memory; subtransaction commits
merge a child's version into its parent *without any logging*, exactly as
in the paper — only ``perm(T)`` values (what a **top-level** commit merges
into ``U``) are externally visible, so only top-level commits reach the
log.  The WAL is therefore redo-only and no-steal: no uncommitted value
ever touches disk, and recovery never needs to undo anything.

One top-level commit appends a *batch* of frames — one ``write`` record
per object the transaction owns a version of, one ``increment`` record
per blind delta it folds into the base, then one ``commit`` record —
under the log's lock, so log order equals commit order on conflicting
objects (the append happens inside the engine's commit critical section;
see ``engine/database.py``).  Increment records are redo-by-addition:
replay applies ``value += delta`` rather than overwriting, which is what
lets two increment-only commits serialize in either order.  Durability is decided by ``sync_policy``:

* ``"commit"`` — fsync before the commit call returns (group-batched
  opportunistically: whichever committer becomes the sync leader flushes
  everything appended so far, and followers whose LSN is already covered
  return without another fsync);
* ``"group"`` — like ``"commit"``, but the leader sleeps ``group_window``
  seconds before fsyncing so concurrent committers pile onto one fsync —
  the classic group commit trade of commit latency for throughput;
* ``"none"`` — never fsync (data still reaches the OS page cache on
  append); survives process crashes on most systems but not power loss.
  Useful as the WAL-on/fsync-off point in the E9 benchmark.

Frames are ``>II`` (payload length, CRC32 of payload) headers followed by
a UTF-8 JSON payload.  A torn or corrupt frame ends the readable log —
everything after it is discarded by replay.  Reopening for append
truncates the active segment back to the end of the last *complete batch*
(the last commit frame): both the torn frame and any individually-valid
write frames of an unfinished batch are dropped, because a later process
incarnation reuses top-level transaction names and stale write frames
under the same name would otherwise corrupt that name's next commit.  A
corrupt frame in a *non-final* segment raises :class:`CorruptSegmentError`
instead — appending to a log whose suffix recovery will never read would
silently lose every new commit.  Values must be JSON-serializable
(ints/strings in all shipped workloads), the same contract as trace
persistence.

Segments rotate at ``segment_max_bytes``; closed segments are deleted by
:meth:`WriteAheadLog.truncate_through` once a checkpoint covers them.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple, Union

from ..core.naming import ActionName

SYNC_COMMIT = "commit"
SYNC_GROUP = "group"
SYNC_NONE = "none"
SYNC_POLICIES = (SYNC_COMMIT, SYNC_GROUP, SYNC_NONE)

#: Record types inside frames.
WRITE = "w"
INCREMENT = "i"
COMMIT = "c"

_FRAME = struct.Struct(">II")  # payload length, CRC32(payload)
_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"

DEFAULT_SEGMENT_MAX_BYTES = 4 * 1024 * 1024
DEFAULT_GROUP_WINDOW = 0.002


class WalError(RuntimeError):
    """Base class for write-ahead-log failures."""


class CorruptSegmentError(WalError):
    """A non-final segment holds a corrupt frame.

    Replay stops at the first corrupt frame, so every later segment —
    including anything appended from now on — would be silently dropped
    by recovery.  Opening such a log for append is refused.
    """


class WalSyncError(WalError):
    """A previous fsync failed; the log no longer promises durability.

    After a failed fsync the kernel may have discarded the dirty pages
    (the "fsyncgate" failure mode), so retrying the fsync could report
    success without the data ever reaching disk.  The log is therefore
    poisoned: every later :meth:`WriteAheadLog.sync` raises this error.
    """


def _segment_name(seq: int) -> str:
    return "%s%08d%s" % (_SEGMENT_PREFIX, seq, _SEGMENT_SUFFIX)


def _segment_seq(name: str) -> Optional[int]:
    if not (name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)):
        return None
    body = name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
    try:
        return int(body)
    except ValueError:
        return None


def list_segments(directory: str) -> List[Tuple[int, str]]:
    """The (seq, path) of every WAL segment in ``directory``, ascending."""
    found = []
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    for name in names:
        seq = _segment_seq(name)
        if seq is not None:
            found.append((seq, os.path.join(directory, name)))
    found.sort()
    return found


def _encode_frame(record: Dict[str, Any]) -> bytes:
    payload = json.dumps(
        record, ensure_ascii=False, separators=(",", ":")
    ).encode("utf-8")
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _scan_file(path: str) -> Tuple[List[Dict[str, Any]], int, bool, int]:
    """Decode the valid frame prefix of one segment.

    Returns ``(records, valid_bytes, clean, batch_end)`` where
    ``valid_bytes`` is the byte length of the decodable prefix, ``clean``
    is False when the file holds a torn or corrupt tail after it, and
    ``batch_end`` is the offset just past the last *commit* frame — the
    end of the last complete batch, which is where reopening for append
    truncates to (``0`` when the segment holds no commit frame)."""
    records: List[Dict[str, Any]] = []
    batch_end = 0
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return [], 0, True, 0
    offset = 0
    total = len(data)
    while offset < total:
        header_end = offset + _FRAME.size
        if header_end > total:
            return records, offset, False, batch_end
        length, crc = _FRAME.unpack_from(data, offset)
        payload_end = header_end + length
        if payload_end > total:
            return records, offset, False, batch_end
        payload = data[header_end:payload_end]
        if zlib.crc32(payload) != crc:
            return records, offset, False, batch_end
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return records, offset, False, batch_end
        records.append(record)
        offset = payload_end
        if record.get("t") == COMMIT:
            batch_end = offset
    return records, offset, True, batch_end


@dataclass
class CommitRecord:
    """One replayable top-level commit: the absolute values it merged
    into U plus the blind-increment deltas it folded into the base."""

    lsn: int
    txn: ActionName
    writes: Dict[str, Any]
    deltas: Dict[str, Any] = field(default_factory=dict)


@dataclass
class ReplayStats:
    """What a log scan found (and what it refused to trust)."""

    records_scanned: int = 0
    commits: int = 0
    #: write records whose commit record never made it — unfinished
    #: top-level transactions, discarded by recovery.
    discarded_records: int = 0
    #: True when a torn/corrupt frame ended the scan early.
    torn_tail: bool = False
    segments: int = 0
    last_lsn: int = 0
    per_txn_discarded: List[str] = field(default_factory=list)


def replay_commits(
    directory: str, after_lsn: int = 0
) -> Tuple[List[CommitRecord], ReplayStats]:
    """Read every segment in order and yield the committed redo batches.

    Write and increment records accumulate per top-level transaction and
    are applied only when that transaction's commit record appears with a
    matching count; leftovers (crash mid-batch, or a torn tail) are
    discarded — *no uncommitted write or delta survives*.  Records with
    ``lsn <= after_lsn`` are skipped (they are covered by a checkpoint).
    A corrupt frame ends the scan: nothing after it is trusted.
    """
    stats = ReplayStats()
    commits: List[CommitRecord] = []
    pending: Dict[Tuple[Any, ...], Dict[str, Any]] = {}
    pending_deltas: Dict[Tuple[Any, ...], Dict[str, Any]] = {}
    pending_counts: Dict[Tuple[Any, ...], int] = {}
    for _seq, path in list_segments(directory):
        stats.segments += 1
        records, _valid, clean, _batch_end = _scan_file(path)
        if not clean:
            stats.torn_tail = True
        for record in records:
            stats.records_scanned += 1
            lsn = record.get("l", 0)
            if lsn > stats.last_lsn:
                stats.last_lsn = lsn
            kind = record.get("t")
            key = tuple(record.get("x", ()))
            if kind == WRITE:
                pending.setdefault(key, {})[record["o"]] = record["v"]
                pending_counts[key] = pending_counts.get(key, 0) + 1
            elif kind == INCREMENT:
                pending_deltas.setdefault(key, {})[record["o"]] = record["v"]
                pending_counts[key] = pending_counts.get(key, 0) + 1
            elif kind == COMMIT:
                writes = pending.pop(key, {})
                deltas = pending_deltas.pop(key, {})
                count = pending_counts.pop(key, 0)
                if count != record.get("n", count):
                    # Half a batch from a previous incarnation: the frames
                    # are individually valid but the batch is not whole.
                    stats.discarded_records += count
                    stats.per_txn_discarded.append(str(ActionName(key)))
                    continue
                if lsn <= after_lsn:
                    continue
                stats.commits += 1
                commits.append(
                    CommitRecord(lsn, ActionName(key), writes, deltas)
                )
        if not clean:
            break  # nothing after a corrupt frame is trustworthy
    for key, count in pending_counts.items():
        stats.discarded_records += count
        stats.per_txn_discarded.append(str(ActionName(key)))
    return commits, stats


class WriteAheadLog:
    """Append-side WAL handle: framed appends, segment rotation, fsync
    batching.  Thread-safe; all locks are leaves (never acquires engine
    latches), so the engine may append inside its commit critical section
    and sync after releasing it.
    """

    def __init__(
        self,
        directory: str,
        sync_policy: str = SYNC_COMMIT,
        group_window: float = DEFAULT_GROUP_WINDOW,
        segment_max_bytes: int = DEFAULT_SEGMENT_MAX_BYTES,
        fsync_fn: Callable[[int], None] = os.fsync,
        sleep_fn: Callable[[float], None] = time.sleep,
    ) -> None:
        if sync_policy not in SYNC_POLICIES:
            raise ValueError(
                "sync_policy must be one of %r, got %r"
                % (SYNC_POLICIES, sync_policy)
            )
        self.directory = directory
        self.sync_policy = sync_policy
        self.group_window = group_window
        self.segment_max_bytes = segment_max_bytes
        self._fsync_fn = fsync_fn
        self._sleep_fn = sleep_fn
        os.makedirs(directory, exist_ok=True)

        self._lock = threading.Lock()
        self._sync_cond = threading.Condition(threading.Lock())
        self._sync_leader = False
        self._sync_error: Optional[BaseException] = None
        self._closed_segments: List[Tuple[str, int]] = []  # (path, last lsn)
        self._fh: Optional[Any] = None
        self._active_path = ""
        self._active_bytes = 0
        self._pending_commits = 0  # commits appended but not yet fsynced

        # Counters mirrored into the metrics registry by the manager.
        self.appended_records = 0
        self.appended_commits = 0
        self.appended_bytes = 0
        self.syncs = 0
        self.synced_commits = 0
        self.rotations = 0

        self._open_for_append()

    # -- opening / scanning -------------------------------------------------

    def _open_for_append(self) -> None:
        segments = list_segments(self.directory)
        last_lsn = 0
        for seq, path in segments[:-1] if segments else []:
            records, _valid, clean, _batch_end = _scan_file(path)
            if not clean:
                # Replay stops at the corrupt frame, so every segment
                # after this one — and every commit we would append and
                # ack from here on — would be silently dropped by
                # recovery.  Refuse to build on such a log.
                raise CorruptSegmentError(
                    "corrupt frame in non-final WAL segment %r; "
                    "recovery cannot read past it" % path
                )
            for record in records:
                last_lsn = max(last_lsn, record.get("l", 0))
            self._closed_segments.append((path, last_lsn))
        if segments:
            seq, path = segments[-1]
            records, _valid_bytes, _clean, batch_end = _scan_file(path)
            # LSNs from dropped frames still advance _next_lsn: the new
            # incarnation must never reuse an LSN that may have reached
            # disk before the crash.
            for record in records:
                last_lsn = max(last_lsn, record.get("l", 0))
            if batch_end < os.path.getsize(path):
                # Truncate back to the last complete batch.  This drops
                # the torn frame *and* any complete write frames of an
                # unfinished batch — top-level txn names restart per
                # process, so a later incarnation reusing this name would
                # otherwise accumulate these stale writes under its own
                # commit and replay would discard the whole acked batch.
                with open(path, "rb+") as fh:
                    fh.truncate(batch_end)
            self._active_seq = seq
            self._active_path = path
            self._fh = open(path, "ab")
            self._active_bytes = batch_end
        else:
            self._active_seq = 1
            self._active_path = os.path.join(self.directory, _segment_name(1))
            self._fh = open(self._active_path, "ab")
            self._active_bytes = 0
        self._next_lsn = last_lsn + 1
        self._durable_lsn = last_lsn  # what is on disk survived the scan

    # -- appending ----------------------------------------------------------

    @property
    def last_lsn(self) -> int:
        with self._lock:
            return self._next_lsn - 1

    @property
    def durable_lsn(self) -> int:
        with self._sync_cond:
            return self._durable_lsn

    @property
    def segments(self) -> List[str]:
        with self._lock:
            return [path for path, _lsn in self._closed_segments] + [
                self._active_path
            ]

    def append_commit(
        self,
        txn: Union[Tuple[Any, ...], ActionName],
        writes: Mapping[str, Any],
        deltas: Optional[Mapping[str, Any]] = None,
    ) -> int:
        """Append one top-level commit batch — absolute write values plus
        blind-increment ``deltas`` — for the transaction at path ``txn``
        (or with that ``ActionName``) and return the commit record's LSN.
        Buffered write to the OS — call :meth:`sync` to make it durable
        per the policy.  Safe to call inside engine latches."""
        path = list(txn.path if isinstance(txn, ActionName) else txn)
        deltas = deltas or {}
        with self._lock:
            if self._fh is None:
                raise ValueError("write-ahead log is closed")
            # Encode every frame before consuming an LSN: a value the
            # codec rejects raises here with the log untouched, so a
            # failed append never leaves a gap in the LSN sequence.
            lsn = self._next_lsn
            chunks = []
            for kind, values in ((WRITE, writes), (INCREMENT, deltas)):
                for obj in sorted(values):
                    chunks.append(
                        _encode_frame(
                            {"t": kind, "l": lsn, "x": path, "o": obj, "v": values[obj]}
                        )
                    )
                    lsn += 1
            commit_lsn = lsn
            chunks.append(
                _encode_frame(
                    {
                        "t": COMMIT,
                        "l": commit_lsn,
                        "x": path,
                        "n": len(writes) + len(deltas),
                    }
                )
            )
            self._next_lsn = commit_lsn + 1
            blob = b"".join(chunks)
            self._fh.write(blob)
            self._fh.flush()  # into the OS; fsync is sync()'s job
            self._active_bytes += len(blob)
            self.appended_records += len(chunks)
            self.appended_commits += 1
            self.appended_bytes += len(blob)
            self._pending_commits += 1
            if self._active_bytes >= self.segment_max_bytes:
                self._rotate_locked()
            return commit_lsn

    def sync(self, lsn: int) -> int:
        """Make everything up to ``lsn`` durable per the sync policy.

        Returns the number of commits this call's fsync covered (0 when
        another committer's fsync already covered ``lsn``, or when the
        policy is ``"none"``).  Raises :class:`WalSyncError` once any
        fsync has failed — the log is poisoned and nothing appended after
        the last successful fsync may be reported durable.  Must not be
        called while holding engine latches — the fsync (and the group
        window) block.
        """
        if self.sync_policy == SYNC_NONE:
            return 0
        with self._sync_cond:
            while self._durable_lsn < lsn and self._sync_leader:
                self._sync_cond.wait()
            if self._durable_lsn >= lsn:
                return 0  # made durable before any failure
            if self._sync_error is not None:
                raise WalSyncError(
                    "a previous fsync failed; the log is poisoned"
                ) from self._sync_error
            self._sync_leader = True
        batched = 0
        target = 0
        synced = False
        poison: Optional[BaseException] = None
        try:
            if self.sync_policy == SYNC_GROUP and self.group_window > 0:
                # Let concurrent committers append onto this fsync.  The
                # sleep sits inside this try so an injected clock raising
                # still clears the leader flag in the finally below —
                # otherwise every later sync() would wait forever.
                self._sleep_fn(self.group_window)
            try:
                fd = None
                with self._lock:
                    fh = self._fh
                    target = self._next_lsn - 1
                    batched = self._pending_commits
                    self._pending_commits = 0
                    if fh is not None:
                        fh.flush()
                        # fsync a duplicate of the descriptor after
                        # releasing _lock, so an append (run under the
                        # engine latch) never waits for this fsync.  A
                        # concurrent rotation closes fh, not the duplicate,
                        # and fsyncs the segment it closes itself.
                        fd = os.dup(fh.fileno())
                if fd is not None:
                    try:
                        self._fsync_fn(fd)
                    finally:
                        os.close(fd)
            except BaseException as exc:
                # fsyncgate: the kernel may have dropped the dirty pages,
                # and a retried fsync could "succeed" without the data
                # ever reaching disk.  Put the batch back as pending and
                # poison the log so no later sync reports it durable.
                poison = exc
                with self._lock:
                    self._pending_commits += batched
                raise
            synced = True
        finally:
            with self._sync_cond:
                self._sync_leader = False
                if poison is not None:
                    self._sync_error = poison
                elif synced:
                    if self._durable_lsn < target:
                        self._durable_lsn = target
                    self.syncs += 1
                    self.synced_commits += batched
                self._sync_cond.notify_all()
        return batched

    # -- rotation / truncation ---------------------------------------------

    def _rotate_locked(self) -> None:
        fh = self._fh
        assert fh is not None
        fh.flush()
        self._fsync_fn(fh.fileno())  # closed segments are always durable
        fh.close()
        self._closed_segments.append((self._active_path, self._next_lsn - 1))
        self._active_seq += 1
        self._active_path = os.path.join(
            self.directory, _segment_name(self._active_seq)
        )
        self._fh = open(self._active_path, "ab")
        self._active_bytes = 0
        self.rotations += 1
        with self._sync_cond:
            if self._durable_lsn < self._next_lsn - 1:
                self._durable_lsn = self._next_lsn - 1

    def rotate(self) -> None:
        """Close the active segment and start a new one (fsyncs the old)."""
        with self._lock:
            if self._fh is None:
                raise ValueError("write-ahead log is closed")
            self._rotate_locked()

    def truncate_through(self, lsn: int) -> int:
        """Delete closed segments wholly covered by a checkpoint at
        ``lsn``; returns how many were removed.  Never touches the active
        segment."""
        removed = 0
        with self._lock:
            keep: List[Tuple[str, int]] = []
            for path, seg_last in self._closed_segments:
                if seg_last <= lsn:
                    try:
                        os.unlink(path)
                    except FileNotFoundError:
                        pass
                    removed += 1
                else:
                    keep.append((path, seg_last))
            self._closed_segments = keep
        return removed

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
                try:
                    self._fsync_fn(self._fh.fileno())
                except OSError:
                    pass
                self._fh.close()
                self._fh = None

    # -- replay (read side) -------------------------------------------------

    def replay(
        self, after_lsn: int = 0
    ) -> Tuple[List[CommitRecord], ReplayStats]:
        """Replay this log's directory (see :func:`replay_commits`)."""
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
        return replay_commits(self.directory, after_lsn)

    def __repr__(self) -> str:
        return "WriteAheadLog(%r, policy=%s, last_lsn=%d)" % (
            self.directory,
            self.sync_policy,
            self.last_lsn,
        )
