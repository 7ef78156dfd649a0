"""The durability facade the engine talks to.

:class:`DurabilityManager` owns one durability directory (WAL segments +
checkpoint files) and exposes exactly the four calls the engine needs:

* :meth:`recover` — at construction of a ``NestedTransactionDB``, rebuild
  the committed values the store should start from;
* :meth:`log_commit` — inside the engine's top-level commit critical
  section, append the redo batch (buffered, never blocks on disk; the
  engine queues the ``wal_commit_logged`` event itself, for delivery
  after its latch);
* :meth:`sync` — after the engine latch is released, make the batch
  durable per the sync policy (this is where fsync/group-commit happens);
* :meth:`checkpoint` — fuzzy-snapshot the committed store and truncate
  the log (driven explicitly or by ``checkpoint_interval``).

All observability flows through ``repro.obs``: WAL/checkpoint/recovery
metrics land in the engine's :class:`~repro.obs.MetricsRegistry` and
typed events (``wal_synced``, ``checkpoint_taken``,
``recovery_completed``) go out on the engine's event bus once
:meth:`bind` is called — the engine does this automatically.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Union

from ..core.naming import ActionName
from ..obs import (
    CheckpointTaken,
    EventBus,
    MetricsRegistry,
    RecoveryCompleted,
    WalSynced,
)
from .checkpoint import CheckpointData, Checkpointer
from .recovery import RecoveryManager, RecoveryResult
from .wal import (
    DEFAULT_GROUP_WINDOW,
    DEFAULT_SEGMENT_MAX_BYTES,
    SYNC_COMMIT,
    WriteAheadLog,
)


class DurabilityManager:
    """WAL + checkpoints + recovery for one engine, in one directory.

    Parameters mirror the knobs documented in ``docs/durability.md``:
    ``sync_policy`` ("commit" | "group" | "none"), ``group_window``
    (seconds the group-commit leader waits for followers),
    ``segment_max_bytes`` (WAL rotation threshold),
    ``checkpoint_interval`` (auto-checkpoint after that many durable
    top-level commits; 0 disables), ``keep_checkpoints`` (pruning depth).
    ``fsync_fn``/``sleep_fn`` are injectable for deterministic tests.
    """

    def __init__(
        self,
        directory: str,
        sync_policy: str = SYNC_COMMIT,
        group_window: float = DEFAULT_GROUP_WINDOW,
        segment_max_bytes: int = DEFAULT_SEGMENT_MAX_BYTES,
        checkpoint_interval: int = 0,
        keep_checkpoints: int = 1,
        fsync_fn: Callable[[int], None] = os.fsync,
        sleep_fn: Callable[[float], None] = time.sleep,
    ) -> None:
        self.directory = os.fspath(directory)
        self.sync_policy = sync_policy
        self.checkpoint_interval = checkpoint_interval
        self.keep_checkpoints = keep_checkpoints
        self._wal_kwargs = dict(
            sync_policy=sync_policy,
            group_window=group_window,
            segment_max_bytes=segment_max_bytes,
            fsync_fn=fsync_fn,
            sleep_fn=sleep_fn,
        )
        self.checkpointer = Checkpointer(self.directory)
        self.wal: Optional[WriteAheadLog] = None
        self.last_recovery: Optional[RecoveryResult] = None
        self._metrics: MetricsRegistry = MetricsRegistry(enabled=False)
        self._events: EventBus = EventBus()
        self._bind_metrics()
        self._cp_lock = threading.Lock()
        self._commit_count_lock = threading.Lock()
        self._commits_since_checkpoint = 0

    # -- observability wiring ----------------------------------------------

    def bind(self, metrics: MetricsRegistry, events: EventBus) -> None:
        """Adopt the engine's registry and bus (called by the engine)."""
        self._metrics = metrics
        self._events = events
        self._bind_metrics()

    def _bind_metrics(self) -> None:
        registry = self._metrics
        self._c_commits = registry.counter("wal_commits_total")
        self._c_records = registry.counter("wal_records_total")
        self._c_bytes = registry.counter("wal_bytes_total")
        self._c_syncs = registry.counter("wal_syncs_total")
        self._c_sync_commits = registry.counter("wal_sync_commits_total")
        self._c_checkpoints = registry.counter("checkpoints_total")
        self._c_truncated = registry.counter("wal_segments_truncated_total")
        self._h_append = registry.histogram("wal_append_seconds")
        self._h_sync = registry.histogram("wal_sync_seconds")
        self._h_checkpoint = registry.histogram("checkpoint_seconds")
        registry.gauge(
            "wal_durable_lsn",
            callback=lambda: float(self.wal.durable_lsn) if self.wal else 0.0,
        )

    # -- recovery -----------------------------------------------------------

    def recover(self, initial: Mapping[str, Any]) -> RecoveryResult:
        """Replay the directory over ``initial`` and open the WAL for
        appending (truncating any torn tail).  Called once, by the engine
        constructor, before it builds its stores."""
        if self.wal is not None:
            raise ValueError("recover() must run before the WAL is open")
        result = RecoveryManager(self.directory).recover(initial)
        self.last_recovery = result
        self.wal = WriteAheadLog(self.directory, **self._wal_kwargs)
        if self._events.enabled:
            self._events.emit(
                RecoveryCompleted(
                    commits_replayed=result.commits_replayed,
                    records_discarded=result.records_discarded,
                    checkpoint_seq=result.checkpoint_seq,
                    last_lsn=result.last_lsn,
                    clean=result.clean,
                )
            )
        return result

    def _require_wal(self) -> WriteAheadLog:
        if self.wal is None:
            # Standalone use (no engine): open the log lazily.
            self.wal = WriteAheadLog(self.directory, **self._wal_kwargs)
        return self.wal

    # -- commit path ---------------------------------------------------------

    def log_commit(
        self,
        txn: Union[Tuple[Any, ...], ActionName],
        writes: Mapping[str, Any],
        deltas: Optional[Mapping[str, Any]] = None,
    ) -> int:
        """Append one top-level commit's redo batch (absolute writes plus
        blind-increment deltas) for the transaction at path ``txn`` (an
        ``ActionName`` is accepted too); returns its LSN.  Safe inside
        engine latches (buffered write, leaf locks only) — and silent:
        it emits no event, so nothing is delivered under the latch."""
        wal = self._require_wal()
        started = time.monotonic() if self._metrics.enabled else None
        before = wal.appended_bytes
        lsn = wal.append_commit(txn, writes, deltas)
        count = len(writes) + (len(deltas) if deltas else 0)
        if started is not None:
            self._h_append.observe(time.monotonic() - started)
            self._c_commits.inc()
            self._c_records.inc(count + 1)
            self._c_bytes.inc(wal.appended_bytes - before)
        return lsn

    def sync(self, lsn: int) -> None:
        """Make the batch at ``lsn`` durable; must be called with no
        engine latch held (blocks on fsync / the group window)."""
        wal = self._require_wal()
        started = time.monotonic() if (
            self._metrics.enabled or self._events.enabled
        ) else None
        batched = wal.sync(lsn)
        with self._commit_count_lock:
            self._commits_since_checkpoint += 1
        if batched:
            elapsed = time.monotonic() - started if started is not None else 0.0
            if self._metrics.enabled:
                self._c_syncs.inc()
                self._c_sync_commits.inc(batched)
                self._h_sync.observe(elapsed)
            if self._events.enabled:
                self._events.emit(
                    WalSynced(lsn, batched, elapsed, self.sync_policy)
                )

    def should_checkpoint(self) -> bool:
        """True when the auto-checkpoint interval has elapsed."""
        if self.checkpoint_interval <= 0:
            return False
        with self._commit_count_lock:
            return self._commits_since_checkpoint >= self.checkpoint_interval

    # -- checkpointing -------------------------------------------------------

    def checkpoint(
        self, snapshot_fn: Callable[[], Any]
    ) -> Optional[CheckpointData]:
        """Fuzzy checkpoint: capture the WAL horizon, snapshot via
        ``snapshot_fn`` (which latches the engine itself), write the
        checkpoint durably, then rotate and truncate the log.  Returns
        ``None`` when another thread's checkpoint is already in flight.

        ``snapshot_fn`` may return either a plain values dict (the horizon
        is then read just before calling it) or an ``(lsn, values)`` pair
        captured atomically under the engine latch — required once
        increment deltas are in play, since a commit racing between the
        two captures would be double-applied by replay.
        """
        if not self._cp_lock.acquire(blocking=False):
            return None
        try:
            wal = self._require_wal()
            started = time.monotonic() if self._metrics.enabled else None
            lsn = wal.last_lsn
            snap = snapshot_fn()
            if isinstance(snap, tuple):
                lsn, values = snap
            else:
                values = snap
            data = self.checkpointer.write(lsn, values)
            wal.rotate()
            truncated = wal.truncate_through(lsn)
            self.checkpointer.prune(self.keep_checkpoints)
            with self._commit_count_lock:
                self._commits_since_checkpoint = 0
            if started is not None:
                self._c_checkpoints.inc()
                self._c_truncated.inc(truncated)
                self._h_checkpoint.observe(time.monotonic() - started)
            if self._events.enabled:
                self._events.emit(
                    CheckpointTaken(data.seq, lsn, len(values), truncated)
                )
            return data
        finally:
            self._cp_lock.release()

    def close(self) -> None:
        if self.wal is not None:
            self.wal.close()

    def __repr__(self) -> str:
        return "DurabilityManager(%r, policy=%s)" % (
            self.directory,
            self.sync_policy,
        )
