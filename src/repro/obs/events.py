"""Structured engine events and the bus that fans them out to sinks.

Every noteworthy engine transition has a typed event.  The engine builds
them *guarded* (``if db.events.enabled``) so a bus with no sinks costs one
attribute load; with sinks attached, the engine queues each event under
its latch and delivers it after the latch is released (its one
publication rule, see ``repro.engine.database``).

A sink that raises does not disturb the engine: the bus swallows the
exception, counts it in :attr:`EventBus.sink_errors` and remembers the
last one — CI checks that counter and fails the build when it is
non-zero (see ``scripts/smoke_bench.py --with-metrics``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple


def _json_safe(value: Any) -> Any:
    """Events carry engine-native values (e.g. ActionName); flatten them
    to JSON-friendly shapes for the dict/JSONL representations."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return str(value)


@dataclass
class Event:
    """Base event: ``kind`` identifies the type, ``ts`` is stamped by the
    bus (wall-clock seconds) when the event is emitted."""

    kind: str = field(init=False, default="event")
    ts: Optional[float] = field(init=False, default=None)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"kind": self.kind, "ts": self.ts}
        for f in fields(self):
            if f.name in ("kind", "ts"):
                continue
            data[f.name] = _json_safe(getattr(self, f.name))
        return data


@dataclass
class TxnBegun(Event):
    txn: Any = None
    parent: Any = None

    def __post_init__(self) -> None:
        self.kind = "txn_begun"


@dataclass
class LockWaited(Event):
    """A lock request blocked and has now resumed (granted, re-checking,
    victimized or timed out); ``seconds`` is the time spent parked."""

    txn: Any = None
    obj: Optional[str] = None
    mode: Optional[str] = None
    seconds: float = 0.0

    def __post_init__(self) -> None:
        self.kind = "lock_waited"


@dataclass
class DeadlockDetected(Event):
    txn: Any = None
    cycle: Tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        self.kind = "deadlock_detected"


@dataclass
class VictimChosen(Event):
    victim: Any = None
    policy: Optional[str] = None
    requester: Any = None
    cycle_length: int = 0

    def __post_init__(self) -> None:
        self.kind = "victim_chosen"


@dataclass
class TxnCommitted(Event):
    txn: Any = None
    objects: int = 0  # locks passed upward (or retired to U at top level)

    def __post_init__(self) -> None:
        self.kind = "txn_committed"


@dataclass
class TxnAborted(Event):
    txn: Any = None
    reason: Optional[str] = None

    def __post_init__(self) -> None:
        self.kind = "txn_aborted"


@dataclass
class LockInherited(Event):
    """Commit-time inheritance: the committer's locks passed to its
    parent (``parent is None`` means retired to U)."""

    txn: Any = None
    parent: Any = None
    objects: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self.kind = "lock_inherited"


@dataclass
class OrphanReaped(Event):
    """A transaction discovered its ancestor died and its subtree was
    reaped — or a lazy-cleanup request reaped a dead holder's lock."""

    txn: Any = None
    reason: Optional[str] = None

    def __post_init__(self) -> None:
        self.kind = "orphan_reaped"


@dataclass
class FailureInjected(Event):
    label: Optional[str] = None

    def __post_init__(self) -> None:
        self.kind = "failure_injected"


@dataclass
class WalCommitLogged(Event):
    """A top-level commit's redo batch was appended to the WAL (not yet
    necessarily fsync'd — see ``wal_synced``)."""

    txn: Any = None
    lsn: int = 0
    objects: int = 0

    def __post_init__(self) -> None:
        self.kind = "wal_commit_logged"


@dataclass
class WalSynced(Event):
    """An fsync made the log durable through ``lsn``; ``commits`` is how
    many commit batches this single fsync covered (group commit > 1)."""

    lsn: int = 0
    commits: int = 0
    seconds: float = 0.0
    policy: Optional[str] = None

    def __post_init__(self) -> None:
        self.kind = "wal_synced"


@dataclass
class CheckpointTaken(Event):
    """A fuzzy checkpoint was written durably and the WAL truncated."""

    seq: int = 0
    lsn: int = 0
    objects: int = 0
    truncated_segments: int = 0

    def __post_init__(self) -> None:
        self.kind = "checkpoint_taken"


@dataclass
class RecoveryCompleted(Event):
    """A durability directory was replayed into a fresh engine."""

    commits_replayed: int = 0
    records_discarded: int = 0
    checkpoint_seq: int = 0
    last_lsn: int = 0
    clean: bool = True

    def __post_init__(self) -> None:
        self.kind = "recovery_completed"


@dataclass
class TraceRecorded(Event):
    """One engine trace record, republished on the bus (see
    ``repro.engine.trace.TraceBusBridge``).  ``record`` is the record's
    JSON form — the same shape ``TraceRecorder.dump`` writes — so a JSONL
    event stream doubles as a certifiable trace stream."""

    record: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        self.kind = "trace_record"


class EventBus:
    """Fan-out of engine events to attached sinks.

    ``enabled`` is true iff at least one sink is attached; the engine's
    hot paths test it before building event objects, so an unused bus is
    a single attribute load.  Sink failures are contained (counted, never
    raised); attach/detach are thread-safe.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sinks: Tuple[Any, ...] = ()
        self.enabled = False
        self.emitted = 0
        self.sink_errors = 0
        self.last_sink_error: Optional[BaseException] = None

    def attach(self, sink: Any) -> Any:
        """Attach a sink (anything with ``handle(event)``); returns it."""
        with self._lock:
            self._sinks = self._sinks + (sink,)
            self.enabled = True
        return sink

    def detach(self, sink: Any) -> None:
        with self._lock:
            self._sinks = tuple(s for s in self._sinks if s is not sink)
            self.enabled = bool(self._sinks)

    @property
    def sinks(self) -> Tuple[Any, ...]:
        return self._sinks

    def emit(self, event: Event) -> None:
        """Stamp and deliver one event to every sink.  Never raises."""
        event.ts = time.time()
        with self._lock:
            self.emitted += 1
        for sink in self._sinks:
            try:
                sink.handle(event)
            except Exception as error:  # noqa: BLE001 - sinks must not hurt the engine
                with self._lock:
                    self.sink_errors += 1
                    self.last_sink_error = error

    def close(self) -> None:
        """Close every sink that supports closing (JSONL file sinks)."""
        for sink in self._sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                try:
                    close()
                except Exception as error:  # noqa: BLE001
                    with self._lock:
                        self.sink_errors += 1
                        self.last_sink_error = error


#: The full event taxonomy, for docs and sink filtering.
EVENT_KINDS: List[str] = [
    "txn_begun",
    "lock_waited",
    "deadlock_detected",
    "victim_chosen",
    "txn_committed",
    "txn_aborted",
    "lock_inherited",
    "orphan_reaped",
    "failure_injected",
    "wal_commit_logged",
    "wal_synced",
    "checkpoint_taken",
    "recovery_completed",
    "trace_record",
]
