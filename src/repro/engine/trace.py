"""Execution trace recording.

Every lifecycle event and data access the engine performs is appended to
a :class:`TraceRecorder`.  Each record carries a monotonically
increasing sequence number, so the trace is a single linearization of
what happened.

**Records carry paths.**  A record names its transaction and access by
their position in the universal tree (Section 3.1) — the engine's own
``Transaction.key`` and ``key + (label,)`` tuples — so tracing a program
mints no :class:`~repro.core.naming.ActionName`.  The paper's name is
rendered (``ActionName.make(record.txn)``) only where someone reads it:
certification violations, the offline oracle's entry into
:mod:`repro.core`, the cluster merger, error messages.  The constructor
still accepts names (hand-built records) and stores their paths, and
the JSONL form was always path lists.

**Linearization argument.**  The sequence number is *reserved*
(:meth:`TraceRecorder.reserve_seq` — one atomic counter bump) while the
recording thread still holds the engine latch that serializes the
corresponding state change, so reservations happen in the order the
state changes did and the seq order respects per-object and lifecycle
causality.  The :class:`TraceRecord` object
itself is then constructed and **published off the critical path**,
after the latch is released — every engine record, aborts included:
publication order does not matter, because
:attr:`TraceRecorder.records` and :meth:`TraceRecorder.dump` present
records in seq order (late publications are re-sorted on read).  The
convenience ``record_*`` methods reserve and publish in one step, which
is equivalent to deferred publication with an empty deferral window.

One consequence of deferral: a reader that snapshots :attr:`records`
while operations are still in flight may observe seq gaps (reserved but
not yet published).  Quiescent traces — what the checker certifies —
never have in-flight reservations.  The checker package replays traces
through the formal algebras — the engine is *oracle-checked*: after any
run, its trace must form an action tree whose permanent subtree is
serializable.

Traces serialize to JSON lines (:meth:`TraceRecorder.dump` /
:meth:`TraceRecorder.load`), so executions can be archived and audited
offline — certify last night's production run on your laptop.
"""

from __future__ import annotations

import itertools
import json
import os
import tempfile
import threading
from dataclasses import dataclass
from typing import Any, IO, List, Optional, Sequence, Tuple, Union

from ..core.naming import ActionName

CREATE = "create"
PERFORM = "perform"
COMMIT = "commit"
ABORT = "abort"

#: A position in the universal tree: ``ActionName.path``, or the
#: engine's ``Transaction.key``.
Path = Tuple[Any, ...]


def _as_path(name: Union[ActionName, Sequence[Any], None]) -> Optional[Path]:
    """The path a record stores for a name given as an ``ActionName`` or
    as any sequence of atoms (``None`` stays ``None``)."""
    if name is None:
        return None
    return name.path if isinstance(name, ActionName) else tuple(name)


@dataclass(init=False)
class TraceRecord:
    """One engine event.

    ``txn`` is the transaction's path; for ``perform`` records,
    ``access`` is the path of the synthetic leaf action (a child of the
    transaction) modelling the read/write as a paper access, ``kind`` is
    "read" or "write", ``seen`` is the value the access observed (the
    paper's label u), and ``arg`` is the written value for writes (None
    for reads).  ``seq`` is the recorder-assigned sequence number (None
    for hand-built records); list position and ``seq`` order always
    agree for recorder-produced traces.  ``txn`` and ``access`` may be
    passed as :class:`ActionName` s; the record keeps their paths, so
    there is one stored form (render one with ``ActionName.make``).

    A value object: treat instances as immutable (derive variants with
    ``dataclasses.replace``).  The engine builds one per traced event, so
    the class is slotted with a hand-written ``__init__`` — a generated
    frozen ``__init__`` pays an ``object.__setattr__`` per field, five
    times the cost — and the fields are declared without class-level
    defaults because those would collide with ``__slots__``.
    """

    __slots__ = ("op", "txn", "access", "obj", "kind", "seen", "arg", "seq")

    op: str
    txn: Path
    access: Optional[Path]
    obj: Optional[str]
    kind: Optional[str]
    seen: Any
    arg: Any
    seq: Optional[int]

    def __init__(
        self,
        op: str,
        txn: Union[Path, ActionName],
        access: Union[Path, ActionName, None] = None,
        obj: Optional[str] = None,
        kind: Optional[str] = None,
        seen: Any = None,
        arg: Any = None,
        seq: Optional[int] = None,
    ) -> None:
        self.op = op
        # The engine passes tuples: one class check, no call.
        self.txn = txn if txn.__class__ is tuple else _as_path(txn)
        self.access = access if access.__class__ is tuple else _as_path(access)
        self.obj = obj
        self.kind = kind
        self.seen = seen
        self.arg = arg
        self.seq = seq

    def __hash__(self) -> int:
        return hash((self.op, self.txn, self.access, self.obj, self.kind,
                     self.seen, self.arg, self.seq))


class TraceRecorder:
    """An append-only linearized event log.

    Thread-safe.  Sequence numbers come from an atomic counter
    (:meth:`reserve_seq`) that engine threads bump while holding the
    latch serializing the recorded state change; the record itself is
    appended under the recorder's own leaf lock — possibly later, from
    outside the critical section — and readers always see records in seq
    order (out-of-order publications are sorted on read).
    """

    def __init__(self) -> None:
        self._records: List[TraceRecord] = []
        self._lock = threading.Lock()
        self._seq = itertools.count()
        self._last_seq = -1
        self._unsorted = False
        self._listeners: Tuple[Any, ...] = ()
        self.listener_errors = 0
        self.last_listener_error: Optional[BaseException] = None

    # -- listeners (live trace subscribers) --------------------------------

    def add_listener(self, listener: Any, many: Any = None) -> Any:
        """Subscribe a callable to every published record.

        Listeners run on the publishing thread, outside the recorder's
        leaf lock and outside the engine latch, so a listener may read
        the engine (``db.read_committed``) but must not block on work
        the publishing thread has yet to do.  A raising
        listener is contained (counted, never propagated) — the same
        contract as event sinks; ``NestedTransactionDB.assert_certified``
        refuses to certify a stream whose listener raised.  ``many``, when
        given, is the listener's batch form: :meth:`publish_many` hands it
        the whole batch in one call (so a consumer with its own lock takes
        it once per batch) instead of calling ``listener`` per record.
        The streaming certifier subscribes here when the engine is built
        with ``certify="streaming"``.
        """
        with self._lock:
            self._listeners = self._listeners + ((listener, many),)
        return listener

    def remove_listener(self, listener: Any) -> None:
        with self._lock:
            self._listeners = tuple(
                pair for pair in self._listeners if pair[0] is not listener
            )

    def _listener_failed(self, error: Exception) -> None:
        with self._lock:
            self.listener_errors += 1
            self.last_listener_error = error

    # -- hot-path API: reserve inside the latch, publish outside -----------

    def reserve_seq(self) -> int:
        """Claim the next sequence number.  A single atomic counter bump
        (no lock) — the only trace work engine hot paths do inside their
        critical sections."""
        return next(self._seq)

    def publish(self, record: TraceRecord) -> None:
        """Append a record whose ``seq`` was previously reserved.  Safe
        to call after the reserving critical section released its latch;
        ordering is recovered from ``seq`` on read."""
        with self._lock:
            seq = record.seq
            if seq is None or seq <= self._last_seq:
                self._unsorted = True
            else:
                self._last_seq = seq
            self._records.append(record)
        for listener, _many in self._listeners:
            try:
                listener(record)
            except Exception as error:  # noqa: BLE001 - listeners must not hurt the engine
                self._listener_failed(error)

    def publish_many(self, records: Sequence[TraceRecord]) -> None:
        """:meth:`publish` for a batch: one crossing of the recorder's
        leaf lock, and one call per listener that registered a batch
        form.  A batch of one is published as one record (the blocking
        API's usual delivery), which spares the batch bookkeeping."""
        if len(records) <= 1:
            if records:
                self.publish(records[0])
            return
        with self._lock:
            last = self._last_seq
            for record in records:
                seq = record.seq
                if seq is None or seq <= last:
                    self._unsorted = True
                else:
                    last = seq
            self._last_seq = last
            self._records.extend(records)
        for listener, many in self._listeners:
            if many is not None:
                try:
                    many(records)
                except Exception as error:  # noqa: BLE001 - listeners must not hurt the engine
                    self._listener_failed(error)
                continue
            for record in records:
                try:
                    listener(record)
                except Exception as error:  # noqa: BLE001 - listeners must not hurt the engine
                    self._listener_failed(error)

    # -- convenience API: reserve + publish in one step --------------------

    def record_create(self, txn: Union[Path, ActionName]) -> None:
        self.publish(TraceRecord(CREATE, txn, seq=next(self._seq)))

    def record_commit(self, txn: Union[Path, ActionName]) -> None:
        self.publish(TraceRecord(COMMIT, txn, seq=next(self._seq)))

    def record_abort(self, txn: Union[Path, ActionName]) -> None:
        self.publish(TraceRecord(ABORT, txn, seq=next(self._seq)))

    def record_perform(
        self,
        txn: Union[Path, ActionName],
        access: Union[Path, ActionName],
        obj: str,
        kind: str,
        seen: Any,
        arg: Any = None,
    ) -> None:
        self.publish(
            TraceRecord(PERFORM, txn, access, obj, kind, seen, arg, next(self._seq))
        )

    @property
    def records(self) -> Tuple[TraceRecord, ...]:
        with self._lock:
            if self._unsorted:
                self._records.sort(
                    key=lambda r: -1 if r.seq is None else r.seq
                )
                self._unsorted = False
            return tuple(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self._seq = itertools.count()
            self._last_seq = -1
            self._unsorted = False

    # -- persistence (JSON lines) ---------------------------------------------

    def dump(self, destination: Union[str, IO[str]]) -> None:
        """Write the trace as JSON lines (one record per line).

        Values must be JSON-serializable (ints/strings in all shipped
        workloads).  Files are always written UTF-8 with non-ASCII object
        names and values kept readable (``ensure_ascii=False``) — never
        the locale's default encoding, so a trace dumped under one locale
        loads under any other.

        Path destinations are written **atomically** (temp file in the
        same directory, fsync, then ``os.replace``): a crash mid-dump
        leaves either the previous file or the complete new one, never a
        torn trace — the crash-restart harness trusts on-disk artifacts
        on exactly this guarantee.
        """
        if isinstance(destination, str):
            directory = os.path.dirname(os.path.abspath(destination))
            fd, tmp = tempfile.mkstemp(
                dir=directory,
                prefix=os.path.basename(destination) + ".",
                suffix=".tmp",
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    self.dump(fh)
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, destination)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            return
        for record in self.records:  # seq-sorted snapshot
            destination.write(
                json.dumps(_record_to_json(record), ensure_ascii=False) + "\n"
            )

    @classmethod
    def load(cls, source: Union[str, IO[str]]) -> "TraceRecorder":
        """Read a trace previously written by :meth:`dump`."""
        if isinstance(source, str):
            with open(source, encoding="utf-8") as fh:
                return cls.load(fh)
        recorder = cls()
        for line in source:
            line = line.strip()
            if line:
                recorder._records.append(_record_from_json(json.loads(line)))
        if recorder._records:
            top = max(
                (r.seq for r in recorder._records if r.seq is not None),
                default=len(recorder._records) - 1,
            )
            recorder._seq = itertools.count(top + 1)
        return recorder


def _path_to_json(path: Optional[Path]) -> Optional[list]:
    return None if path is None else list(path)


def _path_from_json(path: Optional[list]) -> Optional[Path]:
    # Through ActionName for its atom validation (ints and strings only).
    return None if path is None else ActionName(tuple(path)).path


def _record_to_json(record: TraceRecord) -> dict:
    return {
        "op": record.op,
        "txn": _path_to_json(record.txn),
        "access": _path_to_json(record.access),
        "obj": record.obj,
        "kind": record.kind,
        "seen": record.seen,
        "arg": record.arg,
        "seq": record.seq,
    }


def _record_from_json(data: dict) -> TraceRecord:
    return TraceRecord(
        op=data["op"],
        txn=_path_from_json(data["txn"]),
        access=_path_from_json(data.get("access")),
        obj=data.get("obj"),
        kind=data.get("kind"),
        seen=data.get("seen"),
        arg=data.get("arg"),
        seq=data.get("seq"),
    )


class TraceBusBridge:
    """Trace listener that republishes every record on an event bus as a
    ``trace_record`` event (:class:`repro.obs.TraceRecorded`).

    Attach with ``db.trace.add_listener(TraceBusBridge(db.events))`` and
    any JSONL event sink then carries the full seq-ordered trace stream
    interleaved with the engine's lifecycle events — the stream
    ``scripts/certify_stream.py`` certifies.  The bridge is a leaf
    consumer: it only calls ``bus.emit`` (which takes leaf locks).
    """

    def __init__(self, bus: Any) -> None:
        from ..obs import TraceRecorded

        self._bus = bus
        self._event_type = TraceRecorded
        self.forwarded = 0

    def __call__(self, record: TraceRecord) -> None:
        self._bus.emit(self._event_type(_record_to_json(record)))
        self.forwarded += 1
