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
causality.  The record's fields are then **published off the critical
path**, after the latch is released — every engine record, aborts
included: publication order does not matter, because
:attr:`TraceRecorder.records` and :meth:`TraceRecorder.dump` present
records in seq order (late publications are re-sorted on read).  The
convenience ``record_*`` methods reserve and publish in one step, which
is equivalent to deferred publication with an empty deferral window.

**One delivery per top-level.**  The engine publishes a top-level
transaction's rows — its own and its whole subtree's, in seq order —
in one :meth:`TraceRecorder.publish_rows` call when it commits or
aborts (whoever aborts it: its own thread or another thread's deadlock
sweep), not row by row.  So the recorder, and every listener, hears of
a top-level only once it has finished, and
:attr:`~TraceRecorder.records` read while a top-level is live does not
show that top-level's rows yet: read the trace after the transactions
you care about have finished (at quiescence it is the whole trace).
Overlapping top-levels are published in the order they finish, which is
not seq order; a listener that needs seq order restores it (the
streaming certifier merges each top-level's rows as one sorted run,
:class:`~repro.checker.window.ReorderBuffer`).

**Storage is columnar.**  The recorder keeps every record, but not as
an object: one ``array('q')`` of seqs, one byte per record coding its
``op`` and ``kind``, and a list per remaining field holding shared
references — the transaction's path (one tuple per transaction, however
many records name it), the object name, ``seen``, ``arg`` and the
access.  An engine access is always ``txn + (label,)``, so the access
column holds just the label (``"w13"`` comes from one table shared by
every transaction, see ``Transaction.next_access_label``) and the path
is rebuilt on read; an access that is not a child of its ``txn`` (a
hand-built record, the cluster merger's) is kept as given.  A
:class:`TraceRecord` is built only when someone reads one —
:attr:`~TraceRecorder.records`, :meth:`~TraceRecorder.dump`, a live
listener — so a trace nobody listens to builds none, and a certified
program retains about 2.1 kB of trace instead of the 6.8 kB its records,
access tuples and label strings took as objects (``docs/performance.md``).

One consequence of deferral: a reader that snapshots :attr:`records`
while transactions are still in flight sees none of the live top-levels'
rows, and may see seq gaps where they will land.  Quiescent traces —
what the checker certifies — have none.  The checker package replays
traces through the formal algebras — the engine is *oracle-checked*:
after any run, its trace must form an action tree whose permanent
subtree is serializable.

Traces serialize to JSON lines (:meth:`TraceRecorder.dump` /
:meth:`TraceRecorder.load`), so executions can be archived and audited
offline — certify last night's production run on your laptop.
"""

from __future__ import annotations

import itertools
import json
from array import array
import os
import tempfile
import threading
from dataclasses import dataclass
from typing import Any, IO, Iterator, List, Optional, Sequence, Tuple, Union

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
    ``dataclasses.replace``).  The recorder builds one per record read
    and per record a live listener hears, so the class is slotted with a
    hand-written ``__init__`` — a generated
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


#: The ``op`` and ``kind`` a stored record may have: a record's code byte
#: is ``op index * len(_KINDS) + kind index``.
_OPS = (CREATE, PERFORM, COMMIT, ABORT)
_KINDS = (None, "read", "write", "increment", "read_for_update", "snapshot")
_OP_CODES = {op: index * len(_KINDS) for index, op in enumerate(_OPS)}
_KIND_CODES = {kind: index for index, kind in enumerate(_KINDS)}
_PAIRS = tuple((op, kind) for op in _OPS for kind in _KINDS)
#: The code of a row the columns cannot hold (an ``op`` or ``kind``
#: outside the tables, a seq that is not a 64-bit int): its record is
#: kept whole, in the ``txn`` column.
_WHOLE = 255
#: What the seq column stores for ``seq=None``.
_NO_SEQ = -(1 << 63)

#: A record as the recorder stores it: ``(op, txn, leaf, obj, kind,
#: seen, arg, seq)``.  ``leaf`` is ``None`` (no access), an atom (the
#: access is ``txn + (leaf,)``) or a path tuple (the access as given).
Row = Tuple[Any, ...]


def _row(record: TraceRecord) -> Row:
    """The row of a record: its access stored as a label when it is a
    child of ``txn``, as given otherwise."""
    txn, leaf = record.txn, record.access
    if leaf is not None and txn.__class__ is tuple:
        depth = len(txn)
        if (len(leaf) == depth + 1 and leaf[depth].__class__ is not tuple
                and leaf[:depth] == txn):
            leaf = leaf[depth]
    return (record.op, txn, leaf, record.obj, record.kind, record.seen,
            record.arg, record.seq)


_new_record = object.__new__


def _record(op: str, txn: Path, leaf: Any, obj: Optional[str],
            kind: Optional[str], seen: Any, arg: Any,
            seq: Optional[int]) -> TraceRecord:
    """The record a row stands for.  A row holds paths already, so the
    slots are filled directly, skipping the constructor's conversions
    and its slower call through ``type``: every record a listener hears
    is built here."""
    record = _new_record(TraceRecord)
    record.op = op
    record.txn = txn
    record.access = (
        None if leaf is None else leaf if leaf.__class__ is tuple
        else txn + (leaf,)
    )
    record.obj = obj
    record.kind = kind
    record.seen = seen
    record.arg = arg
    record.seq = seq
    return record


def _sort_key(code: int, txn: Any, seq: int) -> int:
    """A stored row's position key: its seq, ``-1`` for ``seq=None``."""
    if code == _WHOLE:
        seq = txn.seq
        return -1 if seq is None else seq
    return -1 if seq == _NO_SEQ else seq


class TraceRecorder:
    """An append-only linearized event log, stored as columns.

    Thread-safe.  Sequence numbers come from an atomic counter
    (:meth:`reserve_seq`) that engine threads bump while holding the
    latch serializing the recorded state change; the record itself is
    appended under the recorder's own leaf lock — possibly later, from
    outside the critical section — and readers always see records in seq
    order (out-of-order publications are sorted on read).

    Records are stored as a row across seven columns (see the module
    docstring) and built as :class:`TraceRecord` s on read.  The columns
    only ever grow in place; a sort or :meth:`clear` installs new ones,
    so a reader that took the columns and a length under the lock may
    build records from them after releasing it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._seq = itertools.count()
        self._listeners: Tuple[Any, ...] = ()
        self.listener_errors = 0
        self.last_listener_error: Optional[BaseException] = None
        self._reset()

    def _reset(self) -> None:
        self._seqs = array("q")
        self._codes = bytearray()
        self._txns: List[Any] = []
        self._leaves: List[Any] = []
        self._objs: List[Optional[str]] = []
        self._seens: List[Any] = []
        self._args: List[Any] = []
        self._last_seq = -1
        self._unsorted = False

    # -- listeners (live trace subscribers) --------------------------------

    def add_listener(self, listener: Any, *, rows: Any = None) -> Any:
        """Subscribe a callable to every published record.

        Listeners run on the publishing thread, outside the recorder's
        leaf lock and outside the engine latch, so a listener may read
        the engine (``db.read_committed``) but must not block on work
        the publishing thread has yet to do.  A raising
        listener is contained (counted, never propagated) — the same
        contract as event sinks; ``NestedTransactionDB.assert_certified``
        refuses to certify a stream whose listener raised.

        ``rows``, when given, is the listener's *row form*: each
        publication is handed to it in one call as the rows themselves
        (:meth:`publish_rows`' form, ascending in seq within the call:
        from the engine, the rows of the top-levels that just finished),
        and ``listener`` is not called — no :class:`TraceRecord` is
        built for it.  The streaming certifier subscribes this way when
        the engine is built with ``certify="streaming"``.  A listener
        without a row form hears each record as a :class:`TraceRecord`.
        """
        with self._lock:
            self._listeners = self._listeners + ((listener, rows),)
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
        self.publish_rows((_row(record),), (record,))

    def publish_many(self, records: Sequence[TraceRecord]) -> None:
        """:meth:`publish` for a batch: one crossing of the recorder's
        leaf lock, and one call per listener with a row form."""
        if records:
            self.publish_rows([_row(record) for record in records], records)

    def publish_rows(
        self,
        rows: Sequence[Row],
        records: Optional[Sequence[TraceRecord]] = None,
    ) -> None:
        """:meth:`publish_many` for records given as their fields — the
        engine's form, one call per finished top-level's rows (or the
        rows of several, merged by seq).  Each
        row is ``(op, txn, leaf, obj, kind, seen, arg, seq)``: ``txn`` a
        path tuple, ``leaf`` ``None`` (no access), an atom (the access is
        ``txn + (leaf,)``) or a path tuple (the access itself).  The rows
        are stored, then handed to each listener: to a row form as they
        are, in one call; to any other listener record by record —
        ``records`` when the caller has them, else built here once."""
        with self._lock:
            seqs, codes = self._seqs, self._codes
            txns, leaves, objs = self._txns, self._leaves, self._objs
            seens, args = self._seens, self._args
            last = self._last_seq
            try:
                for op, txn, leaf, obj, kind, seen, arg, seq in rows:
                    if seq is None:
                        self._unsorted = True
                        stored = _NO_SEQ
                    elif seq <= last:
                        self._unsorted = True
                        # The int that codes None is kept whole.
                        stored = None if seq == _NO_SEQ else seq
                    else:
                        last = stored = seq
                    try:
                        code = _OP_CODES[op] + _KIND_CODES[kind]
                        seqs.append(stored)
                    except (KeyError, TypeError, OverflowError):
                        seqs.append(0)
                        code = _WHOLE
                        txn = _record(op, txn, leaf, obj, kind, seen, arg, seq)
                        leaf = obj = seen = arg = None
                    codes.append(code)
                    txns.append(txn)
                    leaves.append(leaf)
                    objs.append(obj)
                    seens.append(seen)
                    args.append(arg)
            finally:
                self._last_seq = last
            listeners = self._listeners
        if not rows:
            return
        for listener, row_form in listeners:
            if row_form is not None:
                try:
                    row_form(rows)
                except Exception as error:  # noqa: BLE001 - listeners must not hurt the engine
                    self._listener_failed(error)
                continue
            if records is None:
                records = [_record(*row) for row in rows]
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

    # -- reading -----------------------------------------------------------

    def _sort_locked(self) -> None:
        """Install the columns in seq order (``None`` first, ties in
        publication order) — new columns, never a reorder in place."""
        seqs, codes, txns = self._seqs, self._codes, self._txns
        order = sorted(
            range(len(seqs)),
            key=lambda i: _sort_key(codes[i], txns[i], seqs[i]),
        )
        self._seqs = array("q", [seqs[i] for i in order])
        self._codes = bytearray([codes[i] for i in order])
        self._txns = [txns[i] for i in order]
        self._leaves = [self._leaves[i] for i in order]
        self._objs = [self._objs[i] for i in order]
        self._seens = [self._seens[i] for i in order]
        self._args = [self._args[i] for i in order]
        self._unsorted = False

    def _iter_records(self) -> Iterator[TraceRecord]:
        """Build the records in seq order, one at a time, from the
        columns as they stand when iteration starts."""
        with self._lock:
            if self._unsorted:
                self._sort_locked()
            count = len(self._seqs)
            columns = (self._codes, self._txns, self._leaves, self._objs,
                       self._seens, self._args, self._seqs)
        for _, code, txn, leaf, obj, seen, arg, seq in zip(range(count), *columns):
            if code == _WHOLE:
                yield txn
                continue
            op, kind = _PAIRS[code]
            yield _record(op, txn, leaf, obj, kind, seen, arg,
                          None if seq == _NO_SEQ else seq)

    @property
    def records(self) -> Tuple[TraceRecord, ...]:
        return tuple(self._iter_records())

    def __len__(self) -> int:
        with self._lock:
            return len(self._seqs)

    def clear(self) -> None:
        with self._lock:
            self._reset()
            self._seq = itertools.count()

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
        for record in self._iter_records():  # seq order, built one by one
            destination.write(
                json.dumps(_record_to_json(record), ensure_ascii=False) + "\n"
            )

    @classmethod
    def load(cls, source: Union[str, IO[str]]) -> "TraceRecorder":
        """Read a trace previously written by :meth:`dump`; records read
        back in file order."""
        if isinstance(source, str):
            with open(source, encoding="utf-8") as fh:
                return cls.load(fh)
        recorder = cls()
        top: Optional[int] = None
        for line in source:
            line = line.strip()
            if line:
                record = _record_from_json(json.loads(line))
                recorder.publish_rows((_row(record),))
                if record.seq is not None and (top is None or record.seq > top):
                    top = record.seq
        count = len(recorder)
        if count:
            recorder._unsorted = False  # file order, as written
            recorder._seq = itertools.count((count - 1 if top is None else top) + 1)
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
