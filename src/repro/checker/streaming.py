"""Streaming consistency certification: Theorem 9, applied incrementally.

The offline oracle (:mod:`repro.checker.history`) certifies a *finished*
trace by building the full augmented action tree and checking the two
conditions of the paper's polynomial characterization (Theorem 9, in its
read/write refinement): every permanent data step's label equals the
replay of its visible predecessors, and the conflict-induced sibling
precedence is acyclic.  E8 measures what the exponential exact oracle
costs; even the polynomial one wants the whole trace in memory.

:class:`StreamingCertifier` applies the same characterization *online*,
consuming the engine's seq-ordered trace stream as it is produced and
holding only a rolling window:

* **Version compatibility, incrementally.**  Per object it keeps one
  replayed "permanent value" plus a FIFO of accesses whose fate (will
  this access survive into ``perm(T)``?) is not yet known.  An access's
  fate resolves when its top-level transaction commits or aborts; the
  FIFO pops in data order the moment every earlier same-object access
  has a known fate, checking ``seen == replayed value`` for survivors
  and discarding the rest.  This is exactly
  ``label(A) == result(x, v-data(A))`` over ``perm(T)``, evaluated as
  early as it is determined.

* **Serialization-cycle detection, incrementally.**  Conflicting
  permanent access pairs on an object induce precedence edges between
  the siblings under their least common ancestor (Theorem 9(b) /
  ``conflict_sibling_edges``).  Pairs in *different* top-level
  transactions always meet at ``U``, so cross-transaction edges live in
  one rolling top-level conflict graph, checked for a cycle at every
  edge insertion — a violation is flagged the moment the forbidden
  cycle closes.  Pairs *inside* one top-level transaction are checked
  at its commit, when its permanent subtree is exactly known.

* **Bounded memory (the watermark rule).**  A committed transaction's
  node and applied accesses retire once every transaction concurrent
  with it has resolved (:class:`~repro.checker.window.RetirementClock`).
  After that point no new edge can terminate at it: a new edge ``X → T``
  needs an access of ``X`` *before* an access of ``T`` in some object's
  data order, and every transaction holding such an access has already
  resolved and been paired.  Window size is therefore O(concurrent
  transactions), not O(trace length) — the property that lets the
  certifier run against production traffic instead of post-hoc test
  runs.

Two access shapes beyond plain read/write ride the same machinery:

* **Blind increments** (``kind="increment"``) carry no observed value —
  there is no label to check; the replay *applies* the delta instead,
  and increment/increment pairs induce no precedence edge (the update
  functions commute, exactly the (d13) relaxation in the level-2
  read/write algebra).

* **Snapshot transactions** (a ``create`` record with
  ``kind="snapshot"`` carrying the horizon stamp) never enter the
  per-object FIFOs: their reads are validated eagerly against a
  *stamped committed-state replay* — committed values keyed by the
  commit stamps that top-level ``commit`` records carry — at the
  transaction's horizon, with failures buffered and emitted only if the
  snapshot transaction commits (its permanent reads serialize at the
  horizon, before every later-stamped writer).  Routing them through
  the FIFO would deadlock the head behind unresolved writers and
  manufacture false conflicts; the separate replay is what makes
  snapshot reads certifiable online.

The certifier is thread-safe (one leaf lock; it never calls back into
the engine) and is fed either live — wired to the engine's trace
recorder via ``NestedTransactionDB(certify="streaming")`` — or from
JSONL trace/event streams (``scripts/certify_stream.py``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.action_tree import ABORTED, ACTIVE, COMMITTED
from ..core.naming import ActionName
from ..engine.trace import (
    ABORT,
    COMMIT,
    CREATE,
    PERFORM,
    Path,
    Row,
    TraceRecord,
    _record_from_json,
    _row,
)
from .history import OracleViolation, _name
from .window import ReorderBuffer, RetirementClock

#: Violation kinds a streaming report may carry.
VERSION = "version-incompatibility"
CYCLE = "serialization-cycle"
FAMILY_CYCLE = "family-cycle"
PROTOCOL = "protocol"

#: Internal fate marker for top-level transactions that never resolved
#: (stream ended mid-flight); their accesses are dropped, as ``perm(T)``
#: drops the subtrees of ACTIVE transactions.
_UNRESOLVED = "unresolved"


class StreamingViolation(OracleViolation):
    """Raised by :meth:`StreamingCertifier.raise_on_violation` — a
    subclass of :class:`OracleViolation` so callers treating the offline
    and streaming certifiers uniformly catch one type."""


@dataclass(frozen=True)
class Violation:
    """One certification failure, with the offending names attached.

    ``kind`` is one of :data:`VERSION`, :data:`CYCLE`,
    :data:`FAMILY_CYCLE`, :data:`PROTOCOL`.  ``txns`` names the involved
    transactions (for cycles: the cycle, in order); ``accesses`` the
    witnessing conflicting accesses, when applicable.
    """

    kind: str
    message: str
    seq: Optional[int] = None
    obj: Optional[str] = None
    txns: Tuple[ActionName, ...] = ()
    accesses: Tuple[ActionName, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "message": self.message,
            "seq": self.seq,
            "obj": self.obj,
            "txns": [list(name.path) for name in self.txns],
            "accesses": [list(name.path) for name in self.accesses],
        }


@dataclass
class StreamingReport:
    """Verdict plus window statistics for one certified stream."""

    ok: bool
    violations: Tuple[Violation, ...]
    records: int
    permanent_accesses: int
    dropped_accesses: int
    stats: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
            "records": self.records,
            "permanent_accesses": self.permanent_accesses,
            "dropped_accesses": self.dropped_accesses,
            "stats": dict(self.stats),
        }


class _Access:
    """One perform row riding through the window.  ``owner`` is its
    transaction's path (the row's ``txn``) and ``leaf`` the row's leaf:
    a label (the access is ``owner + (leaf,)``) or the access's path."""

    __slots__ = ("leaf", "owner", "top", "obj", "kind", "seen", "arg",
                 "seq", "fate")

    def __init__(self, leaf, owner, top, obj, kind, seen, arg, seq):
        self.leaf = leaf
        self.owner = owner
        self.top = top  # the owning _TopTxn; unlinked at retirement
        self.obj = obj
        self.kind = kind
        self.seen = seen
        self.arg = arg
        self.seq = seq
        self.fate: Optional[bool] = None  # None = unknown; True = permanent

    @property
    def access(self) -> Path:
        """The access's path, built when read (names, family checks)."""
        return _access_path(self.owner, self.leaf)


class _TopTxn:
    """Window state of one top-level transaction.  Instances are the
    keys of the conflict graph and the retirement clock (by identity),
    so a reused top-level label never aliases an earlier incarnation.

    Its accesses point back at it; retirement empties its access lists,
    so a retired top and its accesses are freed by reference count, not
    left for the cyclic collector."""

    __slots__ = ("path", "status", "resolve_seq", "nested", "accesses",
                 "objects", "snapshot_horizon", "snapshot_failures")

    def __init__(self, path: Path) -> None:
        self.path = path
        self.status = ACTIVE
        self.resolve_seq: Optional[int] = None
        #: Statuses of this top's nested (depth >= 2) transactions, keyed
        #: by path tuple.
        self.nested: Dict[Path, str] = {}
        self.accesses: List[_Access] = []
        self.objects: Set[str] = set()
        #: Horizon stamp of a snapshot (read-only) transaction, else None.
        self.snapshot_horizon: Optional[int] = None
        #: Eagerly-detected snapshot misreads as (access, expected) —
        #: flagged at commit (permanent accesses only), dropped at abort.
        self.snapshot_failures: List[Tuple[_Access, Any]] = []


class StreamingCertifier:
    """Incremental Theorem-9 certifier over a seq-ordered trace stream.

    ``initial`` is the a-priori value assignment replay starts from (for
    a recovered engine: the recovered values, exactly as the offline
    oracle uses ``db.initial_values``).  Feed it trace rows as the
    recorder stores them (:meth:`feed_rows`, the engine's delivery: the
    rows of the top-levels that just finished), :class:`TraceRecord`
    instances (:meth:`feed` / :meth:`feed_many`) or their JSONL dict
    form (:meth:`feed_dict`); read ``violations`` at any time, and call
    :meth:`finish` at end of stream for the final report (unresolved
    transactions are then treated as non-permanent, matching ``perm(T)``).

    Every form is ingested as rows, which carry path tuples, and the
    certifier works on them directly — no :class:`TraceRecord` is built
    for the rows it is fed and no :class:`ActionName` is constructed or
    interned while certifying; names are rendered for a
    :class:`Violation` alone.
    """

    def __init__(self, initial: Mapping[str, Any]) -> None:
        self._lock = threading.Lock()
        self._values: Dict[str, Any] = dict(initial)
        #: Stamped committed-state replay for snapshot validation: the
        #: committed value of each object, advanced when a top-level
        #: ``commit`` record (carrying its stamp) ingests, plus a pruned
        #: per-object ``(stamp, value)`` history mirroring the engine's.
        self._committed: Dict[str, Any] = dict(initial)
        self._history: Dict[str, List[Tuple[int, Any]]] = {
            obj: [(0, value)] for obj, value in initial.items()
        }
        self._committed_stamp = 0
        #: Horizons of still-active snapshot transactions (prune floor).
        self._active_horizons: Dict[_TopTxn, int] = {}
        self._reorder: ReorderBuffer[Row] = ReorderBuffer(seq_of=itemgetter(7))
        self._clock = RetirementClock()
        self._seq_clock = -1  # last ingested seq (arrival-ordered fallback)
        #: Unretired tops by top-level label (``path[0]``); evicted
        #: at retirement, so a label reused later starts a fresh entry.
        self._tops: Dict[Any, _TopTxn] = {}
        #: Per object: accesses whose fate is not yet known, data order
        #: (a list: most FIFOs hold one access, and a one-element list is
        #: the cheapest container to create and drop).
        self._pending: Dict[str, List[_Access]] = {}
        #: Per object: permanent accesses of unretired transactions.
        self._applied: Dict[str, List[_Access]] = {}
        #: Rolling top-level conflict graph: a -> {b: edge witness}.
        self._succ: Dict[_TopTxn, Dict[_TopTxn, Tuple]] = {}
        self._pred: Dict[_TopTxn, Set[_TopTxn]] = {}
        self._violations: List[Violation] = []
        self._warned_objects: Set[str] = set()
        self._finished = False
        # Counters and high-water marks (the E11 memory measurements).
        self.records = 0
        self.permanent_accesses = 0
        self.dropped_accesses = 0
        self._pending_count = 0
        self._applied_count = 0
        self._edge_count = 0
        self.max_live_tops = 0
        self.max_pending_accesses = 0
        self.max_applied_accesses = 0
        self.max_graph_edges = 0

    # -- public API --------------------------------------------------------

    @property
    def violations(self) -> Tuple[Violation, ...]:
        with self._lock:
            return tuple(self._violations)

    @property
    def ok(self) -> bool:
        return not self._violations

    def feed(self, record: TraceRecord) -> None:
        """Consume one trace record (any thread; possibly out of seq
        order — a reorder window restores the published linearization)."""
        row = _row(record)
        with self._lock:
            if self._finished:
                raise RuntimeError("certifier already finished")
            if self._reorder.ready(row[7]):  # in order: no buffering
                self._ingest(row)
            else:
                for ready in self._reorder.push(row[7], row):
                    self._ingest(ready)

    def feed_many(self, records: Sequence[TraceRecord]) -> None:
        """:meth:`feed` for a batch in any order, under one crossing of
        the lock."""
        rows = [_row(record) for record in records]
        with self._lock:
            if self._finished:
                raise RuntimeError("certifier already finished")
            ready, push = self._reorder.ready, self._reorder.push
            for row in rows:
                if ready(row[7]):
                    self._ingest(row)
                else:
                    for held in push(row[7], row):
                        self._ingest(held)

    def feed_rows(self, rows: Sequence[Row]) -> None:
        """The row form (``TraceRecorder.add_listener(..., rows=...)``):
        consume rows ``(op, txn, leaf, obj, kind, seen, arg, seq)`` given
        in ascending seq order — a finished top-level's family, or
        several merged by seq, as the engine delivers them — in one
        locked pass.  The rows are held as one run while a gap before
        them is open, and ingested as they are.  A top-level's family
        that arrives in turn while the window is empty is certified in
        one pass over its rows (:meth:`_settle_alone`)."""
        with self._lock:
            if self._finished:
                raise RuntimeError("certifier already finished")
            ready = self._reorder.push_run(rows)
            if (ready is rows and not self._clock.live_count()
                    and self._settle_alone(rows)):
                return
            ingest = self._ingest
            for row in ready:
                ingest(row)

    def feed_dict(self, data: Mapping[str, Any]) -> None:
        """Consume one JSONL-decoded trace record (the ``dump`` format of
        :class:`~repro.engine.trace.TraceRecorder`)."""
        self.feed(_record_from_json(dict(data)))

    def finish(self) -> StreamingReport:
        """End of stream: flush the reorder window, drop every access of
        still-unresolved transactions (they are not in ``perm(T)``), and
        return the final report.  Idempotent."""
        with self._lock:
            if not self._finished:
                for rec in self._reorder.drain():
                    self._ingest(rec)
                for top in [
                    t for t in self._tops.values() if t.status == ACTIVE
                ]:
                    self._resolve_top(top, _UNRESOLVED, None)
                self._retire()
                self._finished = True
            return self._report_locked()

    def report(self) -> StreamingReport:
        """A snapshot report without finalizing the stream."""
        with self._lock:
            return self._report_locked()

    def raise_on_violation(self) -> None:
        """Raise :class:`StreamingViolation` when any violation has been
        flagged so far."""
        with self._lock:
            if self._violations:
                first = self._violations[0]
                raise StreamingViolation(
                    "%d streaming certification violation(s); first: [%s] %s"
                    % (len(self._violations), first.kind, first.message)
                )

    # -- ingestion ---------------------------------------------------------

    def _report_locked(self) -> StreamingReport:
        return StreamingReport(
            ok=not self._violations,
            violations=tuple(self._violations),
            records=self.records,
            permanent_accesses=self.permanent_accesses,
            dropped_accesses=self.dropped_accesses,
            stats={
                "live_tops": len(self._tops),
                "max_live_tops": self.max_live_tops,
                "pending_accesses": self._pending_count,
                "max_pending_accesses": self.max_pending_accesses,
                "applied_accesses": self._applied_count,
                "max_applied_accesses": self.max_applied_accesses,
                "graph_edges": self._edge_count,
                "max_graph_edges": self.max_graph_edges,
                "retired_tops": self._clock.retired,
                "reorder_buffered": len(self._reorder),
                "reorder_high_water": self._reorder.buffered_high_water,
            },
        )

    def _flag(self, violation: Violation) -> None:
        self._violations.append(violation)

    def _flag_absent(self, obj: str, seq: Optional[int],
                     access: Path) -> None:
        """Flag the first permanent access to an object the initial
        values do not name (once per object)."""
        if obj not in self._warned_objects:
            self._warned_objects.add(obj)
            self._flag(Violation(
                PROTOCOL,
                "access to object %r absent from the initial values" % (obj,),
                seq=seq, obj=obj, accesses=(_name(access),),
            ))

    def _ingest(self, row: Row) -> None:
        op, path, leaf, obj, kind, seen, arg, seq = row
        self.records += 1
        if seq is not None and seq > self._seq_clock:
            self._seq_clock = seq
        else:
            self._seq_clock += 1
        if op == PERFORM:
            top = self._tops.get(path[0]) if path else None
            if top is None or leaf is None or obj is None:
                self._flag(Violation(
                    PROTOCOL,
                    "perform %r on %r outside any known top-level transaction"
                    % (None if leaf is None else _name(_access_path(path, leaf)),
                       obj),
                    seq=seq, obj=obj, txns=(_name(path),),
                ))
                return
            acc = _Access(leaf, path, top, obj, kind, seen, arg, seq)
            top.accesses.append(acc)
            if top.snapshot_horizon is not None:
                self._check_snapshot_perform(top, acc)
                return
            top.objects.add(obj)
            queue = self._pending.get(obj)
            if queue is None:
                self._pending[obj] = [acc]
            else:
                queue.append(acc)
            self._pending_count += 1
            if self._pending_count > self.max_pending_accesses:
                self.max_pending_accesses = self._pending_count
        elif op == CREATE:
            self._ingest_create(path, kind, arg, seq, self._seq_clock)
        elif op == COMMIT:
            self._ingest_resolution(path, COMMITTED, arg, seq, self._seq_clock)
        elif op == ABORT:
            self._ingest_resolution(path, ABORTED, arg, seq, self._seq_clock)
        else:
            self._flag(Violation(
                PROTOCOL, "unknown trace op %r" % (op,), seq=seq,
            ))

    def _ingest_create(self, path: Path, kind: Optional[str], arg: Any,
                       seq: Optional[int], now: int) -> None:
        if not path:
            self._flag(Violation(PROTOCOL, "create of U", seq=seq))
            return
        top = self._tops.get(path[0])
        if len(path) == 1:
            if top is not None and top.status == ACTIVE:
                # Replacing it would strand its accesses at the head of
                # their FIFOs and pin the retirement watermark forever.
                name = _name(path)
                self._flag(Violation(
                    PROTOCOL,
                    "create of already-active transaction %r" % (name,),
                    seq=seq, txns=(name,),
                ))
                return
            top = _TopTxn(path)
            if kind == "snapshot":
                horizon = arg if isinstance(arg, int) else self._committed_stamp
                top.snapshot_horizon = horizon
                self._active_horizons[top] = horizon
            self._tops[path[0]] = top
            self._clock.begin(top, now)
            if len(self._tops) > self.max_live_tops:
                self.max_live_tops = len(self._tops)
        elif top is None:
            name = _name(path)
            self._flag(Violation(
                PROTOCOL,
                "create of %r under unknown top-level transaction" % (name,),
                seq=seq, txns=(name,),
            ))
        else:
            top.nested[path] = ACTIVE

    def _check_snapshot_perform(self, top: _TopTxn, acc: _Access) -> None:
        """A snapshot transaction's access: validated eagerly against the
        stamped committed-state replay at the transaction's horizon —
        never routed through the per-object FIFO (unresolved writers
        ahead of it would stall the head and manufacture conflicts).
        Every commit stamped <= the horizon has already ingested (its
        commit seq precedes the snapshot's begin seq), so the history
        lookup is complete."""
        if acc.kind != "read":
            name, access = _name(top.path), _name(acc.access)
            self._flag(Violation(
                PROTOCOL,
                "non-read access %r (%s) in snapshot transaction %r"
                % (access, acc.kind, name),
                seq=acc.seq, obj=acc.obj,
                txns=(name,), accesses=(access,),
            ))
            return
        if acc.obj not in self._committed:
            self._flag_absent(acc.obj, acc.seq, acc.access)
            return
        expected = self._value_at(acc.obj, top.snapshot_horizon)
        if acc.seen != expected:
            top.snapshot_failures.append((acc, expected))

    def _value_at(self, obj: str, horizon: int) -> Any:
        """The committed value of ``obj`` as of ``horizon`` (newest
        history entry stamped <= it)."""
        history = self._history[obj]
        for stamp, value in reversed(history):
            if stamp <= horizon:
                return value
        return history[0][1]

    def _ingest_resolution(self, path: Path, status: str, arg: Any,
                           seq: Optional[int], now: int) -> None:
        if not path:
            self._flag(Violation(PROTOCOL, "%s of U" % status, seq=seq))
            return
        top = self._tops.get(path[0])
        if top is None:
            name = _name(path)
            where = ("unknown top-level transaction %r" if len(path) == 1
                     else "%r under unknown top-level transaction")
            self._flag(Violation(
                PROTOCOL, ("%s of " + where) % (status, name),
                seq=seq, txns=(name,),
            ))
        elif len(path) > 1:
            top.nested[path] = status
        elif top.status != ACTIVE:
            name = _name(path)
            self._flag(Violation(
                PROTOCOL,
                "%s of already-%s transaction %r" % (status, top.status, name),
                seq=seq, txns=(name,),
            ))
        else:
            self._resolve_top(
                top, status, now,
                stamp=arg if status == COMMITTED else None,
            )
            self._retire()

    # -- fate resolution and the per-object replay -------------------------

    def _resolve_top(
        self,
        top: _TopTxn,
        status: str,
        now: Optional[int],
        stamp: Optional[int] = None,
    ) -> None:
        top.status = status
        if now is None:
            self._seq_clock += 1
            now = self._seq_clock
        top.resolve_seq = now
        if top.snapshot_horizon is not None:
            self._resolve_snapshot_top(top, status == COMMITTED)
        else:
            if status == COMMITTED:
                self._settle_committed(top, stamp)
            else:
                for acc in top.accesses:
                    acc.fate = False
            for obj in top.objects:
                self._drain(obj)
        self._clock.resolve(top, now)

    def _settle_committed(self, top: _TopTxn, stamp: Optional[int]) -> None:
        """The one pass over a committed top's accesses (seq order = data
        order inside the top): decide each access's fate, advance the
        stamped committed-state replay with the survivors
        (:meth:`_advance_committed`), and spot the only shape that can
        make a sibling family cyclic.

        *Fate.*  An access is permanent iff every transaction between the
        top and the access (both exclusive) committed — ``visible_T(U)``
        restricted to this subtree.  That is a property of the access's
        owning transaction, so it is decided once per owner (memoised up
        the chain), not once per access and depth.

        *Families.*  Every conflict edge inside the top runs from an
        earlier to a later permanent access, and lands in the family of
        the pair's least common ancestor ``L`` as ``a -> b`` between the
        children of ``L`` leading to each access.  Take the permanent
        accesses under ``L`` in seq order, each labelled by its child of
        ``L``: if every label forms one contiguous run (a leaf access
        trivially does), ``a -> b`` implies run(a) wholly precedes run(b),
        so ``L``'s edges embed in the order of the runs and the family is
        acyclic without looking at a single pair.  A family can close a
        cycle only if one of its children is *re-entered* — left for an
        access outside it, then resumed.  :func:`_reentered` finds them;
        only suspect families pay for pair enumeration and cycle search
        (:meth:`_check_families`).
        """
        nested = top.nested
        permanent: Dict[Path, bool] = {}
        walk: List[Path] = []  # owner of each run of permanent accesses
        updates: List[Tuple[str, str, Any]] = []
        owner: Optional[Path] = None  # owning transaction of the last access
        fate = False
        for acc in top.accesses:
            if acc.owner != owner:
                owner = acc.owner
                fate = _permanent(nested, permanent, owner)
                if fate:
                    walk.append(owner)
            acc.fate = fate
            if fate and (acc.kind == "write" or acc.kind == "increment"):
                updates.append((acc.obj, acc.kind, acc.arg))
        self._advance_committed(stamp, updates)
        suspects = _reentered(walk)
        if suspects:
            self._check_families(top, suspects)

    def _advance_committed(self, stamp: Optional[int],
                           updates: Sequence[Tuple[str, str, Any]]) -> None:
        """Advance the stamped committed-state replay past one committed
        top: ``updates`` are its permanent writes and increments as
        ``(obj, kind, arg)`` in seq order — writes set, increments add, so
        a materialized write overrides earlier deltas exactly as the
        engine's version stacks did — and each object they changed gains
        a history entry at ``stamp``."""
        if stamp is None:
            # Traces predating stamped commits auto-stamp in ingestion
            # order, which equals stamp order (both are assigned under
            # the latch that serializes top-level commits).
            stamp = self._committed_stamp + 1
        if stamp > self._committed_stamp:
            self._committed_stamp = stamp
        committed = self._committed
        changed: Set[str] = set()
        for obj, kind, arg in updates:
            if obj in committed:
                committed[obj] = (
                    arg if kind == "write" else committed[obj] + arg
                )
                changed.add(obj)
        if changed:
            floor = (
                min(self._active_horizons.values())
                if self._active_horizons
                else stamp
            )
            for obj in changed:
                history = self._history[obj]
                history.append((stamp, committed[obj]))
                while len(history) >= 2 and history[1][0] <= floor:
                    del history[0]

    def _settle_alone(self, rows: Sequence[Row]) -> bool:
        """Certify a top-level that finished alone in one pass over its
        rows, or return False having changed nothing.

        ``rows`` arrived in turn, whole and gapless, while the window was
        empty.  When they are exactly one top-level's family — its
        ``create`` (not a snapshot) first, its ``commit`` or ``abort``
        last, every row in between under its label, no second depth-1
        lifecycle row, every perform with an access and an object — no
        other top-level is concurrent with it: the cross-transaction
        graph cannot gain an edge, the watermark rule retires it the
        moment it resolves, and nothing is queued ahead of its accesses
        on any object.  What is left of Theorem 9 is one replay of its
        permanent accesses in seq order against ``_values``, plus the
        family check inside it.  So a read-only pre-pass records the
        nested statuses and decides fates; a family with a re-entered
        child (:func:`_reentered`) goes the general way, as does any
        other shape.  Then one replay flags what :meth:`_drain` would
        (the same violations, in seq order rather than object by
        object) and every counter, high-water mark and the retirement
        clock move as the general path would move them, without an
        ``_Access``, a ``_TopTxn``, a FIFO or a graph node.
        """
        count = len(rows)
        if count < 2:
            return False
        op, top_path, _, _, kind, _, _, first = rows[0]
        last = rows[-1]
        if (op != CREATE or not top_path or len(top_path) != 1
                or kind == "snapshot"
                or (last[0] != COMMIT and last[0] != ABORT)
                or last[1] != top_path):
            return False
        label = top_path[0]
        nested: Dict[Path, str] = {}
        performs: List[Row] = []
        append = performs.append
        for row in islice(rows, 1, count - 1):
            op, path = row[0], row[1]
            if not path or path[0] != label:
                return False
            if op == PERFORM:
                if row[2] is None or row[3] is None:
                    return False
                append(row)
            elif len(path) == 1:
                return False
            elif op == CREATE:
                nested[path] = ACTIVE
            elif op == COMMIT:
                nested[path] = COMMITTED
            elif op == ABORT:
                nested[path] = ABORTED
            else:
                return False
        committed = last[0] == COMMIT
        survivors: List[Row] = []
        if committed:
            permanent: Dict[Path, bool] = {}
            walk: List[Path] = []
            owner: Optional[Path] = None
            fate = False
            for row in performs:
                if row[1] != owner:
                    owner = row[1]
                    fate = _permanent(nested, permanent, owner)
                    if fate:
                        walk.append(owner)
                if fate:
                    survivors.append(row)
            if _reentered(walk):
                return False
        # The general path's clock: each row's seq, or one past the last
        # ingested when that is ahead already (the seqs are contiguous).
        begin = max(first, self._seq_clock + 1)
        end = begin + count - 1
        self._clock.retire_alone(begin, end)
        self._seq_clock = end
        self.records += count
        if not self.max_live_tops:
            self.max_live_tops = 1
        accesses, kept = len(performs), len(survivors)
        if accesses > self.max_pending_accesses:
            self.max_pending_accesses = accesses
        if kept > self.max_applied_accesses:
            self.max_applied_accesses = kept
        self.permanent_accesses += kept
        self.dropped_accesses += accesses - kept
        if not committed:
            return True
        values = self._values
        updates: List[Tuple[str, str, Any]] = []
        for _, path, leaf, obj, kind, seen, arg, seq in survivors:
            if obj not in values:
                self._flag_absent(obj, seq, _access_path(path, leaf))
            elif kind == "increment":
                values[obj] = values[obj] + arg
                updates.append((obj, kind, arg))
            else:
                if seen != values[obj]:
                    self._flag(_misread(top_path, _access_path(path, leaf),
                                        obj, seen, values[obj], seq))
                if kind == "write":
                    values[obj] = arg
                    updates.append((obj, kind, arg))
        self._advance_committed(last[6], updates)
        return True

    def _resolve_snapshot_top(self, top: _TopTxn, committed: bool) -> None:
        """A snapshot transaction resolved: emit its buffered misreads if
        it committed (permanent accesses only — reads under aborted
        subtransactions are not in ``perm(T)``), then release its horizon
        so the committed history can prune past it."""
        self._active_horizons.pop(top, None)
        permanent: Dict[Path, bool] = {}
        for acc in top.accesses:
            acc.fate = committed and _permanent(
                top.nested, permanent, acc.owner
            )
            if acc.fate:
                self.permanent_accesses += 1
            else:
                self.dropped_accesses += 1
        for acc, expected in top.snapshot_failures:
            if acc.fate:
                access = _name(acc.access)
                self._flag(Violation(
                    VERSION,
                    "snapshot read %r on %r saw %r, committed value "
                    "at horizon %d is %r"
                    % (access, acc.obj, acc.seen,
                       top.snapshot_horizon, expected),
                    seq=acc.seq, obj=acc.obj,
                    txns=(_name(top.path),), accesses=(access,),
                ))

    def _drain(self, obj: str) -> None:
        """Pop the object's FIFO while the head's fate is known, replaying
        survivors (version check) and pairing them into conflict edges."""
        queue = self._pending.get(obj)
        if not queue:
            return
        applied = self._applied.get(obj)
        popped = permanent = 0
        for acc in queue:
            fate = acc.fate
            if fate is None:
                break
            popped += 1
            if not fate:
                continue
            permanent += 1
            kind = acc.kind
            if obj not in self._values:
                self._flag_absent(obj, acc.seq, acc.access)
            elif kind == "increment":
                # Blind access: no label to check — the replay applies
                # the delta (the paper's update function a la (d13)).
                self._values[obj] = self._values[obj] + acc.arg
            else:
                expected = self._values[obj]
                if acc.seen != expected:
                    self._flag(_misread(acc.top.path, acc.access, obj,
                                        acc.seen, expected, acc.seq))
                if kind == "write":
                    self._values[obj] = acc.arg
            if applied is None:
                applied = self._applied[obj] = []
            else:
                top = acc.top
                for prev in applied:
                    if prev.top is not top and _conflict(prev.kind, kind):
                        self._add_edge(prev, acc)
            applied.append(acc)
            self._applied_count += 1
            if self._applied_count > self.max_applied_accesses:
                self.max_applied_accesses = self._applied_count
        self.permanent_accesses += permanent
        self.dropped_accesses += popped - permanent
        self._pending_count -= popped
        if popped == len(queue):
            del self._pending[obj]
        else:
            del queue[:popped]

    # -- the rolling top-level conflict graph ------------------------------

    def _add_edge(self, c: _Access, d: _Access) -> None:
        """Precedence edge ``c.top -> d.top`` (both committed, both still
        windowed), witnessed by the conflicting pair (c, d).  Flags a
        violation the moment the edge closes a cycle."""
        a, b = c.top, d.top
        out = self._succ.setdefault(a, {})
        if b in out:
            return
        out[b] = (c, d)
        self._pred.setdefault(b, set()).add(a)
        self._edge_count += 1
        if self._edge_count > self.max_graph_edges:
            self.max_graph_edges = self._edge_count
        path = self._find_path(b, a)
        if path is not None:
            cycle = [_name(top.path) for top in [a] + path]
            self._flag(Violation(
                CYCLE,
                "conflict sibling precedence has a cycle: %r"
                % ([repr(n) for n in cycle],),
                seq=d.seq, obj=c.obj, txns=tuple(cycle),
                accesses=(_name(c.access), _name(d.access)),
            ))

    def _find_path(self, source: _TopTxn, target: _TopTxn
                   ) -> Optional[List[_TopTxn]]:
        """A path source -> ... -> target in the top-level graph, or None.
        Iterative DFS; the graph only holds unretired transactions."""
        if source is target:
            return [source]
        stack: List[_TopTxn] = [source]
        parent: Dict[_TopTxn, _TopTxn] = {}
        seen: Set[_TopTxn] = {source}
        while stack:
            node = stack.pop()
            for nxt in self._succ.get(node, ()):
                if nxt in seen:
                    continue
                parent[nxt] = node
                if nxt is target:
                    path = [nxt]
                    while path[-1] is not source:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                seen.add(nxt)
                stack.append(nxt)
        return None

    # -- intra-transaction (nested family) check ---------------------------

    def _check_families(self, top: _TopTxn, suspects: Set[Path]) -> None:
        """Conflict sibling edges *inside* one committed top-level
        transaction, for the families :meth:`_settle_committed` could not
        clear: group the top's permanent accesses per object in data
        order, pair conflicting ones, and verify each suspect family's
        precedence is acyclic.  (Cross-transaction pairs always meet at U
        and go through the rolling graph instead.)"""
        per_obj: Dict[str, List[_Access]] = {}
        for acc in top.accesses:
            if acc.fate:
                per_obj.setdefault(acc.obj, []).append(acc)
        families: Dict[Path, Dict[Tuple[Path, Path], Tuple]] = {}
        for obj, ordered in per_obj.items():
            for i, c in enumerate(ordered):
                c_path = c.access
                for d in ordered[i + 1:]:
                    if not _conflict(c.kind, d.kind):
                        continue
                    d_path = d.access
                    shared = _shared_prefix(c_path, d_path)
                    if shared == len(c_path) or shared == len(d_path):
                        continue  # one names the other: not a sibling pair
                    lca = c_path[:shared]
                    if lca in suspects:
                        families.setdefault(lca, {}).setdefault(
                            (c_path[:shared + 1], d_path[:shared + 1]),
                            (c.access, d.access),
                        )
        for lca, edges in families.items():
            cycle = _digraph_cycle(edges)
            if cycle is not None:
                witnesses: List[ActionName] = []
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    witnesses.extend(_name(w) for w in edges.get((a, b), ()))
                names = [_name(node) for node in cycle]
                self._flag(Violation(
                    FAMILY_CYCLE,
                    "sibling precedence inside %r has a cycle under %r: %r"
                    % (_name(top.path), _name(lca),
                       [repr(n) for n in names]),
                    seq=top.resolve_seq,
                    txns=tuple(names), accesses=tuple(witnesses),
                ))

    # -- retirement --------------------------------------------------------

    def _retire(self) -> None:
        ready = self._clock.retire_ready()
        if ready and not self._clock.live_count():
            # The window emptied: everything it held belonged to the tops
            # retiring now, so it is dropped whole, not object by object.
            for top in ready:
                top.accesses.clear()
                top.snapshot_failures.clear()
            self._tops.clear()
            self._applied.clear()
            self._succ.clear()
            self._pred.clear()
            self._applied_count = self._edge_count = 0
            return
        for top in ready:
            label = top.path[0]
            if self._tops.get(label) is top:
                del self._tops[label]
            # Every access of a retired top has left the FIFOs (its
            # concurrents all resolved first); unlink them from it.
            top.accesses.clear()
            top.snapshot_failures.clear()
            for obj in top.objects:
                applied = self._applied.get(obj)
                if not applied:
                    continue
                kept = [a for a in applied if a.top is not top]
                self._applied_count -= len(applied) - len(kept)
                if kept:
                    self._applied[obj] = kept
                else:
                    del self._applied[obj]
            for b in self._succ.pop(top, {}):
                preds = self._pred.get(b)
                if preds is not None:
                    preds.discard(top)
                    if not preds:
                        del self._pred[b]
                self._edge_count -= 1
            for a in self._pred.pop(top, ()):
                out = self._succ.get(a)
                if out is not None and out.pop(top, None) is not None:
                    self._edge_count -= 1
                    if not out:
                        del self._succ[a]


def _access_path(txn: Path, leaf: Any) -> Path:
    """The access path a row's ``leaf`` stands for (see ``_Access``)."""
    return leaf if leaf.__class__ is tuple else txn + (leaf,)


def _misread(top: Path, access: Path, obj: str, seen: Any, expected: Any,
             seq: Optional[int]) -> Violation:
    """The violation of a permanent access whose label is not the replay
    of its visible history."""
    name = _name(access)
    return Violation(
        VERSION,
        "data step %r on %r saw %r, replay of its visible history gives %r"
        % (name, obj, seen, expected),
        seq=seq, obj=obj, txns=(_name(top),), accesses=(name,),
    )


def _conflict(first: str, second: str) -> bool:
    """Whether two accesses of one object induce a precedence edge:
    reads commute with reads, blind increments with increments."""
    return first != second or (first != "read" and first != "increment")


def _permanent(nested: Dict[Path, str], memo: Dict[Path, bool],
               owner: Path) -> bool:
    """Whether accesses owned by the transaction at ``owner`` survive a
    committed top: ``owner`` and every nested transaction above it
    committed (the top itself, depth 1, is the caller's premise)."""
    known = memo.get(owner)
    if known is None:
        known = memo[owner] = len(owner) < 2 or (
            nested.get(owner) == COMMITTED
            and _permanent(nested, memo, owner[:-1])
        )
    return known


def _reentered(walk: Sequence[Path]) -> Set[Path]:
    """The families a committed top's permanent accesses may make cyclic.

    ``walk`` names the owner of each run of permanent accesses, in seq
    order.  A family can close a cycle only if one of its children is
    *re-entered* — left for an access outside it, then resumed.  The
    walk records the subtrees it has left; resuming one marks its parent
    suspect.  Resuming a whole subtree also marks families inside it
    whose own runs may be contiguous: a false alarm costs a search,
    never a verdict.

    When no owner is deeper than the top's children, the only subtrees
    the walk can leave are the owners themselves, so unless one repeats
    none was resumed (the shape of every spine program)."""
    if len(set(walk)) == len(walk) and all(len(owner) <= 2 for owner in walk):
        return set()
    closed: Set[Path] = set()
    suspects: Set[Path] = set()
    walked: Optional[Path] = None
    for owner in walk:
        if owner == walked:
            continue
        if walked is not None:
            shared = _shared_prefix(walked, owner)
            for end in range(shared + 1, len(walked) + 1):
                closed.add(walked[:end])
            for end in range(shared + 1, len(owner) + 1):
                if owner[:end] in closed:
                    suspects.add(owner[:end - 1])
        walked = owner
    return suspects


def _shared_prefix(first: Path, second: Path) -> int:
    """Length of the longest common prefix of two paths (the depth of
    the least common ancestor of the actions they name)."""
    shared = 0
    for a, b in zip(first, second):
        if a != b:
            break
        shared += 1
    return shared


def _digraph_cycle(edges) -> Optional[List[Path]]:
    """A cycle in a small digraph given as an iterable of (a, b) edges,
    or None.  White/grey/black iterative DFS, as in the offline oracle."""
    adjacency: Dict[Path, List[Path]] = {}
    for a, b in edges:
        adjacency.setdefault(a, []).append(b)
    WHITE, GREY, BLACK = 0, 1, 2
    color: Dict[Path, int] = {}
    parent: Dict[Path, Path] = {}
    for root in adjacency:
        if color.get(root, WHITE) != WHITE:
            continue
        stack: List[Tuple[Path, int]] = [(root, 0)]
        color[root] = GREY
        while stack:
            node, idx = stack[-1]
            neighbors = adjacency.get(node, [])
            if idx >= len(neighbors):
                color[node] = BLACK
                stack.pop()
                continue
            stack[-1] = (node, idx + 1)
            nxt = neighbors[idx]
            state = color.get(nxt, WHITE)
            if state == WHITE:
                color[nxt] = GREY
                parent[nxt] = node
                stack.append((nxt, 0))
            elif state == GREY:
                cycle = [node]
                walk = node
                while walk != nxt:
                    walk = parent[walk]
                    cycle.append(walk)
                cycle.reverse()
                return cycle
    return None


def certify_records(
    records: Sequence[TraceRecord], initial: Mapping[str, Any]
) -> StreamingReport:
    """One-shot convenience: stream a finished trace through a fresh
    certifier (differential tests compare this against the offline
    :func:`~repro.checker.history.check_trace_serializable`)."""
    certifier = StreamingCertifier(initial)
    certifier.feed_many(records)
    return certifier.finish()
