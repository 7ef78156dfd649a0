"""The engine oracle: certify serializability of recorded executions.

Engine traces are linearized logs of create/commit/abort/perform records.
Two independent certifications:

* :func:`check_trace_level2` — replay the trace as a run of the level-2
  algebra.  This is *conformance*: the single-mode engine is claimed to be
  an implementation of the paper's algorithm, so its traces must be valid
  𝒜' computations (Theorem 14 then gives serializability for free).
  Read/write-mode traces are generally **not** valid level-2 runs (clause
  (d12) treats every access as conflicting), which is exactly the paper's
  simplification; use the mode-aware check below for those.

* :func:`check_trace_serializable` — the mode-aware oracle, a read/write
  generalization of Theorem 9: build the permanent action tree, take the
  execution order as the version order, and require (1) every permanent
  data step's label to equal the replay of its visible predecessors, and
  (2) acyclicity of the sibling precedence induced by *conflicting* pairs
  only (read-read pairs impose no order, since identity updates commute;
  increment-increment pairs likewise — their ``add`` updates commute, and
  being blind they also carry no label for (1) to check).

Trace records carry path tuples; this module is where they enter
:mod:`repro.core`, so it renders each path as the paper's
:class:`~repro.core.naming.ActionName` (``_name``) exactly there — the
universe's accesses, the level-2 events, the action tree, the failure
messages — and works on the paths themselves in between.

Snapshot (read-only) transactions never acquire locks, so their records
are *not* a locked execution and are partitioned out before either check
(:func:`partition_snapshot_trace`).  They are certified separately by
:func:`check_snapshot_reads`: replay the committed state in commit-stamp
order (top-level ``commit`` records carry their stamp) and require every
committed snapshot transaction's permanent reads to equal the committed
value at its horizon — i.e. each snapshot transaction serializes exactly
at its horizon stamp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.aat import AugmentedActionTree
from ..core.action_tree import ABORTED, ACTIVE, COMMITTED, ActionTree
from ..core.characterization import conflict_sibling_edges as _core_conflict_edges
from ..core.events import Create, Event, Perform
from ..core.level2 import Level2Algebra
from ..core.naming import ActionName
from ..core.universe import (
    Universe,
    add as add_update,
    read as read_update,
    write as write_update,
)
from ..engine.trace import ABORT, COMMIT, CREATE, PERFORM, Path, TraceRecord


def _name(path: Optional[Path]) -> Optional[ActionName]:
    """Render a record's path as the paper's (interned) name."""
    return None if path is None else ActionName.make(path)


class OracleViolation(AssertionError):
    """The trace fails a serializability certification."""


def trace_to_universe(
    records: Sequence[TraceRecord], initial: Mapping[str, Any]
) -> Universe:
    """Reconstruct the a-priori universe a trace implies: the objects with
    their initial values, and one access per perform record."""
    universe = Universe()
    for obj, value in initial.items():
        universe.define_object(obj, init=value)
    for record in records:
        if record.op == PERFORM:
            if record.kind == "read":
                update = read_update()
            elif record.kind == "increment":
                update = add_update(record.arg)
            else:
                update = write_update(record.arg)
            universe.declare_access(_name(record.access), record.obj, update)
    return universe


def partition_snapshot_trace(
    records: Sequence[TraceRecord],
) -> Tuple[List[TraceRecord], Dict[ActionName, int], List[TraceRecord]]:
    """Split a trace into its locked part and its snapshot transactions.

    Returns ``(locked_records, snapshot_horizons, snapshot_records)``:
    snapshot top-levels are identified by their ``create`` record carrying
    ``kind="snapshot"`` (its ``arg`` is the horizon stamp), and every
    record of their subtrees moves to the snapshot partition.  Snapshot
    transactions acquire no locks, so only the locked part is a run of
    the locking algebras.
    """
    horizons: Dict[ActionName, int] = {}
    for record in records:
        if (
            record.op == CREATE
            and len(record.txn) == 1
            and record.kind == "snapshot"
        ):
            horizons[_name(record.txn)] = (
                record.arg if isinstance(record.arg, int) else 0
            )
    if not horizons:
        return list(records), horizons, []
    snapshot_tops = {top.path for top in horizons}
    locked: List[TraceRecord] = []
    snapshot: List[TraceRecord] = []
    for record in records:
        (snapshot if record.txn[:1] in snapshot_tops else locked).append(record)
    return locked, horizons, snapshot


def _is_permanent_under_top(access: Path, status: Mapping[Path, str]) -> bool:
    """Every transaction strictly between the access and its top-level
    ancestor committed (the top's own fate is the caller's concern)."""
    for depth in range(2, len(access)):
        if status.get(access[:depth]) != COMMITTED:
            return False
    return True


def committed_state_history(
    records: Sequence[TraceRecord], initial: Mapping[str, Any]
) -> Dict[str, List[Tuple[Any, Any]]]:
    """Per object, the committed ``(stamp, value)`` versions a (locked)
    trace produces: replay each committed top-level transaction's
    permanent writes and increments in commit-stamp order.  Stamps come
    from top-level commit records' ``arg``; traces predating stamps are
    auto-stamped in commit-record order (equal to stamp order — both are
    assigned under the latch serializing top-level commits)."""
    status: Dict[Path, str] = {}
    per_top: Dict[Path, List[TraceRecord]] = {}
    commits: List[Tuple[int, Path]] = []
    auto = 0
    for record in records:
        if record.op == CREATE:
            status[record.txn] = ACTIVE
        elif record.op == ABORT:
            status[record.txn] = ABORTED
        elif record.op == COMMIT:
            status[record.txn] = COMMITTED
            if len(record.txn) == 1:
                stamp = record.arg if isinstance(record.arg, int) else auto + 1
                auto = max(auto, stamp)
                commits.append((stamp, record.txn))
        elif record.op == PERFORM:
            per_top.setdefault(record.txn[:1], []).append(record)
    commits.sort(key=lambda pair: pair[0])
    values = dict(initial)
    history: Dict[str, List[Tuple[Any, Any]]] = {
        obj: [(0, value)] for obj, value in initial.items()
    }
    for stamp, top in commits:
        for record in per_top.get(top, ()):
            if record.obj not in values:
                continue
            if not _is_permanent_under_top(record.access, status):
                continue
            if record.kind == "write":
                values[record.obj] = record.arg
            elif record.kind == "increment":
                values[record.obj] = values[record.obj] + record.arg
            else:
                continue
            history[record.obj].append((stamp, values[record.obj]))
    return history


def check_snapshot_reads(
    records: Sequence[TraceRecord],
    initial: Mapping[str, Any],
    strict: bool = True,
) -> List[str]:
    """Certify every committed snapshot transaction's permanent reads
    against the stamp-ordered committed-state replay at its horizon.
    Returns the failure messages (empty when clean); with ``strict``
    raises on the first."""
    locked, horizons, snapshot = partition_snapshot_trace(records)
    failures: List[str] = []
    if horizons:
        history = committed_state_history(locked, initial)
        status: Dict[Path, str] = {}
        per_top: Dict[Path, List[TraceRecord]] = {}
        for record in snapshot:
            if record.op == CREATE:
                status[record.txn] = ACTIVE
            elif record.op == COMMIT:
                status[record.txn] = COMMITTED
            elif record.op == ABORT:
                status[record.txn] = ABORTED
            elif record.op == PERFORM:
                per_top.setdefault(record.txn[:1], []).append(record)
        for top, horizon in horizons.items():
            if status.get(top.path) != COMMITTED:
                continue  # aborted/unresolved: not in perm(T)
            for record in per_top.get(top.path, ()):
                if record.kind != "read":
                    failures.append(
                        "non-read access %r (%s) in snapshot transaction %r"
                        % (_name(record.access), record.kind, top)
                    )
                    continue
                if not _is_permanent_under_top(record.access, status):
                    continue
                hist = history.get(record.obj)
                if hist is None:
                    failures.append(
                        "snapshot read %r of object %r absent from the "
                        "initial values" % (_name(record.access), record.obj)
                    )
                    continue
                expected = hist[0][1]
                for stamp, value in hist:
                    if stamp <= horizon:
                        expected = value
                    else:
                        break
                if record.seen != expected:
                    failures.append(
                        "snapshot read %r on %r saw %r, committed value at "
                        "horizon %d is %r"
                        % (_name(record.access), record.obj, record.seen,
                           horizon, expected)
                    )
    if strict and failures:
        raise OracleViolation(failures[0])
    return failures


def trace_to_level2_events(
    records: Sequence[TraceRecord], universe: Universe
) -> List[Event]:
    """The level-2 event sequence a trace denotes.  Perform records expand
    to create-then-perform of the synthetic access leaf."""
    from ..core.events import Abort as AbortEvent, Commit as CommitEvent

    events: List[Event] = []
    for record in records:
        if record.op == CREATE:
            events.append(Create(_name(record.txn)))
        elif record.op == COMMIT:
            events.append(CommitEvent(_name(record.txn)))
        elif record.op == ABORT:
            events.append(AbortEvent(_name(record.txn)))
        elif record.op == PERFORM:
            access = _name(record.access)
            events.append(Create(access))
            events.append(Perform(access, record.seen))
    return events


def _replay(algebra, events, label: str):
    state = algebra.initial_state
    for index, event in enumerate(events):
        reason = algebra.precondition_failure(state, event)
        if reason is not None:
            raise OracleViolation(
                "trace is not a valid %s run at event %d (%r): %s"
                % (label, index, event, reason)
            )
        state = algebra.apply_effect(state, event)
    return state


def check_trace_level2(
    records: Sequence[TraceRecord], initial: Mapping[str, Any]
) -> AugmentedActionTree:
    """Replay a (single-mode) trace through the level-2 algebra.

    Snapshot transactions acquire no locks and are partitioned out first
    (certify them with :func:`check_snapshot_reads`).  Raises
    :class:`OracleViolation` at the first non-enabled event; returns the
    final AAT on success.
    """
    records, _horizons, _snapshot = partition_snapshot_trace(records)
    universe = trace_to_universe(records, initial)
    algebra = Level2Algebra(universe)
    events = trace_to_level2_events(records, universe)
    return _replay(algebra, events, "level-2")


def check_trace_level2rw(
    records: Sequence[TraceRecord], initial: Mapping[str, Any]
) -> AugmentedActionTree:
    """Replay a read/write-mode trace through the mode-aware level-2
    algebra (𝒜'-RW): the conformance oracle for Moss's complete
    algorithm (paper §10).  Snapshot transactions acquire no locks and
    are partitioned out first (certify them with
    :func:`check_snapshot_reads`)."""
    from ..core.rw import Level2RWAlgebra

    records, _horizons, _snapshot = partition_snapshot_trace(records)
    universe = trace_to_universe(records, initial)
    algebra = Level2RWAlgebra(universe)
    events = trace_to_level2_events(records, universe)
    return _replay(algebra, events, "level-2-RW")


def trace_to_aat(
    records: Sequence[TraceRecord], initial: Mapping[str, Any]
) -> AugmentedActionTree:
    """Build the augmented action tree a trace denotes, with the execution
    order as the per-object data order (no level-2 precondition checks)."""
    universe = trace_to_universe(records, initial)
    status: Dict[ActionName, str] = {ActionName(): ACTIVE}
    labels: Dict[ActionName, Any] = {}
    data: Dict[str, Tuple[ActionName, ...]] = {}
    for record in records:
        if record.op == CREATE:
            status[_name(record.txn)] = ACTIVE
        elif record.op == COMMIT:
            status[_name(record.txn)] = COMMITTED
        elif record.op == ABORT:
            status[_name(record.txn)] = ABORTED
        elif record.op == PERFORM:
            access = _name(record.access)
            status[access] = COMMITTED
            labels[access] = record.seen
            data[record.obj] = data.get(record.obj, ()) + (access,)
    tree = ActionTree(universe, status, labels)
    return AugmentedActionTree(tree, data)


def conflict_sibling_edges(
    aat: AugmentedActionTree,
) -> Set[Tuple[ActionName, ActionName]]:
    """Re-exported from :mod:`repro.core.characterization` (the read/write
    refinement of Theorem 9(b))."""
    return _core_conflict_edges(aat)


@dataclass
class OracleReport:
    """What the mode-aware oracle concluded."""

    datasteps: int
    permanent_datasteps: int
    edges: int
    ok: bool
    failure: Optional[str] = None


def check_trace_serializable(
    records: Sequence[TraceRecord],
    initial: Mapping[str, Any],
    strict: bool = True,
) -> OracleReport:
    """Mode-aware serializability oracle over the permanent subtree.

    Checks label/replay agreement for every permanent *observing* data
    step (blind increments carry no label; their updates still drive the
    replay), acyclicity of the conflict-aware sibling precedence, and —
    when the trace contains snapshot transactions — that every committed
    snapshot transaction serializes at its horizon
    (:func:`check_snapshot_reads`).  With ``strict`` raises on failure;
    otherwise reports it.
    """
    locked, horizons, _snapshot = partition_snapshot_trace(records)
    aat = trace_to_aat(locked, initial)
    perm = aat.perm()
    universe = perm.universe
    failure: Optional[str] = None
    for step in perm.tree.datasteps():
        if universe.update_of(step).kind == "add":
            continue  # blind increment: no observed label to check
        obj = universe.object_of(step)
        expected = universe.result(obj, perm.v_data(step))
        actual = perm.tree.label(step)
        if actual != expected:
            failure = "data step %r saw %r, replay of its visible history gives %r" % (
                step,
                actual,
                expected,
            )
            break
    edges = conflict_sibling_edges(perm)
    if failure is None:
        cycle = _find_cycle(edges)
        if cycle is not None:
            failure = "conflict sibling precedence has a cycle: %r" % (cycle,)
    if failure is None and horizons:
        snapshot_failures = check_snapshot_reads(records, initial, strict=False)
        if snapshot_failures:
            failure = snapshot_failures[0]
    report = OracleReport(
        datasteps=sum(1 for _ in aat.tree.datasteps()),
        permanent_datasteps=sum(1 for _ in perm.tree.datasteps()),
        edges=len(edges),
        ok=failure is None,
        failure=failure,
    )
    if strict and failure is not None:
        raise OracleViolation(failure)
    return report


def _find_cycle(
    edges: Set[Tuple[ActionName, ActionName]]
) -> Optional[List[ActionName]]:
    adjacency: Dict[ActionName, List[ActionName]] = {}
    for a, b in edges:
        adjacency.setdefault(a, []).append(b)
    WHITE, GREY, BLACK = 0, 1, 2
    color: Dict[ActionName, int] = {}
    parent: Dict[ActionName, ActionName] = {}
    for root in adjacency:
        if color.get(root, WHITE) != WHITE:
            continue
        stack = [(root, 0)]
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


def check_engine(db) -> OracleReport:
    """Certify a finished engine run.

    Single-mode engines must conform to the paper's level-2 algebra;
    read/write engines to its mode-aware extension (𝒜'-RW, paper §10).
    Either way the Theorem-9-style serializability oracle runs over the
    permanent subtree.
    """
    if db.trace is None:
        raise ValueError("engine was constructed with record_trace=False")
    records = db.trace.records
    initial = db.initial_values
    if db.single_mode:
        check_trace_level2(records, initial)
    else:
        check_trace_level2rw(records, initial)
    return check_trace_serializable(records, initial)
