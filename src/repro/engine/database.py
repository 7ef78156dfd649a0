"""The nested-transaction database: Moss locking over versioned storage.

:class:`NestedTransactionDB` is the thread-safe engine tying together the
lock table (:mod:`repro.engine.locks`), the version stacks
(:mod:`repro.engine.storage`), deadlock handling
(:mod:`repro.engine.deadlock`) and trace recording
(:mod:`repro.engine.trace`).

Two latch modes, selected by the ``latch_mode`` constructor flag:

* ``"global"`` — one latch (a condition variable) guards all shared
  state; blocked lock requests wait on it and are re-checked whenever any
  transaction commits or aborts.  Simple, and the reference behaviour the
  striped mode is A/B-compared against.
* ``"striped"`` — objects hash onto N lock stripes, each with its own
  mutex and per-object wait queues; conflicting requests on different
  objects never contend, and commits/aborts wake only the waiters parked
  on the objects whose locks actually changed.  Transaction lifecycle
  metadata sits behind a small separate latch, multi-object sections
  (commit-time lock inheritance, subtree abort) two-phase-acquire every
  involved stripe in ascending index order, and the waits-for graph and
  trace recorder carry their own leaf locks.  See DESIGN.md ("Engine
  architecture: lock striping") for the full locking protocol.

Configuration axes (these drive the E1/E6 benchmarks):

* ``single_mode`` — collapse read locks into write locks, giving exactly
  the paper's simplified single-mode variant of Moss's algorithm;
* ``deadlock_policy`` — the victim choice when a cycle is found:
  ``"blocker"`` (the default: abort the first lock retainer on the chain
  that is not an ancestor of the requester), ``"requester"`` (abort the
  transaction that just blocked), or ``"youngest"`` (abort the
  deepest/latest transaction on the cycle);
* ``lazy_lock_cleanup`` — on abort, leave dead holders' locks in place to
  be reaped by the next conflicting request (the paper's ``lose-lock``
  event firing late) instead of eagerly.

Durability (off by default) is a fourth axis: pass ``durability=`` a
directory path or a :class:`repro.durability.DurabilityManager` and
top-level commits are written ahead to a CRC-framed log and fsync'd
before ``commit()`` returns (group-commit batching optional), while
subtransaction commits stay purely in memory — only ``perm(T)`` values
ever reach disk, per the paper's visibility rule.  On construction over
an existing directory the committed state is recovered from the latest
checkpoint plus the log.  Works under both latch modes; see
``docs/durability.md``.
"""

from __future__ import annotations

import itertools
import threading
import time
import warnings
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from contextlib import contextmanager

from ..core.action_tree import ABORTED, ACTIVE, COMMITTED
from ..core.naming import U, ActionName
from ..obs import (
    DeadlockDetected,
    EventBus,
    LockInherited,
    LockWaited,
    MetricsRegistry,
    ObservableStats,
    OrphanReaped,
    TxnAborted,
    TxnBegun,
    TxnCommitted,
    VictimChosen,
)
from .config import GLOBAL, STRIPED, LEGACY_CONFIG_KWARGS, EngineConfig
from .deadlock import WaitsForGraph, choose_victim
from .errors import (
    DeadlockAbort,
    InvalidTransactionState,
    LockTimeout,
    ReadOnlyViolation,
    TransactionAborted,
    UnknownObject,
)
from ..durability import DurabilityManager
from .locks import INCREMENT, READ, WRITE, ObjectLocks, StripedLockTable
from .retry import DEFAULT_RETRY_POLICY, RetryPolicy
from .storage import VersionedStore
from .trace import COMMIT, CREATE, PERFORM, TraceRecord, TraceRecorder
from .transaction import Transaction

# Batch op statuses (see NestedTransactionDB.try_perform_batch /
# commit_batch): DONE carries the op's value, BLOCKED means nothing
# happened (retry on the blocking path), ERROR carries the exception.
BATCH_DONE = "done"
BATCH_BLOCKED = "blocked"
BATCH_ERROR = "error"

_BATCH_KINDS = frozenset(("read", "read_for_update", "write", "increment"))


def _begin_record(txn: Transaction, seq: int) -> TraceRecord:
    """The ``create`` record of a begun transaction.  Snapshot top-levels
    carry their horizon so certifiers can serialize them at the right
    commit stamp."""
    if txn.read_only and txn.parent is None:
        return TraceRecord(
            CREATE, txn.name, kind="snapshot", arg=txn.snapshot_horizon, seq=seq
        )
    return TraceRecord(CREATE, txn.name, seq=seq)


def _perform_record(
    txn: Transaction, obj: str, kind: str, seen: Any, arg: Any, seq: int
) -> TraceRecord:
    """The trace record of one granted data access (built off-latch;
    ``seq`` was reserved under the latch that serialized the access)."""
    return TraceRecord(
        PERFORM, txn.name, txn.next_access_name(kind), obj, kind, seen, arg, seq
    )


class NestedTransactionDB:
    """A thread-safe in-process database with resilient nested transactions.

    Striped-mode lock order (always acquired left to right, never the
    reverse): stripe mutexes in ascending stripe index, then the metadata
    latch, then the leaf locks (waits-for graph, trace counter).  The
    metadata latch guards the transaction registry, statuses, child
    lists, held-object sets and the parked-waiter map; each stripe mutex
    guards the lock tables and version stacks of its objects.
    """

    def __init__(
        self,
        initial: Mapping[str, Any],
        config: Optional[EngineConfig] = None,
        **legacy_kwargs: Any,
    ) -> None:
        if legacy_kwargs:
            unknown = set(legacy_kwargs) - set(LEGACY_CONFIG_KWARGS)
            if unknown:
                raise TypeError(
                    "unexpected keyword argument(s) for NestedTransactionDB: %s"
                    % ", ".join(sorted(unknown))
                )
            if config is not None:
                raise TypeError(
                    "pass either config=EngineConfig(...) or the deprecated "
                    "loose keyword arguments, not both"
                )
            warnings.warn(
                "loose NestedTransactionDB keyword arguments are deprecated; "
                "pass config=EngineConfig(%s)"
                % ", ".join(sorted(legacy_kwargs)),
                DeprecationWarning,
                stacklevel=2,
            )
            config = EngineConfig(**legacy_kwargs)
        elif config is None:
            config = EngineConfig()
        self.config = config
        single_mode = config.single_mode
        deadlock_policy = config.deadlock_policy
        detect_deadlocks = config.detect_deadlocks
        lock_timeout = config.lock_timeout
        lazy_lock_cleanup = config.lazy_lock_cleanup
        record_trace = config.record_trace
        latch_mode = config.latch_mode
        stripes = config.stripes
        metrics = config.metrics
        events = config.events
        durability = config.durability
        certify = config.certify
        self.latch_mode = latch_mode
        self._striped = latch_mode == STRIPED
        self._latch = threading.Lock()
        self._cond = threading.Condition(self._latch)
        # Observability: a disabled registry and an empty bus cost one
        # attribute load per guard on the hot path.  Enable with
        # ``db.metrics.enable()`` / ``db.events.attach(sink)`` or inject
        # pre-configured instances.
        self.metrics: MetricsRegistry = (
            metrics if metrics is not None else MetricsRegistry(enabled=False)
        )
        self.events: EventBus = events if events is not None else EventBus()
        # Durability: off by default.  A path (or DurabilityManager) turns
        # on write-ahead logging of top-level commits and, when the
        # directory already holds a checkpoint/WAL, recovers the committed
        # state — the recovered values *become* this engine's initial
        # values (the oracle replays post-recovery traces from them).
        self.durability: Optional[DurabilityManager] = None
        if durability is not None:
            manager = (
                durability
                if isinstance(durability, DurabilityManager)
                else DurabilityManager(durability)
            )
            manager.bind(self.metrics, self.events)
            recovered = manager.recover(initial)
            initial = recovered.values
            self.durability = manager
        self._store = VersionedStore(initial)
        if self._striped:
            self._table: Optional[StripedLockTable] = StripedLockTable(
                initial, stripes
            )
            self._locks: Dict[str, ObjectLocks] = {
                obj: self._table.locks_of(obj) for obj in initial
            }
            self._meta = threading.Lock()
            self._parked: Dict[ActionName, str] = {}
        else:
            self._table = None
            self._locks = {obj: ObjectLocks() for obj in initial}
            self._meta = self._latch  # alias: one latch guards everything
            self._parked = {}
        self.stats: ObservableStats = ObservableStats(table=self._table)
        self.stats.bind(self.metrics)
        # Hot-path histograms are resolved once; samples go through each
        # metric's own leaf lock, never an engine latch (see repro.obs).
        self._h_lock_wait = self.metrics.histogram("engine_lock_wait_seconds")
        self._h_commit = self.metrics.histogram("engine_commit_seconds")
        self._h_inherit = self.metrics.histogram("engine_lock_inherit_seconds")
        if self._striped:
            self._h_latch_hold = self.metrics.histogram(
                "engine_commit_latch_hold_seconds"
            )
            self._stripe_contention = [
                self.metrics.counter(
                    "engine_stripe_contention_total",
                    labels={"stripe": "%02d" % stripe.index},
                )
                for stripe in self._table.stripes
            ]
        else:
            self._h_latch_hold = None
            self._stripe_contention = []
        self._waits = WaitsForGraph()
        self._waits.bind(self.metrics)
        self._txns: Dict[ActionName, Transaction] = {}
        self._top_counter = itertools.count()
        # Multiversion commit clock: every non-read-only top-level commit
        # takes the next stamp; snapshot (read-only) transactions pin the
        # clock value at begin as their horizon.  Both the clock and the
        # active-horizon registry are guarded by the metadata latch
        # (striped) / the global latch.
        self._commit_stamp = 0
        self._snapshot_horizons: Dict[ActionName, int] = {}
        self.single_mode = single_mode
        self.deadlock_policy = deadlock_policy
        self.detect_deadlocks = detect_deadlocks
        self.lock_timeout = lock_timeout
        self.lazy_lock_cleanup = lazy_lock_cleanup
        self.trace: Optional[TraceRecorder] = (
            TraceRecorder() if record_trace else None
        )
        self._object_waits: Dict[str, int] = {obj: 0 for obj in initial}
        # Online certification: "streaming" subscribes an incremental
        # Theorem-9 certifier to the trace stream; violations accumulate
        # in ``db.certifier.violations`` (see ``assert_certified``) the
        # moment they are determined, instead of waiting for a post-hoc
        # oracle run.  Works identically in both latch modes because all
        # paths publish through the one trace recorder.
        self.certifier: Optional[Any] = None
        if certify is not None:
            if certify != "streaming":
                raise ValueError(
                    'certify must be None or "streaming", got %r' % (certify,)
                )
            if self.trace is None:
                raise ValueError(
                    'certify="streaming" requires record_trace=True'
                )
            from ..checker.streaming import StreamingCertifier

            self.certifier = StreamingCertifier(self.initial_values)
            self.trace.add_listener(
                self.certifier.feed, self.certifier.feed_many
            )

    @property
    def stripe_count(self) -> int:
        """Number of lock stripes (1 in global-latch mode)."""
        return len(self._table.stripes) if self._table is not None else 1

    # -- public API ------------------------------------------------------------

    def begin_transaction(self, read_only: bool = False) -> Transaction:
        """Begin a new top-level transaction.

        ``read_only=True`` begins a *snapshot* transaction: its horizon is
        pinned to the current commit stamp, every read resolves the
        committed value as of that horizon from the version history, and
        no locks are ever acquired — snapshot readers neither block nor
        abort writers.  Writes, increments, and write-intent reads raise
        :class:`~repro.engine.errors.ReadOnlyViolation`.
        """
        if self._striped:
            with self._meta:
                name = U.child(next(self._top_counter))
                txn, seq = self._begin_locked(name, parent=None, read_only=read_only)
        else:
            with self._cond:
                name = U.child(next(self._top_counter))
                txn, seq = self._begin_locked(name, parent=None, read_only=read_only)
        self._publish_begin(txn, seq)
        return txn

    @contextmanager
    def transaction(self, read_only: bool = False) -> Iterator[Transaction]:
        """``with db.transaction() as t``: commit on exit, abort on error.

        A :class:`TransactionAborted` (deadlock victim, explicit abort) is
        re-raised so callers can retry; see :meth:`run_transaction`.
        """
        txn = self.begin_transaction(read_only=read_only)
        try:
            yield txn
        except BaseException as error:
            self._abort_quietly(txn, error)
            raise
        else:
            txn.commit()

    def run_transaction(
        self,
        fn: Callable[[Transaction], Any],
        *,
        policy: Optional[RetryPolicy] = None,
        read_only: bool = False,
        sleep_fn: Callable[[float], None] = time.sleep,
    ) -> Any:
        """Run ``fn`` in a top-level transaction, retrying per ``policy``
        (by default: retry :class:`TransactionAborted` — deadlock victims
        included — with a small linear backoff).

        ``read_only=True`` runs ``fn`` in a snapshot transaction (see
        :meth:`begin_transaction`); snapshot transactions cannot deadlock,
        so they normally commit on the first attempt.

        ``sleep_fn`` is the backoff clock — inject a no-op (or a fake
        clock) so resilience tests run deterministically with no
        wall-clock delay.
        """
        if policy is None:
            policy = DEFAULT_RETRY_POLICY
        attempt = 0
        while True:
            txn = self.begin_transaction(read_only=read_only)
            try:
                value = fn(txn)
                txn.commit()
                return value
            except BaseException as error:
                # Roll back without masking the application failure: an
                # exception out of abort() is chained onto the original
                # error instead of replacing it.
                self._abort_quietly(txn, error)
                if not policy.is_retryable(error):
                    raise
                attempt += 1
                if attempt > policy.max_retries:
                    raise
                delay = policy.delay(attempt)
                if delay:
                    sleep_fn(delay)

    @staticmethod
    def _abort_quietly(txn: Transaction, cause: BaseException) -> None:
        """Abort ``txn`` on behalf of ``cause`` without letting an abort
        failure shadow it: the original exception always propagates, with
        any abort-time exception attached as its ``__context__``."""
        try:
            txn.abort()
        except BaseException as abort_error:  # noqa: BLE001 - must not mask
            if abort_error is not cause:
                cause.__context__ = abort_error

    def snapshot(self) -> Dict[str, Any]:
        """Permanently committed values of all objects."""
        if self._striped:
            with self._table.locked_all():
                return self._store.snapshot()
        with self._cond:
            return self._store.snapshot()

    @property
    def initial_values(self) -> Dict[str, Any]:
        """The initial value assignment (the oracle replays from it)."""
        return {obj: self._store.initial_value(obj) for obj in self._store.objects}

    def contention_profile(self, top: int = 10) -> List[Tuple[str, int]]:
        """The hottest objects by lock-wait count, descending — the first
        thing to look at when throughput sags."""
        if self._striped:
            merged: Dict[str, int] = {}
            for stripe in self._table.stripes:
                with stripe.mutex:
                    merged.update(stripe.object_waits)
            ranked = sorted(merged.items(), key=lambda kv: kv[1], reverse=True)
        else:
            with self._cond:
                ranked = sorted(
                    self._object_waits.items(), key=lambda kv: kv[1], reverse=True
                )
        return [(obj, waits) for obj, waits in ranked[:top] if waits > 0]

    def hot_objects(self, top: int = 10) -> List[Tuple[str, int]]:
        """Alias for :meth:`contention_profile` (aggregated across
        stripes in striped mode)."""
        return self.contention_profile(top)

    def assert_quiescent(self) -> None:
        """Assert the engine is at rest: no active transactions, no held
        locks (with eager cleanup), and every version stack collapsed to
        its base entry owned by U.

        A leaked lock or dangling version after all transactions finish is
        a bug in lock inheritance or abort cleanup; tests call this after
        every stress run.
        """
        if self._striped:
            with self._table.locked_all():
                with self._meta:
                    self._assert_quiescent_locked()
            return
        with self._cond:
            self._assert_quiescent_locked()

    def assert_certified(self) -> None:
        """Raise when the streaming certifier has flagged any violation
        so far — or was cut off from the stream: a trace listener that
        raised saw only part of it, so its silence certifies nothing.
        Requires ``certify="streaming"``; at quiescence (every top-level
        transaction resolved) a clean pass is equivalent to the offline
        oracle's serializability verdict on the trace."""
        if self.certifier is None:
            raise ValueError(
                'assert_certified() requires certify="streaming"'
            )
        if self.trace.listener_errors:
            from ..checker.streaming import PROTOCOL, StreamingViolation

            raise StreamingViolation(
                "[%s] %d trace listener error(s), the stream is not "
                "certified; last: %r"
                % (PROTOCOL, self.trace.listener_errors,
                   self.trace.last_listener_error)
            ) from self.trace.last_listener_error
        self.certifier.raise_on_violation()

    def _assert_quiescent_locked(self) -> None:
        active = [
            txn.name for txn in self._txns.values() if txn.status == ACTIVE
        ]
        if active:
            raise AssertionError("active transactions remain: %r" % active)
        if not self.lazy_lock_cleanup:
            for obj, locks in self._locks.items():
                if locks.holders:
                    raise AssertionError(
                        "locks leaked on %s: %r" % (obj, locks)
                    )
            for obj in self._store.objects:
                stack = self._store.stack(obj)
                if len(stack.entries) != 1 or stack.owner != U:
                    raise AssertionError(
                        "version stack not collapsed for %s: %r"
                        % (obj, stack)
                    )
                if stack.deltas:
                    raise AssertionError(
                        "pending increment deltas leaked on %s: %r"
                        % (obj, stack.deltas)
                    )
        if len(self._waits):
            raise AssertionError("waits-for graph not empty")

    @property
    def objects(self) -> Tuple[str, ...]:
        return self._store.objects

    def read_committed(self, obj: str) -> Any:
        """The permanently committed value of one object."""
        if self._striped:
            if obj not in self._table:
                raise UnknownObject(obj)
            with self._table.stripe_of(obj).mutex:
                return self._store.committed_value(obj)
        with self._cond:
            if obj not in self._store:
                raise UnknownObject(obj)
            return self._store.committed_value(obj)

    # -- lifecycle internals (called by Transaction) --------------------------------

    def _begin(self, parent: Transaction) -> Transaction:
        if self._striped:
            txn = seq = None
            with self._meta:
                self._check_begin_parent_locked(parent)
                if self._live_status_locked(parent):
                    name = parent._next_child_name()
                    txn, seq = self._begin_locked(name, parent)
            if txn is None:
                # An ancestor died while the parent was still marked active.
                self._die_as_orphan(parent)
            self._publish_begin(txn, seq)
            return txn
        with self._cond:
            self._check_begin_parent_locked(parent)
            self._check_live_locked(parent)
            name = parent._next_child_name()
            txn, seq = self._begin_locked(name, parent)
        self._publish_begin(txn, seq)
        return txn

    @staticmethod
    def _check_begin_parent_locked(parent: Transaction) -> None:
        if parent.status == ABORTED:
            # A concurrent deadlock-victim or subtree abort may kill the
            # parent between a worker's operations; surface that as the
            # retryable abort it is, not as a caller programming error.
            raise TransactionAborted(parent.name, "begin under aborted transaction")
        if parent.status != ACTIVE:
            raise InvalidTransactionState(
                "cannot begin a child of %s transaction %r"
                % (parent.status, parent.name)
            )

    def _begin_locked(
        self,
        name: ActionName,
        parent: Optional[Transaction],
        read_only: bool = False,
    ) -> Tuple[Transaction, Optional[int]]:
        """Register a new transaction (latch held).  Only the trace seq
        is reserved here; the record and the event fan-out happen in
        :meth:`_publish_begin`, after the latch is released."""
        txn = Transaction(self, name, parent, read_only=read_only)
        if read_only and parent is None:
            # Pin the snapshot horizon under the latch: every commit
            # stamped <= horizon has fully merged into the base versions
            # by the time any of its object latches can be taken.
            txn.snapshot_horizon = self._commit_stamp
            self._snapshot_horizons[name] = self._commit_stamp
        self._txns[name] = txn
        if parent is not None:
            parent.children.append(txn)
        # ``begun`` is a plain attribute: every bump runs under the
        # metadata latch (striped) or the global latch, so it is exact.
        self.stats.begun += 1
        seq = self.trace.reserve_seq() if self.trace is not None else None
        return txn, seq

    def _publish_begin(self, txn: Transaction, seq: Optional[int]) -> None:
        """Off-critical-path half of begin: trace publication and event
        emission (both touch only leaf locks)."""
        if seq is not None:
            self.trace.publish(_begin_record(txn, seq))
        if self.events.enabled:
            self._emit_begun(txn)

    def _emit_begun(self, txn: Transaction) -> None:
        parent = txn.parent
        self.events.emit(
            TxnBegun(txn.name, parent.name if parent is not None else None)
        )

    def _commit(self, txn: Transaction) -> None:
        if self._striped:
            self._commit_striped(txn)
            return
        started = time.monotonic() if self.metrics.enabled else None
        with self._cond:
            outcome = self._commit_locked_global(txn)
            self._cond.notify_all()
        self._publish_commit_global(txn, outcome)
        if started is not None:
            self._h_commit.observe(time.monotonic() - started)

    def _commit_locked_global(
        self, txn: Transaction
    ) -> Tuple[Optional[int], Optional[int], Tuple[str, ...], Optional[int]]:
        """Latched half of a global-mode commit: status flip, lock
        inheritance, and the WAL append.  Returns
        ``(commit_seq, stamp, inherited, wal_lsn)`` for
        :meth:`_publish_commit_global`, which runs after the latch is
        released.  The caller owns ``self._cond`` and the notify."""
        if txn.status == ABORTED:
            raise TransactionAborted(txn.name, "commit after abort")
        if txn.status == COMMITTED:
            raise InvalidTransactionState("%r already committed" % txn.name)
        self._check_live_locked(txn)
        for child in txn.children:
            if child.status == ACTIVE:
                raise InvalidTransactionState(
                    "cannot commit %r: child %r still active"
                    % (txn.name, child.name)
                )
        txn.status = COMMITTED
        commit_seq = (
            self.trace.reserve_seq() if self.trace is not None else None
        )
        stamp = prune_below = None
        if txn.parent is None:
            if txn.read_only:
                self._snapshot_horizons.pop(txn.name, None)
            else:
                self._commit_stamp += 1
                stamp = self._commit_stamp
                horizons = self._snapshot_horizons
                prune_below = (
                    min(horizons.values()) if horizons else stamp
                )
        inherited = tuple(txn.held_objects)
        wal_batch = self._collect_perm_writes(txn)
        self._inherit_locks(txn, stamp, prune_below)
        self._waits.remove_transaction(txn.name)
        self.stats.committed += 1
        # Append inside the latch so WAL order equals commit order; the
        # fsync happens after release (see _publish_commit_global).
        wal_lsn = (
            self.durability.log_commit(txn.name, *wal_batch)
            if wal_batch
            else None
        )
        return commit_seq, stamp, inherited, wal_lsn

    def _publish_commit_global(
        self,
        txn: Transaction,
        outcome: Tuple[Optional[int], Optional[int], Tuple[str, ...], Optional[int]],
        batched: bool = False,
    ) -> Optional[int]:
        """Off-latch half of a global-mode commit: trace publication,
        the durable fsync, and event fan-out.  A ``batched`` caller
        (:meth:`commit_batch`) publishes the whole batch's records in
        one go and covers its commits with one sync, so both are skipped
        here and the WAL lsn is returned."""
        commit_seq, stamp, inherited, wal_lsn = outcome
        if not batched:
            if commit_seq is not None:
                # Top-level commits carry their commit stamp so certifiers
                # can reconstruct the committed state at any horizon.
                self.trace.publish(
                    TraceRecord(COMMIT, txn.name, arg=stamp, seq=commit_seq)
                )
            if wal_lsn is not None:
                self._finish_durable_commit(wal_lsn)
        if self.events.enabled:
            parent = txn.parent
            self.events.emit(TxnCommitted(txn.name, len(inherited)))
            if inherited:
                self.events.emit(
                    LockInherited(
                        txn.name,
                        parent.name if parent is not None else None,
                        inherited,
                    )
                )
        return wal_lsn

    def _collect_perm_writes(
        self, txn: Transaction, held: Optional[Any] = None
    ) -> Optional[Tuple[Dict[str, Any], Dict[str, Any]]]:
        """The ``(writes, deltas)`` a committing **top-level** transaction
        is about to merge into U — the WAL redo batch: absolute values
        from its version entries plus blind-increment deltas.  Must run
        under the latches covering ``txn.held_objects``, *before* the
        version-stack merge (the merge consumes the entries).  Returns
        None when durability is off, the committer is a subtransaction
        (its merge is in-memory only, per Moss), or it holds only read
        locks (nothing to redo).
        """
        if self.durability is None or txn.parent is not None:
            return None
        objects = held if held is not None else txn.held_objects
        writes: Dict[str, Any] = {}
        deltas: Dict[str, Any] = {}
        for obj in objects:
            stack = self._store.stack(obj)
            entry = stack.version_of(txn.name)
            if entry is not None:
                writes[obj] = entry[1]
            delta = stack.delta_of(txn.name)
            if delta is not None:
                deltas[obj] = delta
        if not writes and not deltas:
            return None
        return writes, deltas

    def _finish_durable_commit(self, wal_lsn: int) -> None:
        """Post-latch half of a durable commit: fsync per the sync policy,
        then take the auto-checkpoint when the interval elapsed.  The
        commit call does not return until its batch is durable."""
        durability = self.durability
        assert durability is not None
        durability.sync(wal_lsn)
        if durability.should_checkpoint():
            self.checkpoint()

    def checkpoint(self) -> Any:
        """Take a fuzzy checkpoint of the committed store and truncate the
        WAL.  Requires durability; concurrent calls coalesce (the loser
        returns None)."""
        if self.durability is None:
            raise ValueError(
                "checkpoint() requires EngineConfig(durability=...)"
            )
        return self.durability.checkpoint(self._checkpoint_snapshot)

    def _checkpoint_snapshot(self) -> Tuple[int, Dict[str, Any]]:
        """Atomically capture ``(WAL horizon, committed values)`` under
        the full latch.  The horizon must not be read outside the latch:
        a commit landing between the two captures would be included in
        the snapshot *and* replayed over it — harmless for writes
        (overwrite is idempotent) but double-applying increment deltas.
        """
        durability = self.durability
        assert durability is not None and durability.wal is not None
        wal = durability.wal
        if self._striped:
            with self._table.locked_all():
                return wal.last_lsn, self._store.snapshot()
        with self._cond:
            return wal.last_lsn, self._store.snapshot()

    def close(self) -> None:
        """Flush and close the durability layer (if any) and any event
        sinks that support closing.  The engine itself holds no other
        external resources."""
        if self.durability is not None:
            self.durability.close()
        self.events.close()

    def _inherit_locks(
        self,
        txn: Transaction,
        stamp: Optional[int] = None,
        prune_below: Optional[int] = None,
    ) -> None:
        started = time.monotonic() if self.metrics.enabled else None
        parent = txn.parent
        name = txn.name
        parent_name = parent.name if parent is not None else U
        for obj in txn.held_objects:
            locks = self._locks[obj]
            if parent is None:
                locks.discard(name)  # inherited by U: retained forever, blocks no one
            else:
                locks.inherit(name, parent_name)
            self._store.stack(obj).commit_to_parent(
                name, parent_name, stamp, prune_below
            )
        if parent is not None:
            parent.held_objects |= txn.held_objects
        txn.held_objects = set()
        if started is not None:
            self._h_inherit.observe(time.monotonic() - started)

    def _abort(self, txn: Transaction) -> None:
        if self._striped:
            self._abort_subtree_striped(txn, reason="explicit abort")
            return
        with self._cond:
            self._abort_subtree_locked(txn, reason="explicit abort")
            self._cond.notify_all()

    def _abort_subtree_locked(self, txn: Transaction, reason: str) -> None:
        """Abort every active transaction in txn's subtree, deepest first,
        releasing locks and popping versions (unless lazy cleanup)."""
        if txn.status != ACTIVE:
            return  # idempotent; committed subtrees die via ancestor deadness
        for child in txn.children:
            self._abort_subtree_locked(child, reason)
        txn.status = ABORTED
        if txn.parent is None:
            self._snapshot_horizons.pop(txn.name, None)
        if self.trace is not None:
            self.trace.record_abort(txn.name)
        if not self.lazy_lock_cleanup:
            for obj in txn.held_objects:
                self._locks[obj].discard(txn.name)
                self._store.stack(obj).discard(txn.name)
            txn.held_objects = set()
        self._waits.remove_transaction(txn.name)
        self.stats.aborted += 1
        if self.events.enabled:
            self.events.emit(TxnAborted(txn.name, reason))

    def cancel_waits(self, txn: Transaction) -> None:
        """Withdraw ``txn``'s waits-for edges after an external waiter
        gives up on a blocked request (e.g. the serve layer timing out a
        parked op).  The blocking paths clear their own edges; batch
        attempts leave edges behind on BLOCKED results so the deadlock
        detector sees queued requesters — whoever abandons such a request
        must clear them, or they linger as false cycle material until the
        transaction finishes."""
        self._waits.clear_waits(txn.name)

    def _is_live(self, txn: Transaction) -> bool:
        if self._striped:
            # Status attribute reads are atomic under the GIL; staleness
            # is bounded by the grant-time confirmation under the
            # metadata latch.
            return self._live_status_locked(txn)
        with self._cond:
            return self._live_status_locked(txn)

    def _live_status_locked(self, txn: Transaction) -> bool:
        # ``lineage`` is the ancestor chain frozen at begin (self-first);
        # iterating it avoids chasing parent pointers on every check.
        for node in txn.lineage:
            if node.status == ABORTED:
                return False
        return True

    def _check_live_locked(self, txn: Transaction) -> None:
        if txn.status == ABORTED:
            raise TransactionAborted(txn.name)
        if not self._live_status_locked(txn):
            # An ancestor died; this transaction is an orphan.  Kill its
            # subtree so its locks do not linger.
            self._abort_subtree_locked(txn, reason="ancestor aborted")
            if self.events.enabled:
                self.events.emit(OrphanReaped(txn.name, "ancestor aborted"))
            raise TransactionAborted(txn.name, "ancestor aborted")

    # -- data operation internals ------------------------------------------------------

    def _read(self, txn: Transaction, obj: str, for_update: bool = False) -> Any:
        if txn.read_only:
            if for_update:
                raise ReadOnlyViolation(txn.name, "read_for_update")
            return self._read_snapshot(txn, obj)
        mode = WRITE if (self.single_mode or for_update) else READ
        if self._striped:
            return self._perform_striped(txn, obj, mode, "read", None)
        trace = self.trace
        seq = None
        with self._cond:
            self._acquire_locked(txn, obj, mode)
            stack = self._store.stack(obj)
            value = (
                stack.effective_current() if stack.deltas else stack.current
            )
            # Direct bump of the local counter: the property pair exists
            # for the striped aggregation; under the global latch every
            # increment is serialized right here.
            self.stats._reads += 1
            if trace is not None:
                seq = trace.reserve_seq()
        if seq is not None:
            # Off the critical path: record construction and publication
            # touch only the recorder's leaf lock (see trace.py).
            trace.publish(_perform_record(txn, obj, "read", value, None, seq))
        return value

    def _write(self, txn: Transaction, obj: str, value: Any) -> None:
        if txn.read_only:
            raise ReadOnlyViolation(txn.name, "write")
        if self._striped:
            self._perform_striped(txn, obj, WRITE, "write", value)
            return
        trace = self.trace
        seq = None
        name = txn.name
        with self._cond:
            self._acquire_locked(txn, obj, WRITE)
            stack = self._store.stack(obj)
            seen = stack.current
            stack.ensure_version(name)
            stack.set_value(name, value)
            self.stats._writes += 1
            if trace is not None:
                seq = trace.reserve_seq()
        if seq is not None:
            trace.publish(_perform_record(txn, obj, "write", seen, value, seq))

    def _increment(self, txn: Transaction, obj: str, delta: Any) -> None:
        """A blind increment under an ``INCREMENT`` lock (commutes with
        other increments).  In single mode — where every access conflicts
        anyway — it degenerates to a read-modify-write under the write
        lock, keeping single-mode traces level-2 conformant."""
        if txn.read_only:
            raise ReadOnlyViolation(txn.name, "increment")
        if self.single_mode:
            value = self._read(txn, obj, for_update=True) + delta
            self._write(txn, obj, value)
            return
        if self._striped:
            self._perform_striped(txn, obj, INCREMENT, "increment", delta)
            return
        trace = self.trace
        seq = None
        name = txn.name
        with self._cond:
            self._acquire_locked(txn, obj, INCREMENT)
            self._store.stack(obj).add_delta(name, delta)
            self.stats._increments += 1
            if trace is not None:
                seq = trace.reserve_seq()
        if seq is not None:
            # Blind access: there is no observed value (seen=None); the
            # certifiers replay the delta instead of checking a label.
            trace.publish(
                _perform_record(txn, obj, "increment", None, delta, seq)
            )

    def _read_snapshot(self, txn: Transaction, obj: str) -> Any:
        """A lock-free snapshot read: resolve the committed value as of
        the transaction's horizon from the version history.  Only the
        object's latch is taken briefly — no lock is acquired, so the
        read neither blocks nor aborts writers."""
        horizon = txn.snapshot_horizon
        trace = self.trace
        seq = None
        if self._striped:
            table = self._table
            if table is None or obj not in table:
                raise UnknownObject(obj)
            self._check_live_striped(txn)
            with table.stripe_of(obj).mutex:
                stripe = table.stripe_of(obj)
                value = self._store.stack(obj).value_at(horizon)
                stripe.snapshot_reads += 1
                if trace is not None:
                    seq = trace.reserve_seq()
        else:
            with self._cond:
                if obj not in self._store:
                    raise UnknownObject(obj)
                self._check_live_locked(txn)
                value = self._store.stack(obj).value_at(horizon)
                self.stats._snapshot_reads += 1
                if trace is not None:
                    seq = trace.reserve_seq()
        if seq is not None:
            trace.publish(_perform_record(txn, obj, "read", value, None, seq))
        return value

    def _acquire_locked(self, txn: Transaction, obj: str, mode: str) -> None:
        locks = self._locks.get(obj)
        if locks is None:
            raise UnknownObject(obj)
        name = txn.name
        ancestors = txn.ancestor_names
        # The deadline clock starts lazily at the first block, so the
        # granted-immediately fast path never touches the clock.
        deadline: Optional[float] = None
        blocked = False
        while True:
            self._check_live_locked(txn)
            conflicts = locks.conflicts_with(name, mode, ancestors)
            if conflicts and self.lazy_lock_cleanup:
                conflicts = self._reap_dead_holders_locked(obj, conflicts)
            if not conflicts:
                locks.grant(name, mode)
                txn.held_objects.add(obj)
                if mode == WRITE:
                    # Outstanding increment deltas belong to ancestors of
                    # the grantee (anything else would have conflicted);
                    # fold them into real versions before pushing ours.
                    stack = self._store.stack(obj)
                    stack.materialize_deltas()
                    stack.ensure_version(name)
                if blocked or self._waits.has_waits(name):
                    # Only a request that actually registered waits-for
                    # edges needs to clear them — sparing granted-first-
                    # try requests the graph's leaf lock.  The lock-free
                    # probe catches edges left by a batched attempt that
                    # reported BLOCKED (try_perform_batch) and then found
                    # the conflict gone here.
                    self._waits.clear_waits(name)
                return
            blocked = True
            self._waits.set_waits(name, conflicts)
            if self.detect_deadlocks:
                cycle = self._waits.find_cycle_from(txn.name)
                if cycle is not None:
                    self.stats.deadlocks += 1
                    victim_name = choose_victim(
                        cycle, self.deadlock_policy, txn.name
                    )
                    if self.events.enabled:
                        self.events.emit(DeadlockDetected(txn.name, tuple(cycle)))
                        self.events.emit(
                            VictimChosen(
                                victim_name,
                                self.deadlock_policy,
                                txn.name,
                                len(cycle),
                            )
                        )
                    victim = self._txns[victim_name]
                    self._waits.clear_waits(txn.name)
                    self._abort_subtree_locked(victim, reason="deadlock")
                    self._cond.notify_all()
                    if victim_name.is_ancestor_of(txn.name):
                        raise DeadlockAbort(txn.name, cycle)
                    continue
            self.stats._lock_waits += 1
            self._object_waits[obj] += 1
            now = time.monotonic()
            if deadline is None:
                deadline = now + self.lock_timeout
            remaining = deadline - now
            waited_at = (
                now if (self.metrics.enabled or self.events.enabled) else None
            )
            woke = remaining > 0 and self._cond.wait(timeout=remaining)
            if waited_at is not None:
                waited = time.monotonic() - waited_at
                if self.metrics.enabled:
                    self._h_lock_wait.observe(waited)
                if self.events.enabled:
                    self.events.emit(LockWaited(txn.name, obj, mode, waited))
            if not woke:
                self._waits.clear_waits(txn.name)
                raise LockTimeout(txn.name, obj)

    def _reap_dead_holders_locked(
        self, obj: str, conflicts: List[ActionName]
    ) -> List[ActionName]:
        """Lazy lose-lock: conflicting holders that are dead get their lock
        and version discarded now; the survivors still conflict."""
        locks = self._locks[obj]
        survivors = []
        for holder in conflicts:
            holder_txn = self._txns.get(holder)
            if holder_txn is not None and not self._live_status_locked(holder_txn):
                locks.discard(holder)
                self._store.stack(obj).discard(holder)
                holder_txn.held_objects.discard(obj)
                self.stats._lazy_lock_reaps += 1
                if self.events.enabled:
                    self.events.emit(OrphanReaped(holder, "lazy lock reap"))
            else:
                survivors.append(holder)
        return survivors

    # -- striped-mode internals ---------------------------------------------------
    #
    # Lock order: stripe mutexes (ascending index) -> metadata latch ->
    # leaf locks (waits-for graph, trace counter).  The metadata latch is
    # never held while acquiring a stripe mutex, which is what makes the
    # grant-confirmation and subtree-abort protocols below race-free.

    def _check_live_striped(self, txn: Transaction) -> None:
        """Striped counterpart of :meth:`_check_live_locked`; must be
        called with no stripe mutex held (orphan cleanup takes several)."""
        if txn.status == ABORTED:
            raise TransactionAborted(txn.name)
        if not self._live_status_locked(txn):
            self._die_as_orphan(txn)

    def _die_as_orphan(self, txn: Transaction) -> None:
        self._abort_subtree_striped(txn, reason="ancestor aborted")
        if self.events.enabled:
            self.events.emit(OrphanReaped(txn.name, "ancestor aborted"))
        raise TransactionAborted(txn.name, "ancestor aborted")

    def _perform_striped(
        self, txn: Transaction, obj: str, mode: str, kind: str, arg: Any
    ) -> Any:
        """One data access under the striped lock manager: acquire the
        lock (blocking on the object's own wait queue), then read/write
        the version stack while still holding the stripe mutex.

        Grants are confirmed against the transaction's liveness under the
        metadata latch before they take effect: either the grant's
        metadata section runs first (so the object lands in
        ``held_objects`` and a racing subtree abort cleans it), or the
        abort's runs first (so the confirmation sees a dead transaction
        and the grant is undone in place).  Locks never leak either way.

        Hot-path discipline: inside the stripe mutex only the state
        change itself, the stripe-local counters, and a trace seq
        reservation happen; the trace record is constructed and published
        — and events fan out — after the mutex is released (see the
        linearization argument in trace.py).
        """
        table = self._table
        if table is None or obj not in table:
            raise UnknownObject(obj)
        stripe = table.stripe_of(obj)
        locks = stripe.locks[obj]
        stack = self._store.stack(obj)
        name = txn.name
        ancestors = txn.ancestor_names
        trace = self.trace
        waits = self._waits
        # Deadline clock starts lazily at the first block: the immediate-
        # grant fast path never reads the clock.
        deadline: Optional[float] = None
        blocked = False
        while True:
            self._check_live_striped(txn)
            victim_name: Optional[ActionName] = None
            cycle: Optional[List[ActionName]] = None
            granted = False
            seq = None
            value = seen = None
            with stripe.mutex:
                conflicts = locks.conflicts_with(name, mode, ancestors)
                if conflicts and self.lazy_lock_cleanup:
                    conflicts = self._reap_dead_holders_striped(
                        stripe, obj, conflicts
                    )
                if not conflicts:
                    prev_mode = locks.mode_of(name)
                    had_version = stack.owns_version(name)
                    locks.grant(name, mode)
                    if mode == WRITE:
                        # Any pending deltas belong to the grantee or its
                        # ancestors (others would conflict); fold them into
                        # real versions before pushing ours.  Safe even if
                        # the grant is undone below: the fold is exactly
                        # what a later lock release would have applied.
                        stack.materialize_deltas()
                        stack.ensure_version(name)
                    with self._meta:
                        granted = self._live_status_locked(txn)
                        if granted:
                            txn.held_objects.add(obj)
                    if not granted:
                        # Lost the race with an ancestor's abort: undo the
                        # grant in place (nothing observed it — the stripe
                        # mutex was held throughout).
                        if prev_mode is None:
                            locks.discard(name)
                        else:
                            locks.holders[name] = prev_mode
                        if mode == WRITE and not had_version:
                            stack.discard(name)
                        stripe.notify_object(obj)
                        continue  # loop re-checks liveness -> orphan path
                    if blocked or waits.has_waits(name):
                        # (The probe catches edges left by a batched
                        # BLOCKED attempt, as in the global path.)
                        waits.clear_waits(name)
                    # Stripe-local counters: exact because every bump of
                    # this stripe's reads/writes runs under this stripe's
                    # mutex; ObservableStats sums stripes at read time.
                    if kind == "read":
                        value = (
                            stack.effective_current()
                            if stack.deltas
                            else stack.current
                        )
                        stripe.reads += 1
                    elif kind == "increment":
                        stack.add_delta(name, arg)
                        stripe.increments += 1
                    else:
                        seen = stack.current
                        stack.set_value(name, arg)
                        stripe.writes += 1
                    if trace is not None:
                        seq = trace.reserve_seq()
                else:
                    blocked = True
                    waits.set_waits(name, conflicts)
                    if self.detect_deadlocks:
                        cycle = waits.find_cycle_from(name)
                        if cycle is not None:
                            victim_name = choose_victim(
                                cycle, self.deadlock_policy, name
                            )
                            waits.clear_waits(name)
                    if victim_name is None:
                        # Serialized by this stripe's mutex (see the
                        # reads/writes bumps above).
                        stripe.lock_waits += 1
                        stripe.object_waits[obj] += 1
                        if self.metrics.enabled:
                            self._stripe_contention[stripe.index].inc()
                        with self._meta:
                            self._parked[name] = obj
                        # Re-check after publishing the parked entry: a
                        # subtree abort either sees it (and will notify
                        # this object) or marked us dead before we looked.
                        if not self._live_status_locked(txn):
                            with self._meta:
                                self._parked.pop(name, None)
                            waits.clear_waits(name)
                            continue  # loop top runs the orphan path
                        now = time.monotonic()
                        if deadline is None:
                            deadline = now + self.lock_timeout
                        remaining = deadline - now
                        cond = stripe.condition(obj)
                        waited_at = (
                            now
                            if (self.metrics.enabled or self.events.enabled)
                            else None
                        )
                        woke = remaining > 0 and cond.wait(timeout=remaining)
                        if waited_at is not None:
                            # The histogram/bus take only their own leaf
                            # locks — never a stripe latch (see repro.obs).
                            waited = time.monotonic() - waited_at
                            if self.metrics.enabled:
                                self._h_lock_wait.observe(waited)
                            if self.events.enabled:
                                self.events.emit(
                                    LockWaited(
                                        name, obj, mode, waited, stripe.index
                                    )
                                )
                        with self._meta:
                            self._parked.pop(name, None)
                        if not woke:
                            waits.clear_waits(name)
                            raise LockTimeout(name, obj)
            if granted:
                # Stripe mutex released: construct and publish the trace
                # record off the critical path (its seq was reserved
                # under the mutex, so the linearization is unaffected).
                if seq is not None:
                    # A blind increment observed nothing (seen stays
                    # None); certifiers replay its delta instead.
                    trace.publish(
                        _perform_record(
                            txn, obj, kind,
                            value if kind == "read" else seen, arg, seq,
                        )
                    )
                return value if kind == "read" else None
            if victim_name is not None:
                with self._meta:
                    # Serialized by the metadata latch — ``deadlocks`` is
                    # a plain attribute, see the stats-concurrency note
                    # in repro.obs.stats.
                    self.stats.deadlocks += 1
                if self.events.enabled:
                    self.events.emit(DeadlockDetected(txn.name, tuple(cycle)))
                    self.events.emit(
                        VictimChosen(
                            victim_name,
                            self.deadlock_policy,
                            txn.name,
                            len(cycle) if cycle else 0,
                        )
                    )
                victim = self._txns[victim_name]
                self._abort_subtree_striped(victim, reason="deadlock")
                if victim_name.is_ancestor_of(txn.name):
                    raise DeadlockAbort(txn.name, cycle)

    def _reap_dead_holders_striped(
        self, stripe: Any, obj: str, conflicts: List[ActionName]
    ) -> List[ActionName]:
        """Striped lazy lose-lock (stripe mutex held): discard dead
        conflicting holders' locks and versions; survivors still conflict."""
        locks = stripe.locks[obj]
        stack = self._store.stack(obj)
        survivors = []
        for holder in conflicts:
            holder_txn = self._txns.get(holder)
            if holder_txn is not None and not self._live_status_locked(holder_txn):
                locks.discard(holder)
                stack.discard(holder)
                with self._meta:
                    holder_txn.held_objects.discard(obj)
                # Caller holds this stripe's mutex, so the bump is exact.
                stripe.lazy_lock_reaps += 1
                if self.events.enabled:
                    self.events.emit(OrphanReaped(holder, "lazy lock reap"))
            else:
                survivors.append(holder)
        return survivors

    def _commit_striped(
        self, txn: Transaction, defer_sync: bool = False
    ) -> Optional[int]:
        """Commit under the striped lock manager.

        Two-phase acquire: every stripe covering the transaction's held
        objects is taken (ascending index) *before* the metadata latch, so
        status flip, trace-seq reservation, held-set merge into the parent
        and cross-stripe lock inheritance are one atomic step — a
        concurrent requester can never observe a half-inherited lock set.

        With ``defer_sync`` the durable fsync is skipped and the WAL lsn
        returned so a batched caller can cover many commits with one sync
        (see :meth:`commit_batch`).
        """
        started = time.monotonic() if self.metrics.enabled else None
        name = txn.name
        parent = txn.parent
        parent_name = parent.name if parent is not None else U
        while True:
            with self._meta:
                held = frozenset(txn.held_objects)
            orphan = False
            commit_seq: Optional[int] = None
            stamp: Optional[int] = None
            prune_below: Optional[int] = None
            latched_at = time.monotonic() if started is not None else None
            with self._table.locked(held):
                with self._meta:
                    if frozenset(txn.held_objects) != held:
                        continue  # a child committed concurrently; re-plan
                    if txn.status == ABORTED:
                        raise TransactionAborted(name, "commit after abort")
                    if txn.status == COMMITTED:
                        raise InvalidTransactionState(
                            "%r already committed" % name
                        )
                    if not self._live_status_locked(txn):
                        orphan = True
                    else:
                        for child in txn.children:
                            if child.status == ACTIVE:
                                raise InvalidTransactionState(
                                    "cannot commit %r: child %r still active"
                                    % (name, child.name)
                                )
                        txn.status = COMMITTED
                        if self.trace is not None:
                            # Reserve here (serialized with the status
                            # flip); the record publishes after the
                            # stripe mutexes are released.
                            commit_seq = self.trace.reserve_seq()
                        if parent is None:
                            if txn.read_only:
                                self._snapshot_horizons.pop(name, None)
                            else:
                                # Stamp under the metadata latch (where
                                # snapshot horizons pin); the committed
                                # versions land while this commit still
                                # holds every involved stripe, so a
                                # reader at horizon >= stamp can never
                                # reach a stale stack.
                                self._commit_stamp += 1
                                stamp = self._commit_stamp
                                horizons = self._snapshot_horizons
                                prune_below = (
                                    min(horizons.values())
                                    if horizons
                                    else stamp
                                )
                        if parent is not None:
                            parent.held_objects |= held
                        txn.held_objects = set()
                        self._waits.remove_transaction(name)
                        # Lifecycle counter: exact, serialized by the
                        # metadata latch held here.
                        self.stats.committed += 1
                wal_lsn = None
                if not orphan:
                    # Still inside the stripe mutexes: inherit or retire
                    # each lock and wake exactly the waiters parked on the
                    # objects whose locks changed.
                    inherit_at = time.monotonic() if started is not None else None
                    wal_batch = self._collect_perm_writes(txn, held)
                    for obj in held:
                        locks = self._table.locks_of(obj)
                        if parent is None:
                            locks.discard(name)  # inherited by U
                        else:
                            locks.inherit(name, parent_name)
                        self._store.stack(obj).commit_to_parent(
                            name, parent_name, stamp, prune_below
                        )
                        self._table.stripe_of(obj).notify_object(obj)
                    # Append inside the stripe mutexes so WAL order agrees
                    # with commit order on conflicting objects; the fsync
                    # waits until every latch is released.
                    if wal_batch:
                        wal_lsn = self.durability.log_commit(
                            txn.name, *wal_batch
                        )
                    if inherit_at is not None:
                        self._h_inherit.observe(time.monotonic() - inherit_at)
            if latched_at is not None:
                self._h_latch_hold.observe(time.monotonic() - latched_at)
            if orphan:
                self._die_as_orphan(txn)
            if commit_seq is not None:
                # Off the critical path: every latch is released.  A
                # top-level's record carries its commit stamp so the
                # certifiers can replay committed state in stamp order.
                self.trace.publish(
                    TraceRecord(COMMIT, name, arg=stamp, seq=commit_seq)
                )
            if wal_lsn is not None and not defer_sync:
                self._finish_durable_commit(wal_lsn)
            if started is not None:
                self._h_commit.observe(time.monotonic() - started)
            if self.events.enabled:
                self.events.emit(TxnCommitted(name, len(held)))
                if held:
                    self.events.emit(
                        LockInherited(
                            name,
                            parent_name if parent is not None else None,
                            tuple(sorted(held)),
                        )
                    )
            return wal_lsn

    def _collect_active_subtree(self, root: Transaction) -> List[Transaction]:
        """The ACTIVE transactions of ``root``'s subtree, deepest first
        (metadata latch held).  Mirrors the global walk: a non-active
        node's subtree is skipped — committed subtrees die via ancestor
        deadness, aborted ones were already handled."""
        out: List[Transaction] = []

        def walk(txn: Transaction) -> None:
            if txn.status != ACTIVE:
                return
            for child in txn.children:
                walk(child)
            out.append(txn)

        walk(root)
        return out

    def _abort_subtree_striped(self, root: Transaction, reason: str) -> None:
        """Abort ``root``'s live subtree under the striped lock manager.

        Plan under the metadata latch (which objects and parked waiters
        are involved), two-phase-acquire the covering stripes, then
        re-validate and flip statuses atomically under the latch.  If the
        subtree grew locks on an unlocked stripe in between, release
        everything and re-plan — the grant-confirmation protocol
        guarantees any grant that slips past the status flip undoes
        itself.  Finally discard locks/versions (eager mode) and wake the
        waiters parked on every touched object; in lazy mode locks stay
        but parked waiters of touched objects still wake so they can reap
        the dead holders.
        """
        while True:
            with self._meta:
                doomed = self._collect_active_subtree(root)
                if not doomed:
                    return  # idempotent
                objs = set()
                for txn in doomed:
                    objs |= txn.held_objects
                    parked = self._parked.get(txn.name)
                    if parked is not None:
                        objs.add(parked)
            with self._table.locked(objs):
                cleanup: List[Tuple[ActionName, Tuple[str, ...]]] = []
                wake: set = set()
                aborted_names: List[ActionName] = []
                with self._meta:
                    doomed = self._collect_active_subtree(root)
                    replan = False
                    for txn in doomed:
                        pending = set(txn.held_objects)
                        parked = self._parked.get(txn.name)
                        if parked is not None:
                            pending.add(parked)
                        if not pending <= objs:
                            replan = True
                            break
                    if replan:
                        continue
                    for txn in doomed:
                        txn.status = ABORTED
                        if txn.parent is None:
                            self._snapshot_horizons.pop(txn.name, None)
                        if self.trace is not None:
                            self.trace.record_abort(txn.name)
                        held = txn.held_objects
                        if not self.lazy_lock_cleanup:
                            txn.held_objects = set()
                            cleanup.append((txn.name, tuple(held)))
                        wake.update(held)
                        parked = self._parked.get(txn.name)
                        if parked is not None:
                            wake.add(parked)
                        self._waits.remove_transaction(txn.name)
                        # Lifecycle counter: exact, serialized by the
                        # metadata latch held here.
                        self.stats.aborted += 1
                        aborted_names.append(txn.name)
                # Still inside the stripe mutexes: pop versions, drop
                # locks, and wake only the affected objects' waiters.
                for name, held in cleanup:
                    for obj in held:
                        self._table.locks_of(obj).discard(name)
                        self._store.stack(obj).discard(name)
                for obj in wake:
                    self._table.stripe_of(obj).notify_object(obj)
            if self.events.enabled:
                for name in aborted_names:
                    self.events.emit(TxnAborted(name, reason))
            return

    # -- batched submission (the serve front-end's entry points) -----------------
    #
    # The WAL's group-commit leader/follower pattern, generalized to the
    # engine latches: one latch crossing begins / performs / commits a
    # whole batch of compatible operations, amortizing the synchronization
    # cost that caps per-core throughput under thread-per-session load.
    # Ops that would block never stall a batch — they come back BLOCKED
    # and the caller retries them on the ordinary blocking path (full
    # deadlock detection, waits-for edges and orphan handling included).
    # See src/repro/serve/batch.py for the submission queue in front of
    # these entry points and docs/performance.md (E15) for the numbers.

    def begin_transaction_batch(
        self, count: int, read_only: bool = False
    ) -> List[Transaction]:
        """Begin ``count`` top-level transactions under one latch
        crossing (one metadata-latch acquisition in striped mode, one
        global-latch acquisition otherwise).  Trace records and events
        publish after release, exactly like :meth:`begin_transaction`."""
        if count <= 0:
            return []
        pairs: List[Tuple[Transaction, Optional[int]]] = []
        latch = self._meta if self._striped else self._cond
        with latch:
            for _ in range(count):
                name = U.child(next(self._top_counter))
                pairs.append(
                    self._begin_locked(name, parent=None, read_only=read_only)
                )
        if self.trace is not None:
            self.trace.publish_many(
                [_begin_record(txn, seq) for txn, seq in pairs]
            )
        if self.events.enabled:
            for txn, _seq in pairs:
                self._emit_begun(txn)
        return [txn for txn, _seq in pairs]

    def try_perform_batch(
        self, ops: List[Tuple[Transaction, str, str, Any]]
    ) -> List[Tuple[str, Any]]:
        """Attempt a batch of data operations non-blocking, crossing each
        involved latch once for the whole batch.

        ``ops`` is a sequence of ``(txn, kind, obj, arg)`` with ``kind``
        one of ``"read"``, ``"read_for_update"``, ``"write"``,
        ``"increment"``.  Returns one ``(status, payload)`` per op, in
        order:

        * ``("done", value)`` — performed; trace record published with a
          seq reserved under the latch (same linearization as the per-op
          paths);
        * ``("blocked", None)`` — the lock request conflicts (or is a
          single-mode increment, which expands to two dependent lock
          requests); nothing happened — retry after a lock-releasing
          event (any commit/abort), or on the blocking path.  Conflicting
          requesters leave their waits-for edges registered so queued
          retries stay visible to the deadlock detector;
        * ``("error", exc)`` — the op failed terminally (aborted txn,
          unknown object, read-only violation); the exception is returned,
          not raised, so one dead session never poisons a batch.
        """
        for _txn, kind, _obj, _arg in ops:
            if kind not in _BATCH_KINDS:
                raise ValueError("unknown batch op kind %r" % (kind,))
        if self._striped:
            return self._try_perform_batch_striped(ops)
        return self._try_perform_batch_global(ops)

    def _try_perform_batch_global(
        self, ops: List[Tuple[Transaction, str, str, Any]]
    ) -> List[Tuple[str, Any]]:
        results: List[Optional[Tuple[str, Any]]] = [None] * len(ops)
        publish: List[Tuple[Transaction, str, str, Any, Any, int]] = []
        any_abort = False
        with self._cond:
            for i, (txn, kind, obj, arg) in enumerate(ops):
                try:
                    results[i] = self._attempt_op_locked(
                        txn, kind, obj, arg, publish
                    )
                except (
                    TransactionAborted,
                    InvalidTransactionState,
                    UnknownObject,
                    ReadOnlyViolation,
                ) as error:
                    results[i] = (BATCH_ERROR, error)
                    any_abort = any_abort or isinstance(error, TransactionAborted)
            if any_abort:
                # An orphan died under the latch and released locks:
                # wake blocked requesters so they re-check.
                self._cond.notify_all()
        self._publish_batch(publish)
        return results  # type: ignore[return-value]

    def _attempt_op_locked(
        self,
        txn: Transaction,
        kind: str,
        obj: str,
        arg: Any,
        publish: List[Tuple[Transaction, str, str, Any, Any, int]],
    ) -> Tuple[str, Any]:
        """One non-blocking op attempt under the global latch.  Appends
        ``(txn, obj, kind, seen, arg, seq)`` to ``publish`` for granted
        ops whose trace record publishes after the latch drops."""
        trace = self.trace
        if txn.read_only:
            if kind != "read":
                raise ReadOnlyViolation(txn.name, kind)
            if obj not in self._store:
                raise UnknownObject(obj)
            self._check_live_locked(txn)
            value = self._store.stack(obj).value_at(txn.snapshot_horizon)
            self.stats._snapshot_reads += 1
            if trace is not None:
                publish.append(
                    (txn, obj, "read", value, None, trace.reserve_seq())
                )
            return (BATCH_DONE, value)
        if kind == "increment" and self.single_mode:
            # Single mode degenerates increments to read-modify-write —
            # two dependent lock requests; the fallback path runs both.
            return (BATCH_BLOCKED, None)
        locks = self._locks.get(obj)
        if locks is None:
            raise UnknownObject(obj)
        self._check_live_locked(txn)
        if kind == "read":
            mode = WRITE if self.single_mode else READ
        elif kind == "increment":
            mode = INCREMENT
        else:
            mode = WRITE
        name = txn.name
        conflicts = locks.conflicts_with(name, mode, txn.ancestor_names)
        if conflicts and self.lazy_lock_cleanup:
            conflicts = self._reap_dead_holders_locked(obj, conflicts)
        if conflicts:
            # Register the waits-for edges even though this attempt never
            # waits: the session is logically blocked until its parked
            # retry, and the deadlock detector must see it — a cycle
            # whose members are all parked in the serve queue would
            # otherwise only ever die by lock timeout.  Detection runs
            # only when the edge set changed: the closing edge of any
            # cycle triggers a sweep from its waiter, so unchanged
            # retries have nothing new to find.
            changed = self._waits.set_waits(name, conflicts)
            if self.detect_deadlocks and changed:
                cycle = self._waits.find_cycle_from(name)
                if cycle is not None:
                    self.stats.deadlocks += 1
                    victim_name = choose_victim(
                        cycle, self.deadlock_policy, name
                    )
                    if self.events.enabled:
                        self.events.emit(DeadlockDetected(name, tuple(cycle)))
                        self.events.emit(
                            VictimChosen(
                                victim_name,
                                self.deadlock_policy,
                                name,
                                len(cycle),
                            )
                        )
                    self._waits.clear_waits(name)
                    victim = self._txns[victim_name]
                    self._abort_subtree_locked(victim, reason="deadlock")
                    self._cond.notify_all()
                    if victim_name.is_ancestor_of(name):
                        return (BATCH_ERROR, DeadlockAbort(name, cycle))
            return (BATCH_BLOCKED, None)
        locks.grant(name, mode)
        if self._waits.has_waits(name):
            self._waits.clear_waits(name)
        txn.held_objects.add(obj)
        stack = self._store.stack(obj)
        if mode == WRITE:
            stack.materialize_deltas()
            stack.ensure_version(name)
        if kind == "write":
            seen = stack.current
            stack.set_value(name, arg)
            self.stats._writes += 1
            value = None
            entry = ("write", seen, arg)
        elif kind == "increment":
            stack.add_delta(name, arg)
            self.stats._increments += 1
            value = None
            entry = ("increment", None, arg)
        else:
            value = stack.effective_current() if stack.deltas else stack.current
            self.stats._reads += 1
            entry = ("read", value, None)
        if trace is not None:
            publish.append((txn, obj) + entry + (trace.reserve_seq(),))
        return (BATCH_DONE, value)

    def _try_perform_batch_striped(
        self, ops: List[Tuple[Transaction, str, str, Any]]
    ) -> List[Tuple[str, Any]]:
        table = self._table
        results: List[Optional[Tuple[str, Any]]] = [None] * len(ops)
        publish: List[Tuple[Transaction, str, str, Any, Any, int]] = []
        by_stripe: Dict[int, List[int]] = {}
        for i, (txn, kind, obj, arg) in enumerate(ops):
            if obj not in table:
                results[i] = (BATCH_ERROR, UnknownObject(obj))
                continue
            if txn.status == ABORTED:
                results[i] = (BATCH_ERROR, TransactionAborted(txn.name))
                continue
            if not self._live_status_locked(txn):
                # No latch is held yet, so the full orphan protocol (it
                # two-phase-acquires stripes) can run right here, exactly
                # like _check_live_striped on the blocking path.
                try:
                    self._die_as_orphan(txn)
                except TransactionAborted as error:
                    results[i] = (BATCH_ERROR, error)
                continue
            if txn.read_only:
                if kind != "read":
                    results[i] = (
                        BATCH_ERROR,
                        ReadOnlyViolation(txn.name, kind),
                    )
                    continue
            elif kind == "increment" and self.single_mode:
                results[i] = (BATCH_BLOCKED, None)
                continue
            by_stripe.setdefault(table.stripe_of(obj).index, []).append(i)
        victims: List[Tuple[ActionName, List[ActionName], int]] = []
        for stripe_index in sorted(by_stripe):
            indices = by_stripe[stripe_index]
            stripe = table.stripes[stripe_index]
            with stripe.mutex:
                self._attempt_stripe_batch(
                    stripe, indices, ops, results, publish, victims
                )
        # Victim aborts run with no stripe mutex held (the subtree-abort
        # protocol two-phase-acquires its own stripes), mirroring
        # _perform_striped's deadlock handling.
        for victim_name, cycle, i in victims:
            requester = ops[i][0]
            with self._meta:
                self.stats.deadlocks += 1
            if self.events.enabled:
                self.events.emit(
                    DeadlockDetected(requester.name, tuple(cycle))
                )
                self.events.emit(
                    VictimChosen(
                        victim_name,
                        self.deadlock_policy,
                        requester.name,
                        len(cycle),
                    )
                )
            self._abort_subtree_striped(
                self._txns[victim_name], reason="deadlock"
            )
            if victim_name.is_ancestor_of(requester.name):
                results[i] = (
                    BATCH_ERROR,
                    DeadlockAbort(requester.name, cycle),
                )
        self._publish_batch(publish)
        return results  # type: ignore[return-value]

    def _attempt_stripe_batch(
        self,
        stripe: Any,
        indices: List[int],
        ops: List[Tuple[Transaction, str, str, Any]],
        results: List[Optional[Tuple[str, Any]]],
        publish: List[Tuple[Transaction, str, str, Any, Any, int]],
        victims: List[Tuple[ActionName, List[ActionName], int]],
    ) -> None:
        """Attempt one stripe's slice of a batch (stripe mutex held).

        The per-op grant-confirmation protocol (see
        :meth:`_perform_striped`) is amortized: every tentative grant of
        the stripe is confirmed against transaction liveness under ONE
        metadata-latch crossing, instead of one per op.  Grants that lose
        the race with a subtree abort are undone in place and reported
        BLOCKED — the fallback path then runs the orphan protocol.

        Blocked ops register waits-for edges (the graph is a leaf lock,
        safe under the stripe mutex) and run cycle detection; chosen
        victims are appended to ``victims`` for the caller to abort after
        every stripe mutex is released."""
        trace = self.trace
        # Phase 1: tentative grants (snapshot reads complete immediately —
        # they take no locks, so there is nothing to confirm).
        tentative: List[Tuple[int, Any, bool]] = []
        for i in indices:
            txn, kind, obj, arg = ops[i]
            stack = self._store.stack(obj)
            if txn.read_only:
                value = stack.value_at(txn.snapshot_horizon)
                stripe.snapshot_reads += 1
                if trace is not None:
                    publish.append(
                        (txn, obj, "read", value, None, trace.reserve_seq())
                    )
                results[i] = (BATCH_DONE, value)
                continue
            locks = stripe.locks[obj]
            if kind == "read":
                mode = WRITE if self.single_mode else READ
            elif kind == "increment":
                mode = INCREMENT
            else:
                mode = WRITE
            name = txn.name
            conflicts = locks.conflicts_with(name, mode, txn.ancestor_names)
            if conflicts and self.lazy_lock_cleanup:
                conflicts = self._reap_dead_holders_striped(
                    stripe, obj, conflicts
                )
            if conflicts:
                # Same rationale as the global batch path: the session is
                # logically blocked until its parked retry, so the
                # deadlock detector must see its edges now; detection
                # only on edge change (the closing edge sweeps).
                changed = self._waits.set_waits(name, conflicts)
                if self.detect_deadlocks and changed:
                    cycle = self._waits.find_cycle_from(name)
                    if cycle is not None:
                        self._waits.clear_waits(name)
                        victims.append(
                            (
                                choose_victim(
                                    cycle, self.deadlock_policy, name
                                ),
                                cycle,
                                i,
                            )
                        )
                results[i] = (BATCH_BLOCKED, None)
                continue
            prev_mode = locks.mode_of(name)
            had_version = stack.owns_version(name)
            locks.grant(name, mode)
            if self._waits.has_waits(name):
                self._waits.clear_waits(name)
            if mode == WRITE:
                stack.materialize_deltas()
                stack.ensure_version(name)
            tentative.append((i, mode, prev_mode, had_version))
        if not tentative:
            return
        # Phase 2: one metadata-latch crossing confirms liveness for
        # every tentative grant in this stripe.
        confirmed = [False] * len(tentative)
        with self._meta:
            for j, (i, _mode, _prev, _had) in enumerate(tentative):
                txn = ops[i][0]
                if self._live_status_locked(txn):
                    txn.held_objects.add(ops[i][2])
                    confirmed[j] = True
        # Phase 3: state changes + trace seqs for confirmed grants;
        # in-place undo for the rest (nothing observed them — the stripe
        # mutex was held throughout).
        for j, (i, mode, prev_mode, had_version) in enumerate(tentative):
            txn, kind, obj, arg = ops[i]
            name = txn.name
            locks = stripe.locks[obj]
            stack = self._store.stack(obj)
            if not confirmed[j]:
                if prev_mode is None:
                    locks.discard(name)
                else:
                    locks.holders[name] = prev_mode
                if mode == WRITE and not had_version:
                    stack.discard(name)
                stripe.notify_object(obj)
                results[i] = (BATCH_BLOCKED, None)
                continue
            if kind == "write":
                seen = stack.current
                stack.set_value(name, arg)
                stripe.writes += 1
                value = None
                entry = ("write", seen, arg)
            elif kind == "increment":
                stack.add_delta(name, arg)
                stripe.increments += 1
                value = None
                entry = ("increment", None, arg)
            else:
                value = (
                    stack.effective_current() if stack.deltas else stack.current
                )
                stripe.reads += 1
                entry = ("read", value, None)
            if trace is not None:
                publish.append((txn, obj) + entry + (trace.reserve_seq(),))
            results[i] = (BATCH_DONE, value)

    def _publish_batch(
        self, publish: List[Tuple[Transaction, str, str, Any, Any, int]]
    ) -> None:
        """Publish a batch's trace records (every latch released; seqs
        were reserved under the latches, so linearization is unaffected —
        readers sort by seq, see trace.py)."""
        if self.trace is not None:
            self.trace.publish_many([_perform_record(*op) for op in publish])

    def commit_batch(
        self, txns: List[Transaction]
    ) -> List[Tuple[str, Any]]:
        """Commit many transactions with amortized synchronization: one
        global-latch crossing (global mode) or one pass of per-txn stripe
        acquisitions (striped mode), then ONE durable fsync covering the
        whole batch — the group-commit ack coalescing of
        ``durability/wal.py`` driven from above.  No result is returned
        (and no caller may ack) until the covering sync completes.

        Returns one ``("done", None)`` or ``("error", exc)`` per
        transaction, in order; per-txn failures are contained so one
        aborted session never poisons a batch."""
        results: List[Optional[Tuple[str, Any]]] = [None] * len(txns)
        max_lsn: Optional[int] = None
        if self._striped:
            for i, txn in enumerate(txns):
                try:
                    lsn = self._commit_striped(txn, defer_sync=True)
                except (TransactionAborted, InvalidTransactionState) as error:
                    results[i] = (BATCH_ERROR, error)
                else:
                    results[i] = (BATCH_DONE, None)
                    if lsn is not None and (max_lsn is None or lsn > max_lsn):
                        max_lsn = lsn
            if max_lsn is not None:
                self._finish_durable_commit(max_lsn)
            return results  # type: ignore[return-value]
        started = time.monotonic() if self.metrics.enabled else None
        outcomes: List[Optional[Tuple[Any, ...]]] = [None] * len(txns)
        with self._cond:
            for i, txn in enumerate(txns):
                try:
                    outcomes[i] = self._commit_locked_global(txn)
                except (TransactionAborted, InvalidTransactionState) as error:
                    results[i] = (BATCH_ERROR, error)
            self._cond.notify_all()
        if self.trace is not None:
            self.trace.publish_many([
                TraceRecord(COMMIT, txn.name, arg=outcome[1], seq=outcome[0])
                for txn, outcome in zip(txns, outcomes)
                if outcome is not None
            ])
        for i, txn in enumerate(txns):
            outcome = outcomes[i]
            if outcome is None:
                continue
            lsn = self._publish_commit_global(txn, outcome, batched=True)
            results[i] = (BATCH_DONE, None)
            if lsn is not None and (max_lsn is None or lsn > max_lsn):
                max_lsn = lsn
        if max_lsn is not None:
            self._finish_durable_commit(max_lsn)
        if started is not None:
            self._h_commit.observe(time.monotonic() - started)
        return results  # type: ignore[return-value]

    def __repr__(self) -> str:
        return "NestedTransactionDB(%d objects, %s, %s)" % (
            len(self._store.objects),
            "single-mode" if self.single_mode else "read/write",
            "%d stripes" % self.stripe_count if self._striped else "global latch",
        )
