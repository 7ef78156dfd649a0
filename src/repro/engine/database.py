"""The nested-transaction database: Moss locking over versioned storage.

:class:`NestedTransactionDB` is the thread-safe engine tying together the
lock table (:mod:`repro.engine.locks`), the version stacks
(:mod:`repro.engine.storage`), deadlock handling
(:mod:`repro.engine.deadlock`) and trace recording
(:mod:`repro.engine.trace`).

**One latch.**  A single plain mutex guards all shared state: the
transaction registry and statuses, the lock table, the version stacks,
the wait queues, the counters.  Lynch's level 4 is one algebra — one lock
table, one set of ``perform`` / ``release-lock`` / ``lose-lock``
preconditions — and the engine states each of them once:

* :meth:`NestedTransactionDB._attempt_locked` — one non-blocking attempt
  at a data access (liveness, conflict check, waits-for edges and
  deadlock resolution on conflict; grant, apply and trace-seq reservation
  otherwise), run by the blocking API and
  :meth:`~NestedTransactionDB.try_perform_batch` alike;
* :meth:`NestedTransactionDB._commit_locked` — commit to the parent
  (Moss lock inheritance), shared by ``commit()`` and ``commit_batch``;
* :meth:`NestedTransactionDB._abort_subtree_locked` — abort a subtree.

**One wait queue.**  A blocked ``perform`` on ``x`` can only become
enabled by a ``release-lock`` or ``lose-lock`` on ``x``, and all of those
run under the latch.  So a request the attempt cannot grant is parked
once, on ``x``'s queue, with a one-shot *wake target* (``_park_locked``),
and the steps that move a lock on ``x`` — lock inheritance, subtree
abort, the lazy reap — wake exactly ``x``'s waiters in arrival order
(``_wake_locked``); each re-runs the same attempt (wake-and-retry: a
newcomer may still barge in first).  Nobody sleeps on the latch: the
blocking API sleeps on a private gate *outside* it until ``lock_timeout``;
the serve layer's wake target puts the op back on its submission queue.

**Identity is the path.**  Lock holders, version owners, snapshot
horizons, the registry and trace records are keyed by ``Transaction.key``
(a path tuple; ancestry is a prefix test).  An ``ActionName`` is built
only where the paper's name is observable: ``Transaction.name``, events
(rendered at delivery), exceptions and waits-for edges (conflict path
only); the WAL frame is written from the path.  The registry holds
*live* transactions only, so an engine at rest is empty.

Lock order: engine latch, then the leaf locks (waits-for graph, trace
recorder, WAL, metrics, whatever a wake target takes).  **Rows ride
their top-level's family; events ride the outbox:** a latched step only
queues what it has to say.  A trace record's fields, with its seq
reserved there, go on its top-level's ``Transaction.family`` (a row the
recorder stores as it is); the family goes on the outbox, as one item,
in the section that commits or aborts the top-level.  An event goes on
the outbox.  Every entry point delivers the outbox after the latch,
raise or not (``_publish``), so trace listeners and event sinks may
call back into the engine — and a traced op that finishes no top-level
leaves the outbox empty and publishes nothing.  See DESIGN.md ("One
latch") for the measurements that retired the striped alternative.

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
checkpoint plus the log; see ``docs/durability.md``.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from contextlib import contextmanager
from operator import itemgetter

from ..core.action_tree import ABORTED, ACTIVE, COMMITTED
from ..core.naming import ActionName
from ..obs import (
    DeadlockDetected,
    Event,
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
    WalCommitLogged,
)
from .config import EngineConfig
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
from .locks import INCREMENT, READ, WRITE, ObjectLocks
from .retry import DEFAULT_RETRY_POLICY, RetryPolicy
from .storage import ROOT, Key, VersionStack
from .trace import ABORT, COMMIT, CREATE, PERFORM, TraceRecorder
from .transaction import Transaction

# Batch op statuses (see NestedTransactionDB.try_perform_batch /
# commit_batch): DONE carries the op's value, BLOCKED means nothing
# happened (retry on the blocking path), ERROR carries the exception.
BATCH_DONE = "done"
BATCH_BLOCKED = "blocked"
BATCH_ERROR = "error"

#: What :meth:`NestedTransactionDB._attempt_locked` returns for a request
#: it cannot grant (a granted read may see any value, ``None`` included).
_BLOCKED = object()

#: A trace row's seq (rows are ``(op, txn, leaf, obj, kind, seen, arg, seq)``).
_SEQ = itemgetter(7)


def _event(cls: type, *fields: Any) -> Event:
    """An event built at delivery: each ``Transaction`` field is rendered
    as its name here, off the latch, and only when a sink listens."""
    return cls(*[f.name if isinstance(f, Transaction) else f for f in fields])


def _reaped_event(holder: Key) -> Event:
    # A reaped holder is dead: only its key is left to render.
    return OrphanReaped(ActionName.make(holder), "lazy lock reap")


class NestedTransactionDB:
    """A thread-safe in-process database with resilient nested transactions.

    Everything shared sits behind ``self._latch``.  Under that one
    latch every ancestor of an ACTIVE transaction is ACTIVE — a subtree
    abort flips the whole subtree in one critical section — so a granted
    lock can never belong to an orphan nobody will clean up.
    """

    def __init__(
        self,
        initial: Mapping[str, Any],
        config: Optional[EngineConfig] = None,
    ) -> None:
        if config is None:
            config = EngineConfig()
        self.config = config
        self._latch = threading.Lock()
        # Observability: a disabled registry and an empty bus cost one
        # attribute load per guard on the hot path.  Enable with
        # ``db.metrics.enable()`` / ``db.events.attach(sink)`` or inject
        # pre-configured instances.
        self.metrics: MetricsRegistry = (
            config.metrics
            if config.metrics is not None
            else MetricsRegistry(enabled=False)
        )
        self.events: EventBus = (
            config.events if config.events is not None else EventBus()
        )
        # Durability: off by default.  A path (or DurabilityManager) turns
        # on write-ahead logging of top-level commits and, when the
        # directory already holds a checkpoint/WAL, recovers the committed
        # state — the recovered values *become* this engine's initial
        # values (the oracle replays post-recovery traces from them).
        self.durability: Optional[DurabilityManager] = None
        if config.durability is not None:
            manager = (
                config.durability
                if isinstance(config.durability, DurabilityManager)
                else DurabilityManager(config.durability)
            )
            manager.bind(self.metrics, self.events)
            initial = manager.recover(initial).values
            self.durability = manager
        self._initial: Dict[str, Any] = dict(initial)
        # One record per object — its Moss lock holders beside its
        # version stack — so a data access is one dict probe.
        self._objects: Dict[str, Tuple[ObjectLocks, VersionStack]] = {
            obj: (ObjectLocks(), VersionStack(value))
            for obj, value in self._initial.items()
        }
        self.stats: ObservableStats = ObservableStats()
        self.stats.bind(self.metrics)
        # Hot-path histograms are resolved once; samples go through each
        # metric's own leaf lock, never the engine latch (see repro.obs).
        self._h_lock_wait = self.metrics.histogram("engine_lock_wait_seconds")
        self._h_commit = self.metrics.histogram("engine_commit_seconds")
        self._h_inherit = self.metrics.histogram("engine_lock_inherit_seconds")
        self._waits = WaitsForGraph()
        self._waits.bind(self.metrics)
        # Per-object wait queues: an object's blocked requests in arrival
        # order, each with its one-shot wake target.  Only an object with
        # a waiter has an entry: an uncontended release pays a falsy check.
        self._waiters: Dict[str, List[Tuple[Transaction, Callable[[], None]]]] = {}
        # Live (ACTIVE) transactions only, by key: one leaves in the
        # critical section that commits or aborts it.  A lock holder not
        # in here is therefore dead (what lazy cleanup may reap).
        self._txns: Dict[Key, Transaction] = {}
        self._top_counter = itertools.count()
        # Multiversion commit clock: every non-read-only top-level commit
        # takes the next stamp; snapshot (read-only) transactions pin the
        # clock value at begin as their horizon.  Both the clock and the
        # active-horizon registry are guarded by the latch.
        self._commit_stamp = 0
        self._snapshot_horizons: Dict[Key, int] = {}
        self.single_mode = config.single_mode
        self.deadlock_policy = config.deadlock_policy
        self.detect_deadlocks = config.detect_deadlocks
        self.lock_timeout = config.lock_timeout
        self.lazy_lock_cleanup = config.lazy_lock_cleanup
        # Access kind -> lock mode.  Single mode collapses reads into
        # writes; a single-mode increment never reaches the table (it is
        # expanded into read_for_update + write, see _perform).
        self._modes: Dict[str, str] = {
            "read": WRITE if config.single_mode else READ,
            "read_for_update": WRITE,
            "write": WRITE,
            "increment": INCREMENT,
        }
        self.trace: Optional[TraceRecorder] = (
            TraceRecorder() if config.record_trace else None
        )
        # What latched steps have to say, in order — a finished
        # top-level's family (a list of trace rows ``(op, txn, leaf, obj,
        # kind, seen, arg, seq)`` with seqs reserved under the latch, see
        # TraceRecorder.publish_rows), or an event as ``(make, *fields)``
        # — until an entry point delivers it after the latch (_publish).
        # Without a trace or a sink it stays empty.
        self._outbox: Deque[Any] = deque()
        # Top-levels begun with a family that has not reached the outbox
        # yet: the live ones (assert_quiescent checks none is left over).
        self._open_families = 0
        self._object_waits: Dict[str, int] = {obj: 0 for obj in initial}
        # Online certification: "streaming" subscribes an incremental
        # Theorem-9 certifier to the trace stream; violations accumulate
        # in ``db.certifier.violations`` (see ``assert_certified``) the
        # moment they are determined, instead of waiting for a post-hoc
        # oracle run.  (EngineConfig validated the combination.)
        self.certifier: Optional[Any] = None
        if config.certify is not None:
            from ..checker.streaming import StreamingCertifier

            self.certifier = StreamingCertifier(self.initial_values)
            self.trace.add_listener(
                self.certifier.feed, rows=self.certifier.feed_rows
            )

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
        try:
            with self._latch:
                return self._begin_locked((next(self._top_counter),), None, read_only)
        finally:
            if self._outbox:
                self._publish()

    @contextmanager
    def transaction(self, read_only: bool = False) -> Iterator[Transaction]:
        """``with db.transaction() as t``: commit on exit, abort on error.

        A :class:`TransactionAborted` (deadlock victim, explicit abort) is
        re-raised so callers can retry; see :meth:`run_transaction`.  A
        commit that raises (e.g. the WAL rejecting a value) leaves the
        transaction active, so it is aborted like any other failure.
        """
        txn = self.begin_transaction(read_only=read_only)
        try:
            yield txn
            txn.commit()
        except BaseException as error:
            self._abort_quietly(txn, error)
            raise

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
        with self._latch:
            return self._snapshot_locked()

    def _snapshot_locked(self) -> Dict[str, Any]:
        # The committed-to-U values: every stack's base entry is U's.
        return {obj: stack.entries[0][1] for obj, (_, stack) in self._objects.items()}

    @property
    def initial_values(self) -> Dict[str, Any]:
        """The initial value assignment (the oracle replays from it)."""
        return dict(self._initial)

    def contention_profile(self, top: int = 10) -> List[Tuple[str, int]]:
        """The hottest objects by lock-wait count, descending — the first
        thing to look at when throughput sags."""
        with self._latch:
            ranked = sorted(
                self._object_waits.items(), key=lambda kv: kv[1], reverse=True
            )
        return [(obj, waits) for obj, waits in ranked[:top] if waits > 0]

    hot_objects = contention_profile

    def assert_quiescent(self) -> None:
        """Assert the engine is at rest: no active transactions, no held
        locks (with eager cleanup), and every version stack collapsed to
        its base entry owned by U.

        A leaked lock or dangling version after all transactions finish is
        a bug in lock inheritance or abort cleanup; tests call this after
        every stress run.
        """
        with self._latch:
            if self._txns:
                raise AssertionError(
                    "active transactions remain: %r"
                    % [txn.name for txn in self._txns.values()]
                )
            if not self.lazy_lock_cleanup:
                for obj, (locks, stack) in self._objects.items():
                    if locks.holders:
                        raise AssertionError(
                            "locks leaked on %s: %r" % (obj, locks)
                        )
                    if len(stack.entries) != 1 or stack.owner != ROOT:
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
            if self._waiters:
                raise AssertionError(
                    "requests still parked on %r" % sorted(self._waiters)
                )
            if self._outbox:
                raise AssertionError(
                    "%d undelivered item(s) in the outbox" % len(self._outbox)
                )
            if self._open_families:
                raise AssertionError(
                    "%d finished top-level(s) kept their trace rows off "
                    "the outbox" % self._open_families
                )

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

    @property
    def objects(self) -> Tuple[str, ...]:
        return tuple(self._objects)

    def read_committed(self, obj: str) -> Any:
        """The permanently committed value of one object."""
        with self._latch:
            if obj not in self._objects:
                raise UnknownObject(obj)
            return self._objects[obj][1].entries[0][1]

    # -- lifecycle internals (called by Transaction) --------------------------------

    def _begin(self, parent: Transaction) -> Transaction:
        try:
            with self._latch:
                if parent.status == ABORTED:
                    # A concurrent deadlock-victim or subtree abort may kill
                    # the parent between a worker's operations: retryable,
                    # not a caller programming error.
                    raise TransactionAborted(
                        parent.name, "begin under aborted transaction"
                    )
                if parent.status != ACTIVE:
                    raise InvalidTransactionState(
                        "cannot begin a child of %s transaction %r"
                        % (parent.status, parent.name)
                    )
                label = parent._child_counter
                parent._child_counter = label + 1
                return self._begin_locked(parent.key + (label,), parent)
        finally:
            if self._outbox:
                self._publish()

    def _begin_locked(
        self, key: Key, parent: Optional[Transaction], read_only: bool = False
    ) -> Transaction:
        """Register a new transaction (latch held), put its ``create``
        row on its family and queue its ``txn_begun`` event."""
        txn = Transaction(self, key, parent, read_only)
        snapshot = read_only and parent is None
        if snapshot:
            # Pin the snapshot horizon under the latch: every commit
            # stamped <= horizon has fully merged into the base versions.
            txn.snapshot_horizon = self._commit_stamp
            self._snapshot_horizons[key] = self._commit_stamp
        self._txns[key] = txn
        if parent is not None:
            parent.children.append(txn)
        self.stats.begun += 1
        family = txn.family
        if family is not None:
            if parent is None:
                self._open_families += 1
            # A snapshot top-level's ``create`` carries its horizon, so
            # certifiers serialize it at the right commit stamp.
            family.append(
                (CREATE, key, None, None, "snapshot", None,
                 txn.snapshot_horizon, self.trace.reserve_seq())
                if snapshot else
                (CREATE, key, None, None, None, None, None,
                 self.trace.reserve_seq())
            )
        if self.events.enabled:
            self._outbox.append((_event, TxnBegun, txn, parent))
        return txn

    def _commit(self, txn: Transaction) -> None:
        started = time.monotonic() if self.metrics.enabled else None
        try:
            with self._latch:
                inherited, wal_lsn = self._commit_locked(txn)
        finally:
            if self._outbox:
                self._publish()
        self._settle_commits(((txn, inherited),), wal_lsn)
        if started is not None:
            self._h_commit.observe(time.monotonic() - started)

    def _commit_locked(self, txn: Transaction) -> Tuple[Tuple[str, ...], Optional[int]]:
        """Commit ``txn`` to its parent (latch held): validate, append
        the WAL redo batch, then flip the status, inherit locks and
        versions and wake the requests parked on them.  Returns the
        objects it held and its WAL LSN, if any, for ``_settle_commits``.

        The WAL append is the one step that can fail for reasons outside
        the engine (a value the log cannot encode, a closed log), so it
        runs *before* any in-memory change: a raise from here leaves
        ``txn`` ACTIVE with its locks held, for the caller's ordinary
        abort path.  Appending under the latch keeps WAL order equal to
        commit order.
        """
        if txn.status == ABORTED:
            raise TransactionAborted(txn.name, "commit after abort")
        if txn.status == COMMITTED:
            raise InvalidTransactionState("%r already committed" % txn.name)
        for child in txn.children:
            if child.status == ACTIVE:
                raise InvalidTransactionState(
                    "cannot commit %r: child %r still active"
                    % (txn.name, child.name)
                )
        wal_batch = self._collect_perm_writes(txn)
        wal_lsn = None
        if wal_batch:
            wal_lsn = self.durability.log_commit(txn.key, *wal_batch)
            if self.events.enabled:
                writes, deltas = wal_batch
                self._outbox.append(
                    (_event, WalCommitLogged, txn, wal_lsn, len(writes) + len(deltas))
                )
        txn.status = COMMITTED
        # Forgotten: out of the registry, its (finished) children unlinked.
        del self._txns[txn.key]
        txn.children.clear()
        stamp = prune_below = None
        if txn.parent is None:
            if txn.read_only:
                self._snapshot_horizons.pop(txn.key, None)
            else:
                self._commit_stamp += 1
                stamp = self._commit_stamp
                horizons = self._snapshot_horizons
                prune_below = (
                    min(horizons.values()) if horizons else stamp
                )
        family = txn.family
        if family is not None:
            # A top-level's ``commit`` carries its stamp, so certifiers
            # can rebuild the committed state at any horizon.
            family.append(
                (COMMIT, txn.key, None, None, None, None, stamp,
                 self.trace.reserve_seq())
            )
            if txn.parent is None:
                self._family_done_locked(family)
        inherited = tuple(txn.held_objects)
        self._inherit_locks(txn, stamp, prune_below)
        if not self._waits.idle():
            self._waits.remove_transaction(txn.name)
        self.stats.committed += 1
        return inherited, wal_lsn

    def _settle_commits(
        self, done: Iterable[Tuple[Transaction, Tuple[str, ...]]], wal_lsn: Optional[int]
    ) -> None:
        """Off-latch tail of ``commit()`` and ``commit_batch``: fsync per
        the sync policy through ``wal_lsn`` (the call does not return
        until its batch is durable) and take the auto-checkpoint when the
        interval elapsed; only then tell the sinks about ``done``'s
        ``(transaction, objects it held)`` pairs — no sink hears of a
        commit before it is durable."""
        if wal_lsn is not None:
            self.durability.sync(wal_lsn)
            if self.durability.should_checkpoint():
                self.checkpoint()
        if self.events.enabled:
            for txn, inherited in done:
                self._outbox.append((_event, TxnCommitted, txn, len(inherited)))
                if inherited:
                    self._outbox.append(
                        (_event, LockInherited, txn, txn.parent, inherited)
                    )
            self._publish()

    def _collect_perm_writes(
        self, txn: Transaction
    ) -> Optional[Tuple[Dict[str, Any], Dict[str, Any]]]:
        """The ``(writes, deltas)`` a committing **top-level** transaction
        is about to merge into U — the WAL redo batch: absolute values
        from its version entries plus blind-increment deltas.  Must run
        under the latch, *before* the version-stack merge (the merge
        consumes the entries).  Returns None when durability is off, the
        committer is a subtransaction (its merge is in-memory only, per
        Moss), or it holds only read locks (nothing to redo).
        """
        if self.durability is None or txn.parent is not None:
            return None
        writes: Dict[str, Any] = {}
        deltas: Dict[str, Any] = {}
        key = txn.key
        for obj in txn.held_objects:
            stack = self._objects[obj][1]
            entry = stack.version_of(key)
            if entry is not None:
                writes[obj] = entry[1]
            delta = stack.delta_of(key)
            if delta is not None:
                deltas[obj] = delta
        if not writes and not deltas:
            return None
        return writes, deltas

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
        the latch.  The horizon must not be read outside it: a commit
        landing between the two captures would be included in the
        snapshot *and* replayed over it — harmless for writes (overwrite
        is idempotent) but double-applying increment deltas.
        """
        durability = self.durability
        assert durability is not None and durability.wal is not None
        with self._latch:
            return durability.wal.last_lsn, self._snapshot_locked()

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
        """Level-3/4 ``release-lock``, O(objects ``txn`` holds); an
        object it only read has no version to merge.  A top-level's locks
        evaporate, a child's move to its parent (unblocking the parent's
        other descendants): either way the objects' waiters are woken."""
        started = time.monotonic() if self.metrics.enabled else None
        parent = txn.parent
        key = txn.key
        objects = self._objects
        for obj in txn.held_objects:
            locks, stack = objects[obj]
            # A top-level's locks pass to U: retained forever, block no one.
            mode = locks.discard(key) if parent is None else locks.inherit(key)
            if mode != READ:
                stack.commit_to_parent(key, stamp, prune_below)
        if self._waiters:
            self._wake_locked(txn.held_objects)
        if parent is not None:
            parent.held_objects |= txn.held_objects
        txn.held_objects = set()
        if started is not None:
            self._h_inherit.observe(time.monotonic() - started)

    def _abort(self, txn: Transaction) -> None:
        try:
            with self._latch:
                self._abort_subtree_locked(txn, reason="explicit abort")
        finally:
            if self._outbox:
                self._publish()

    def _abort_subtree_locked(self, txn: Transaction, reason: str) -> None:
        """Abort every active transaction in txn's subtree, deepest first,
        releasing locks and popping versions (unless lazy cleanup) — all
        inside the caller's one critical section, so no transaction is
        ever observed ACTIVE under an ABORTED ancestor.  The requests
        parked on its objects are woken at the point of release (a later
        raise in the caller's section cannot lose the wake-up; under lazy
        cleanup the woken request reaps the dead holder itself), and so
        are the subtree's own parked requests, to learn they are dead.
        Each abort row goes on the tree's family (a top-level's family
        then on the outbox) and each ``txn_aborted`` event is queued."""
        if txn.status != ACTIVE:
            return  # idempotent; committed subtrees die via ancestor deadness
        for child in txn.children:
            self._abort_subtree_locked(child, reason)
        txn.status = ABORTED
        key = txn.key
        del self._txns[key]  # forgotten, like a committed one
        txn.children.clear()
        if txn.parent is None:
            self._snapshot_horizons.pop(key, None)
        family = txn.family
        if family is not None:
            family.append(
                (ABORT, key, None, None, None, None, None,
                 self.trace.reserve_seq())
            )
            if txn.parent is None:
                self._family_done_locked(family)
        if self._waiters:
            self._wake_locked(txn.held_objects)
            self._withdraw_locked(txn)
        if not self.lazy_lock_cleanup:
            for obj in txn.held_objects:
                locks, stack = self._objects[obj]
                locks.discard(key)
                stack.discard(key)
            txn.held_objects = set()
        if not self._waits.idle():
            self._waits.remove_transaction(txn.name)
        self.stats.aborted += 1
        if self.events.enabled:
            self._outbox.append((_event, TxnAborted, txn, reason))

    def _family_done_locked(self, family: List[Tuple[Any, ...]]) -> None:
        """A top-level just finished (latch held): its family, every row
        of its tree in seq order, goes on the outbox as one item."""
        self._open_families -= 1
        self._outbox.append(family)

    def _publish(self) -> None:
        """Deliver the outbox, latch *not* held: every entry point that
        changes the engine calls this on its way out, raise or not.  Items
        are delivered FIFO: the families drained before the next event
        go to the recorder in one call, merged into one seq-ordered run
        (it builds records only for listeners without a row form), and
        each event is built here; ``popleft`` hands each item (another
        thread's, perhaps) to exactly one publisher, with no second
        latch crossing."""
        outbox = self._outbox
        while outbox:
            families: List[List[Tuple[Any, ...]]] = []
            event: Optional[Event] = None
            while outbox:
                try:
                    item = outbox.popleft()
                except IndexError:  # a concurrent publisher took the last
                    break
                if item.__class__ is list:  # a finished top-level's rows
                    families.append(item)
                else:
                    event = item[0](*item[1:])
                    break
            if families:
                self.trace.publish_rows(
                    families[0] if len(families) == 1 else
                    sorted(itertools.chain.from_iterable(families), key=_SEQ)
                )
            if event is not None:
                self.events.emit(event)

    def cancel_waits(self, txn: Transaction) -> None:
        """Withdraw ``txn``'s blocked requests — wait-queue entries and
        waits-for edges — as both APIs do at their ``lock_timeout``
        deadline.  A BLOCKED attempt leaves its edges behind so the
        deadlock detector sees the parked requester; whoever abandons the
        request must withdraw them, or they linger as false cycle
        material until the transaction finishes.  A withdrawn entry's
        wake target fires, so its owner learns it is no longer parked."""
        try:
            with self._latch:
                if self._waiters:
                    self._withdraw_locked(txn)
                self._waits.clear_waits(txn.name)
        finally:
            if self._outbox:  # a timed-out waiter's ``lock_waited``
                self._publish()

    def _park_locked(
        self, txn: Transaction, obj: str, wake: Callable[[], None]
    ) -> None:
        """Queue the request :meth:`_attempt_locked` just refused behind
        ``obj``'s other waiters (latch held).  ``wake`` is called once,
        under the latch (so it may take leaf locks only), by whatever
        takes the entry out again: a lock on ``obj`` moving, ``txn``
        aborting, ``cancel_waits``.  The owner then re-runs the attempt."""
        self._waiters.setdefault(obj, []).append((txn, wake))

    def _wake_locked(self, objs: Iterable[str]) -> None:
        """Wake the requests parked on ``objs``, in arrival order (latch
        held): a lock on each of them just moved, which is the only thing
        that can enable a blocked ``perform``."""
        waiters = self._waiters
        for obj in objs:
            for _txn, wake in waiters.pop(obj, ()):
                wake()

    def _withdraw_locked(self, txn: Transaction) -> None:
        """Take ``txn``'s own parked requests out of the wait queues and
        wake them (latch held): an aborted requester re-runs its attempt
        to learn it is dead, a timed-out one is no longer waiting."""
        for obj, queue in list(self._waiters.items()):
            mine = [wake for waiter, wake in queue if waiter is txn]
            if not mine:
                continue
            if len(mine) == len(queue):
                del self._waiters[obj]
            else:
                self._waiters[obj] = [e for e in queue if e[0] is not txn]
            for wake in mine:
                wake()

    def _is_live(self, txn: Transaction) -> bool:
        with self._latch:
            return self._live_status_locked(txn)

    def _live_status_locked(self, txn: Transaction) -> bool:
        # Self first: aborts flip statuses deepest-first.  Off the hot
        # path — only finished handles and ``is_live`` get here.
        node: Optional[Transaction] = txn
        while node is not None:
            if node.status == ABORTED:
                return False
            node = node.parent
        return True

    def _check_live_locked(self, txn: Transaction) -> None:
        """Raise unless ``txn`` may act.  An ACTIVE transaction is live by
        construction: begin requires an ACTIVE parent and subtree abort
        flips the whole subtree inside one critical section, so every
        ancestor of an ACTIVE transaction is ACTIVE and there is no
        ancestor chain to walk.  What is left is a finished handle."""
        status = txn.status
        if status == ACTIVE:
            return
        if status == ABORTED:
            raise TransactionAborted(txn.name)
        if not self._live_status_locked(txn):
            # Committed to a parent that later aborted.
            raise TransactionAborted(txn.name, "ancestor aborted")
        raise InvalidTransactionState("%r already committed" % txn.name)

    # -- data operation internals ------------------------------------------------------

    def _perform(self, txn: Transaction, kind: str, obj: str, arg: Any = None) -> Any:
        """The blocking data-access API (``Transaction.read`` / ``write``
        / ``read_for_update`` / ``increment``): attempt under the latch;
        while the request conflicts, park it and sleep *outside* the
        latch on a private gate its wake target opens."""
        if kind == "increment" and self.single_mode and not txn.read_only:
            # Single mode — where every access conflicts anyway — has no
            # increment lock: degenerate to read-modify-write under the
            # write lock, keeping single-mode traces level-2 conformant.
            value = self._perform(txn, "read_for_update", obj) + arg
            self._perform(txn, "write", obj, value)
            return None
        # The gate and the deadline clock are made at the first block: the
        # granted-first-try path allocates nothing and reads no clock.
        gate: Optional[Any] = None
        deadline: Optional[float] = None
        while True:
            try:
                with self._latch:
                    seen = self._attempt_locked(txn, kind, obj, arg)
                    if seen is _BLOCKED:
                        if gate is None:
                            gate = threading.Lock()
                            gate.acquire()
                        # Parked <=> the gate is shut: whoever takes the
                        # entry out opens it, once.
                        self._park_locked(txn, obj, gate.release)
            finally:
                if self._outbox:
                    self._publish()
            if seen is not _BLOCKED:
                return None if kind == "write" else seen
            now = time.monotonic()
            if deadline is None:
                deadline = now + self.lock_timeout
            remaining = deadline - now
            woke = remaining > 0 and gate.acquire(timeout=remaining)
            if self.metrics.enabled or self.events.enabled:
                waited = time.monotonic() - now
                if self.metrics.enabled:
                    self._h_lock_wait.observe(waited)
                if self.events.enabled:
                    # Delivered by the next attempt, or cancel_waits.
                    self._outbox.append(
                        (_event, LockWaited, txn, obj, self._modes[kind], waited)
                    )
            if not woke:
                self.cancel_waits(txn)
                raise LockTimeout(txn.name, obj)

    def _attempt_locked(self, txn: Transaction, kind: str, obj: str, arg: Any) -> Any:
        """One non-blocking attempt at a data access (latch held) — the
        paper's ``perform`` precondition and effect, stated once.

        Granted: the lock is taken, the read / write / increment applied
        to the version stack, the counter bumped and the trace row put on
        the family; returns the value observed (``None`` for a blind
        increment).

        Conflicting: the waits-for edges are registered (they stay behind
        so the deadlock detector sees the requester while it is parked,
        whichever API parked it), a cycle sweep runs when the edge set
        changed (the closing edge of any cycle triggers the sweep from its
        waiter, so unchanged retries have nothing new to find), a victim
        other than the requester's own lineage is aborted and the attempt
        repeats at once; otherwise returns ``_BLOCKED`` and nothing
        happened — the caller parks the request (:meth:`_park_locked`)
        before it leaves the latch.

        Raises for terminal failures: aborted or orphaned transaction
        (:class:`DeadlockAbort` when this very sweep chose the requester
        or one of its ancestors), unknown object, read-only violation.
        """
        if txn.read_only:
            # Snapshot read: resolve the committed value as of the
            # transaction's horizon from the version history.  No lock is
            # acquired, so it neither blocks nor aborts writers.
            if kind != "read":
                raise ReadOnlyViolation(txn.name, kind)
            if obj not in self._objects:
                raise UnknownObject(obj)
            self._check_live_locked(txn)
            seen = self._objects[obj][1].value_at(txn.snapshot_horizon)
            self.stats.snapshot_reads += 1
            if txn.family is not None:
                txn.family.append(
                    (PERFORM, txn.key, txn.next_access_label(kind), obj, kind,
                     seen, None, self.trace.reserve_seq())
                )
            return seen
        record = self._objects.get(obj)
        if record is None:
            raise UnknownObject(obj)
        locks, stack = record
        mode = self._modes[kind]
        key = txn.key
        waits = self._waits
        while True:
            if txn.status != ACTIVE:
                self._check_live_locked(txn)  # raises: finished handle
            conflicts = locks.conflicts_with(key, mode)
            if conflicts and self.lazy_lock_cleanup:
                conflicts = self._reap_dead_holders_locked(obj, conflicts)
            if not conflicts:
                break
            # Names appear on the conflict path only: the survivors are
            # live, so the registry renders each as its (cached) name.
            name = txn.name
            blockers = [self._txns[holder].name for holder in conflicts]
            changed = waits.set_waits(name, blockers)
            if changed and self.detect_deadlocks:
                cycle = waits.find_cycle_from(name)
                if cycle is not None:
                    self._break_deadlock_locked(txn, cycle)
                    continue
            self.stats.lock_waits += 1
            self._object_waits[obj] += 1
            return _BLOCKED
        locks.grant(key, mode)
        txn.held_objects.add(obj)
        if not waits.idle() and waits.has_waits(txn.name):
            # Lock-free probes: only a request that registered edges (this
            # attempt's earlier rounds, or a previous BLOCKED attempt)
            # pays for the graph's leaf lock.
            waits.clear_waits(txn.name)
        if mode == WRITE:
            # Outstanding increment deltas belong to ancestors of the
            # grantee (anything else would have conflicted); fold them
            # into real versions before pushing ours.
            if stack.deltas:
                stack.materialize_deltas()
            stack.ensure_version(key)
        if kind == "write":
            seen = stack.current
            stack.set_value(key, arg)
            self.stats.writes += 1
        elif kind == "increment":
            # Blind access: there is no observed value; the certifiers
            # replay the delta instead of checking a label.
            seen = None
            stack.add_delta(key, arg)
            self.stats.increments += 1
        else:
            seen = stack.effective_current() if stack.deltas else stack.current
            self.stats.reads += 1
            # Traced as a read whatever lock it took, and without an arg.
            kind, arg = "read", None
        family = txn.family
        if family is not None:
            family.append(
                (PERFORM, key, txn.next_access_label(kind), obj, kind, seen,
                 arg, self.trace.reserve_seq())
            )
        return seen

    def _break_deadlock_locked(
        self, txn: Transaction, cycle: List[ActionName]
    ) -> None:
        """Abort the victim of a cycle found from ``txn``'s new edges;
        raises :class:`DeadlockAbort` when that takes ``txn`` down too."""
        name = txn.name
        self.stats.deadlocks += 1
        victim_name = choose_victim(cycle, self.deadlock_policy, name)
        if self.events.enabled:
            self._outbox.append((_event, DeadlockDetected, name, tuple(cycle)))
            self._outbox.append(
                (_event, VictimChosen, victim_name, self.deadlock_policy, name,
                 len(cycle))
            )
        self._waits.clear_waits(name)
        # Graph nodes are live (a finishing transaction leaves the graph
        # in the same section), hence registered.
        victim = self._txns[victim_name.path]
        self._abort_subtree_locked(victim, reason="deadlock")
        if victim_name.is_ancestor_of(name):
            raise DeadlockAbort(name, cycle)

    def _reap_dead_holders_locked(
        self, obj: str, conflicts: List[Key]
    ) -> List[Key]:
        """Lazy lose-lock: conflicting holders that are dead get their lock
        and version discarded now; the survivors still conflict.

        A committed transaction's locks moved to its parent's key, so a
        key still in the lock table is live (registered) or dead — and
        the table entry is all that is left of a dead holder."""
        locks, stack = self._objects[obj]
        survivors = []
        for holder in conflicts:
            if holder in self._txns:
                survivors.append(holder)
                continue
            locks.discard(holder)
            stack.discard(holder)
            self.stats.lazy_lock_reaps += 1
            if self.events.enabled:
                self._outbox.append((_reaped_event, holder))
        if self._waiters and len(survivors) != len(conflicts):
            # A parked request has a live blocker besides; this keeps
            # "every lock move wakes" unconditional.
            self._wake_locked((obj,))
        return survivors

    # -- batched submission (the serve front-end's entry points) -----------------
    #
    # The WAL's group-commit leader/follower pattern, generalized to the
    # engine latch: one latch crossing begins / performs / commits a
    # whole batch of compatible operations, amortizing the synchronization
    # cost that caps per-core throughput under thread-per-session load.
    # Ops that would block never stall a batch — they come back BLOCKED,
    # parked on the engine's wait queue when they carry a wake target
    # (the caller re-submits the same attempt when it fires).  See
    # src/repro/serve/batch.py for the submission queue in front of these
    # entry points and the spine's ``served_durable`` workload for numbers.

    def begin_transaction_batch(self, count: int, read_only: bool = False) -> List[Transaction]:
        """Begin ``count`` top-level transactions under one latch
        crossing, publishing like :meth:`begin_transaction`."""
        try:
            with self._latch:
                return [
                    self._begin_locked((next(self._top_counter),), None, read_only)
                    for _ in range(count)
                ]
        finally:
            if self._outbox:
                self._publish()

    def try_perform_batch(self, ops: List[Tuple[Any, ...]]) -> List[Tuple[str, Any]]:
        """Attempt a batch of data operations non-blocking, crossing the
        latch once for the whole batch.

        ``ops`` is a sequence of ``(txn, kind, obj, arg)`` or
        ``(txn, kind, obj, arg, wake)`` with ``kind`` one of ``"read"``,
        ``"read_for_update"``, ``"write"``, ``"increment"``.  Returns one
        ``(status, payload)`` per op, in order:

        * ``("done", value)`` — performed, its trace record published like
          the blocking path's;
        * ``("blocked", None)`` — the lock request conflicts (or is a
          single-mode increment, which expands to two dependent lock
          requests the caller must issue); nothing happened.  The
          requester's waits-for edges stay registered, so the deadlock
          detector sees it, and an op carrying a ``wake`` callable is
          parked (:meth:`_park_locked`): re-submit it when ``wake()``
          fires.  Without one the retry is the caller's business, and so
          is :meth:`cancel_waits` when it gives up;
        * ``("error", exc)`` — the op failed terminally (aborted txn,
          unknown object, read-only violation); the exception is returned,
          not raised, so one dead session never poisons a batch.
        """
        for op in ops:
            if op[1] not in self._modes:
                raise ValueError("unknown batch op kind %r" % (op[1],))
        results: List[Tuple[str, Any]] = []
        try:
            with self._latch:
                for op in ops:
                    txn, kind, obj, arg = op[:4]
                    if kind == "increment" and self.single_mode and not txn.read_only:
                        # Two dependent lock requests; the fallback runs both.
                        results.append((BATCH_BLOCKED, None))
                        continue
                    try:
                        seen = self._attempt_locked(txn, kind, obj, arg)
                    except (
                        TransactionAborted,
                        InvalidTransactionState,
                        UnknownObject,
                    ) as error:
                        results.append((BATCH_ERROR, error))
                        continue
                    if seen is _BLOCKED:
                        if len(op) > 4 and op[4] is not None:
                            self._park_locked(txn, obj, op[4])
                        results.append((BATCH_BLOCKED, None))
                        continue
                    results.append((BATCH_DONE, None if kind == "write" else seen))
        finally:
            if self._outbox:
                self._publish()
        return results

    def commit_batch(self, txns: List[Transaction]) -> List[Tuple[str, Any]]:
        """Commit many transactions with amortized synchronization: one
        latch crossing, then ONE durable fsync covering the whole batch —
        the group-commit ack coalescing of ``durability/wal.py`` driven
        from above.  No result is returned (and no caller may ack) until
        the covering sync completes.

        Returns one ``("done", None)`` or ``("error", exc)`` per
        transaction, in order.  Failures are contained per transaction —
        an aborted session, or one whose redo batch the WAL rejects,
        stays out of the batch (the latter still ACTIVE, for its owner to
        abort) while the rest are published, synced and acked."""
        started = time.monotonic() if self.metrics.enabled else None
        results: List[Tuple[str, Any]] = []
        done: List[Tuple[Transaction, Tuple[str, ...]]] = []
        last_lsn = None  # LSNs grow under the latch: the last covers all
        try:
            with self._latch:
                for txn in txns:
                    try:
                        inherited, wal_lsn = self._commit_locked(txn)
                    except Exception as error:  # noqa: BLE001 - contained per txn
                        results.append((BATCH_ERROR, error))
                        continue
                    results.append((BATCH_DONE, None))
                    done.append((txn, inherited))
                    if wal_lsn is not None:
                        last_lsn = wal_lsn
        finally:
            if self._outbox:
                self._publish()
        self._settle_commits(done, last_lsn)
        if started is not None:
            self._h_commit.observe(time.monotonic() - started)
        return results

    def __repr__(self) -> str:
        return "NestedTransactionDB(%d objects, %s)" % (
            len(self._objects),
            "single-mode" if self.single_mode else "read/write",
        )

