"""Batched submission: a leader/follower queue in front of the engine.

The WAL's group-commit pattern (``durability/wal.py``: whoever arrives
first becomes the *leader* and fsyncs for every *follower* queued behind
it) generalized to the engine latch.  Client sessions enqueue begin /
perform / commit / abort items; a small pool of CPU workers drains the
queue, and whichever free worker wakes first leads the batch it drained:

* one engine call begins every queued top-level transaction under one
  latch crossing (:meth:`NestedTransactionDB.begin_transaction_batch`);
* one engine call acquires locks, applies state changes and reserves
  trace seqs for every compatible data operation
  (:meth:`~NestedTransactionDB.try_perform_batch`) — trace records
  publish after the latch drops, exactly like the per-op paths;
* one engine call commits every finished transaction with ONE durable
  fsync covering the whole group
  (:meth:`~NestedTransactionDB.commit_batch`) — commit acks coalesce
  into group-commit syncs two layers above the WAL that invented them.

No worker thread EVER sleeps on an engine primitive, and the submitter
keeps no wait queue of its own.  Every op goes to the engine with a
*wake target* — "put this item back at the front of the submission
queue" — so an op the engine reports BLOCKED is already parked on the
engine's per-object wait queue, where it costs nothing until a lock on
its object moves.  Whatever moves it (a commit or abort through this
queue or through the blocking API, a deadlock victim dying inside
somebody's attempt) fires the wake target under the engine latch, and a
worker re-submits the op through the same non-blocking batch path.
Parked ops keep their waits-for edges, so deadlock detection and victim
choice work exactly as on the blocking path.  What is left here is the
clock: blocked ops sit in a deadline queue (every deadline is ``now +
lock_timeout``, so arrival order is deadline order); one still blocked
at its deadline is withdrawn (``cancel_waits``), attempted once more
without a wake target and failed with :class:`LockTimeout`, mirroring the
blocking wait's deadline.

Because workers never block, commits always have a worker to run on —
blocked ops can never deadlock against their own batch, no matter how
many thousands of sessions are in flight over how few threads.

Every item is completed by one step, :func:`_finish`, on the target it
was built with: a ``concurrent.futures.Future`` for direct ``submit_*``
callers, or the asyncio front-end's loop-side target, which hands whole
bursts of results to the event loop at once (``frontend.py``).

Compound operations — ``rmw``, and ``increment`` against a single-mode
engine (where increments degenerate to read-modify-write) — are expanded
by the submitter into a chained pair of batch ops (``read_for_update``
then ``write``); the second half re-enters at the front of the queue and
cannot block (the first half already holds the write lock).

Backends without the batch entry points (e.g. the cluster coordinator's
``GlobalTxn``) degrade gracefully: every item runs per-op on the worker
pool, which still multiplexes thousands of sessions onto a handful of
threads.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from functools import partial
from typing import Any, List, Optional

from ..engine.errors import LockTimeout
from ..obs import MetricsRegistry

BEGIN = "begin"
OP = "op"
COMMIT = "commit"
ABORT = "abort"

#: Op kinds a session may submit.  ``rmw`` runs natively on backends
#: exposing it (the cluster coordinator); the engine path expands it to
#: a chained read_for_update + write through the batch queue.
OP_KINDS = ("read", "read_for_update", "write", "increment", "rmw")

# Batch sizes are counts, not latencies: powers of two up to the queue's
# practical ceiling.
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

# Chained-op stages for compound operations (see module docstring).
_STAGE_RMW_READ = "rmw_read"
_STAGE_RMW_WRITE = "rmw_write"


class _Item:
    __slots__ = (
        "kind",
        "txn",
        "op_kind",
        "obj",
        "arg",
        "read_only",
        "future",
        "deadline",
        "stage",
        "rmw_delta",
    )

    def __init__(
        self,
        kind: str,
        txn: Any = None,
        op_kind: Optional[str] = None,
        obj: Optional[str] = None,
        arg: Any = None,
        read_only: bool = False,
        future: Any = None,
    ) -> None:
        self.kind = kind
        self.txn = txn
        self.op_kind = op_kind
        self.obj = obj
        self.arg = arg
        self.read_only = read_only
        # The completion target: anything with ``done`` / ``set_result`` /
        # ``set_exception`` (the asyncio front-end passes a loop-side
        # one); a direct ``submit_*`` caller gets a plain Future.
        self.future = future if future is not None else Future()
        # Set when the op first blocks: ``that moment + lock_timeout``.
        self.deadline: Optional[float] = None
        self.stage: Optional[str] = None
        self.rmw_delta: Any = None


def _finish(item: _Item, value: Any, error: Optional[BaseException]) -> None:
    """Complete ``item``: its value, or ``error`` when that is not None.
    The one completion step of the submitter.  A target its caller has
    cancelled, or one already complete, keeps what it has: the refusal
    stays with this item instead of failing the rest of its chunk."""
    target = item.future
    try:
        if error is None:
            target.set_result(value)
        else:
            target.set_exception(error)
    except InvalidStateError:
        pass


class BatchSubmitter:
    """The submission queue and its CPU worker pool.

    ``workers`` bounds the threads that ever cross an engine latch —
    the reactor-vs-CPU-pool split: thousands of sessions above, a
    handful of latch-crossing threads below.  ``max_batch`` caps how
    many queued items one leader drains per crossing.
    """

    def __init__(
        self,
        db: Any,
        workers: int = 4,
        max_batch: int = 128,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.db = db
        self.max_batch = max_batch
        self._batched = hasattr(db, "try_perform_batch") and hasattr(
            db, "commit_batch"
        )
        self._single_mode = bool(getattr(db, "single_mode", False))
        self._lock_timeout = float(getattr(db, "lock_timeout", 10.0))
        registry = metrics if metrics is not None else getattr(db, "metrics", None)
        if registry is None:
            registry = MetricsRegistry(enabled=False)
        self.metrics = registry
        # Two FIFO lanes: new submissions, and in front of them woken ops
        # (their blocker just released) and second halves of compound ops
        # (they hold a lock other sessions queue for).
        self._queue: deque = deque()
        self._front: deque = deque()
        # Ops that have blocked, oldest deadline first: in at the first
        # block, out at the deadline or — resolved — on reaching the head.
        self._deadlines: deque = deque()
        self._mutex = threading.Lock()
        self._wakeup = threading.Condition(self._mutex)
        self._closed = False
        # Per-stage metrics: queue depth is a live gauge; batch sizes are
        # count histograms (the shape of the amortization); parked counts
        # the ops that had to wait out a lock conflict.
        registry.gauge(
            "serve_queue_depth", callback=lambda: float(self.queue_depth)
        )
        registry.gauge(
            "serve_parked_depth", callback=lambda: float(len(self._deadlines))
        )
        self._h_batch = registry.histogram(
            "serve_batch_size", buckets=BATCH_SIZE_BUCKETS
        )
        self._h_commit_batch = registry.histogram(
            "serve_commit_batch_size", buckets=BATCH_SIZE_BUCKETS
        )
        self._c_batches = registry.counter("serve_batches_total")
        self._c_ops = registry.counter("serve_ops_total")
        self._c_parked = registry.counter("serve_parked_total")
        self._c_commits = registry.counter("serve_commits_total")
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name="serve-worker-%d" % i,
                daemon=True,
            )
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # -- submission (any thread) ------------------------------------------

    def submit_begin(self, read_only: bool = False) -> Future:
        """Enqueue a top-level begin; the future resolves to the txn."""
        return self._submit(_Item(BEGIN, read_only=read_only))

    def submit_op(
        self, txn: Any, op_kind: str, obj: str, arg: Any = None
    ) -> Future:
        """Enqueue one data operation; the future resolves to its value."""
        if op_kind not in OP_KINDS:
            raise ValueError("unknown op kind %r" % (op_kind,))
        return self._submit(_Item(OP, txn=txn, op_kind=op_kind, obj=obj, arg=arg))

    def submit_commit(self, txn: Any) -> Future:
        """Enqueue a commit; the future resolves (to None) only after the
        commit — and, with durability on, its covering group fsync — is
        complete."""
        return self._submit(_Item(COMMIT, txn=txn))

    def submit_abort(self, txn: Any) -> Future:
        return self._submit(_Item(ABORT, txn=txn))

    def _submit(self, item: _Item) -> Any:
        """Enqueue ``item``; returns its completion target."""
        with self._wakeup:
            if self._closed:
                raise RuntimeError("submitter is closed")
            self._queue.append(item)
            self._wakeup.notify()
        return item.future

    # -- the worker pool ---------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            with self._wakeup:
                while True:
                    now = time.monotonic()
                    due = self._due_locked(now)
                    if due or self._front or self._queue:
                        break
                    if self._closed and not self._deadlines:
                        return
                    self._wakeup.wait(
                        timeout=self._deadlines[0].deadline - now
                        if self._deadlines
                        else None
                    )
                chunk: List[_Item] = []
                for lane in (self._front, self._queue):
                    while lane and len(chunk) < self.max_batch:
                        chunk.append(lane.popleft())
            # Outside the mutex: wake targets take it under the engine
            # latch, so the latch must never be asked for under it.  The
            # withdrawal fires the op's wake target if it is still
            # parked, which brings it back for its last attempt.
            for item in due:
                self.db.cancel_waits(item.txn)
            if not chunk:
                continue
            try:
                self._run_chunk(chunk)
            except BaseException as error:  # noqa: BLE001 - future-contained
                for item in chunk:
                    _finish(item, None, error)

    def _due_locked(self, now: float) -> List[_Item]:
        """Pop the unresolved ops whose deadline has passed, and the
        resolved ones in front of them (mutex held)."""
        due: List[_Item] = []
        deadlines = self._deadlines
        while deadlines:
            item = deadlines[0]
            if not item.future.done():
                if item.deadline > now:
                    break
                due.append(item)
            deadlines.popleft()
        return due

    def _wake(self, item: _Item) -> None:
        """The wake target of ``item``'s engine request: called under the
        engine latch by whatever took the request off the wait queue."""
        with self._wakeup:
            self._front.append(item)
            self._wakeup.notify()

    def _blocked(self, item: _Item, parked: bool) -> None:
        """Account for a BLOCKED op.  One sent with its wake target is
        ``parked`` in the engine (and may already be woken and in another
        worker's hands: only the first-block bookkeeping touches it, under
        the mutex); one sent without was past its deadline and fails."""
        if not parked:
            self.db.cancel_waits(item.txn)
            _finish(item, None, LockTimeout(item.txn.name, item.obj))
            return
        now = time.monotonic()
        with self._wakeup:
            first = item.deadline is None
            if first:
                item.deadline = now + self._lock_timeout
                self._deadlines.append(item)
            expired = item.deadline <= now
        if first:
            self._c_parked.inc()
        elif expired:
            # It blocked again after the deadline queue let go of it.
            self.db.cancel_waits(item.txn)

    def _run_chunk(self, chunk: List[_Item]) -> None:
        self._c_batches.inc()
        begins = [item for item in chunk if item.kind == BEGIN]
        ops = [item for item in chunk if item.kind == OP]
        commits = [item for item in chunk if item.kind == COMMIT]
        aborts = [item for item in chunk if item.kind == ABORT]
        if begins:
            self._run_begins(begins)
        if ops:
            self._c_ops.inc(len(ops))
            self._h_batch.observe(len(ops))
            if self._batched:
                self._run_ops_batched(ops)
            else:
                for item in ops:
                    self._complete(item, self._execute_op, item)
        if commits:
            self._c_commits.inc(len(commits))
            self._h_commit_batch.observe(len(commits))
            if self._batched:
                self._run_commits_batched(commits)
            else:
                for item in commits:
                    self._complete(item, lambda it: it.txn.commit(), item)
        for item in aborts:
            self._complete(item, lambda it: it.txn.abort(), item)

    def _run_begins(self, begins: List[_Item]) -> None:
        if hasattr(self.db, "begin_transaction_batch"):
            for read_only in (False, True):
                group = [item for item in begins if item.read_only is read_only]
                if not group:
                    continue
                try:
                    txns = self.db.begin_transaction_batch(
                        len(group), read_only=read_only
                    )
                except BaseException as error:  # noqa: BLE001
                    for item in group:
                        _finish(item, None, error)
                else:
                    for item, txn in zip(group, txns):
                        _finish(item, txn, None)
            return
        for item in begins:
            self._complete(item, self._begin_direct, item)

    def _begin_direct(self, item: _Item) -> Any:
        if hasattr(self.db, "begin_transaction"):
            return self.db.begin_transaction(read_only=item.read_only)
        return self.db.begin()  # cluster coordinator surface

    def _engine_op(self, item: _Item, now: float) -> Any:
        """The (txn, kind, obj, arg, wake) tuple this item submits to
        the engine, expanding compound ops into their current stage.  An
        op past its deadline goes without a wake target: blocked again,
        it is not parked but failed."""
        expired = item.deadline is not None and item.deadline <= now
        wake = None if expired else partial(self._wake, item)
        if item.stage == _STAGE_RMW_WRITE:
            return (item.txn, "write", item.obj, item.arg, wake)
        if item.op_kind == "rmw" or (
            item.op_kind == "increment" and self._single_mode
        ):
            if item.stage is None:
                item.stage = _STAGE_RMW_READ
                item.rmw_delta = item.arg
            return (item.txn, "read_for_update", item.obj, None, wake)
        return (item.txn, item.op_kind, item.obj, item.arg, wake)

    def _run_ops_batched(self, ops: List[_Item]) -> None:
        now = time.monotonic()
        requests = [self._engine_op(item, now) for item in ops]
        results = self.db.try_perform_batch(requests)
        chained: List[_Item] = []
        for item, request, (status, payload) in zip(ops, requests, results):
            if status == "done":
                if item.stage == _STAGE_RMW_READ:
                    # First half of a compound op: we now hold the write
                    # lock; chain the write through the queue front (it
                    # cannot block).
                    item.stage = _STAGE_RMW_WRITE
                    item.arg = payload + item.rmw_delta
                    chained.append(item)
                elif item.stage == _STAGE_RMW_WRITE:
                    _finish(
                        item, item.arg if item.op_kind == "rmw" else None, None
                    )
                else:
                    _finish(item, payload, None)
            elif status == "error":
                _finish(item, None, payload)
            else:
                self._blocked(item, parked=request[4] is not None)
        if chained:
            with self._wakeup:
                self._front.extend(chained)
                self._wakeup.notify()

    def _run_commits_batched(self, commits: List[_Item]) -> None:
        results = self.db.commit_batch([item.txn for item in commits])
        for item, (status, payload) in zip(commits, results):
            _finish(item, None, payload if status == "error" else None)

    def _execute_op(self, item: _Item) -> Any:
        txn = item.txn
        kind = item.op_kind
        if kind == "read":
            return txn.read(item.obj)
        if kind == "read_for_update":
            method = getattr(txn, "read_for_update", None)
            if method is not None:
                return method(item.obj)
            # The cluster coordinator spells write-intent reads as a flag.
            return txn.read(item.obj, for_update=True)
        if kind == "write":
            return txn.write(item.obj, item.arg)
        if kind == "increment":
            return txn.increment(item.obj, item.arg)
        if kind == "rmw":
            if hasattr(txn, "rmw"):
                return txn.rmw(item.obj, item.arg)
            value = txn.read_for_update(item.obj) + item.arg
            txn.write(item.obj, value)
            return value
        raise ValueError("unknown op kind %r" % (kind,))

    @staticmethod
    def _complete(item: _Item, fn: Any, *args: Any) -> None:
        try:
            result = fn(*args)
        except BaseException as error:  # noqa: BLE001 - future-contained
            _finish(item, None, error)
        else:
            _finish(item, result, None)

    # -- lifecycle ---------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self._front) + len(self._queue)

    @property
    def parked_depth(self) -> int:
        return len(self._deadlines)

    def close(self, timeout: Optional[float] = None) -> None:
        """Stop accepting work, drain the queue (blocked ops stay parked
        until they resolve or time out), and join the pool.  Already-queued
        items complete; new submissions raise."""
        with self._wakeup:
            if self._closed:
                return
            self._closed = True
            self._wakeup.notify_all()
        for thread in self._workers:
            thread.join(timeout)

    def __enter__(self) -> "BatchSubmitter":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
