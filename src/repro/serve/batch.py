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

No worker thread EVER sleeps on an engine condvar.  An operation the
engine reports BLOCKED is *parked* inside the submitter and re-submitted
through the same non-blocking batch path when locks may have been
released.  In Moss locking, locks are held to commit/abort, so a lock
release coincides exactly with a commit or abort flowing through this
queue: every chunk that retires commits or aborts wakes the parked ops
whose objects those transactions held (a targeted wake-up the engine's
own condvar does not offer), and a per-item backoff tick covers releases
the queue cannot see — deadlock-victim aborts inside a batch attempt,
commits performed outside the submitter.  Parked
ops keep their waits-for edges registered (the engine's batch attempt
does this), so deadlock detection sees parked requesters and victim
selection works exactly as on the blocking path; ops parked longer than
the engine's ``lock_timeout`` fail with :class:`LockTimeout`, mirroring
the blocking wait's deadline.

Because workers never block, commits always have a worker to run on —
the parked set can never deadlock against its own batch, no matter how
many thousands of sessions are in flight over how few threads.

Compound operations — ``rmw``, and ``increment`` against a single-mode
engine (where increments degenerate to read-modify-write) — are expanded
by the submitter into a chained pair of batch ops (``read_for_update``
then ``write``); the second half re-enters the queue at the front and
cannot block (the first half already holds the write lock).

Backends without the batch entry points (e.g. the cluster coordinator's
``GlobalTxn``) degrade gracefully: every item runs per-op on the worker
pool, which still multiplexes thousands of sessions onto a handful of
threads.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Any, Dict, List, Optional

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

#: Parked-op retry backoff: first retry after _PARK_MIN s, doubling to
#: _PARK_MAX s.  The backoff tick is a slow catch-all — the primary wake
#: signals are the targeted flush when a commit/abort releases the
#: parked op's object and the full flush when a chunk surfaces an abort
#: (a deadlock victim released locks the queue never saw) — so it only
#: needs to cover commits performed entirely outside the submitter.
#: Polling faster buys nothing: a blocked op cannot grant until its
#: holder commits, and that commit flows through this very queue.
_PARK_MIN = 0.01
_PARK_MAX = 0.1

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
        "retry_at",
        "backoff",
        "stage",
        "rmw_delta",
        "parked",
    )

    def __init__(
        self,
        kind: str,
        txn: Any = None,
        op_kind: Optional[str] = None,
        obj: Optional[str] = None,
        arg: Any = None,
        read_only: bool = False,
    ) -> None:
        self.kind = kind
        self.txn = txn
        self.op_kind = op_kind
        self.obj = obj
        self.arg = arg
        self.read_only = read_only
        self.future: Future = Future()
        self.deadline: Optional[float] = None
        self.retry_at = 0.0
        self.backoff = 0.0
        self.stage: Optional[str] = None
        self.rmw_delta: Any = None
        self.parked = False


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
        self._queue: deque = deque()
        # The parked set is indexed two ways so neither wake path ever
        # scans it whole (a linear scan per chunk is quadratic in session
        # count once tens of thousands of ops are parked at once):
        # * by object — the targeted flush on commit/abort touches only
        #   the released objects' buckets;
        # * a retry_at min-heap — the backoff tick pops exactly the ripe
        #   entries.  Flushed items stay in the heap as stale entries
        #   (item.parked False) and are discarded lazily on pop.
        self._parked_by_obj: Dict[Any, List[_Item]] = {}
        self._park_heap: List[Any] = []
        self._park_seq = itertools.count()
        self._n_parked = 0
        self._mutex = threading.Lock()
        self._wakeup = threading.Condition(self._mutex)
        self._closed = False
        # Per-stage metrics: queue depth is a live gauge; batch sizes are
        # count histograms (the shape of the amortization); parked counts
        # the ops that had to wait out a lock conflict.
        registry.gauge(
            "serve_queue_depth", callback=lambda: float(len(self._queue))
        )
        registry.gauge(
            "serve_parked_depth", callback=lambda: float(self._n_parked)
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

    def _submit(self, item: _Item) -> Future:
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
                    self._requeue_ripe_locked(now)
                    if self._queue:
                        break
                    if self._closed and not self._n_parked:
                        return
                    if self._park_heap:
                        # heap[0] may be a stale (already flushed) entry;
                        # waking early for one is harmless, the ripe scan
                        # discards it.
                        next_at = self._park_heap[0][0]
                        self._wakeup.wait(timeout=max(0.0005, next_at - now))
                    else:
                        self._wakeup.wait()
                chunk = [
                    self._queue.popleft()
                    for _ in range(min(len(self._queue), self.max_batch))
                ]
            try:
                self._run_chunk(chunk)
            except BaseException as error:  # noqa: BLE001 - future-contained
                for item in chunk:
                    if not item.future.done():
                        item.future.set_exception(error)

    def _requeue_ripe_locked(self, now: float) -> None:
        """Move parked items whose backoff expired to the queue BACK.
        A tick retry is speculative — the op was blocked last time and
        usually still is — so it must not cut ahead of progressable work.
        Retries jumping the queue starve the very commits that would
        unblock them: with an n-deep queue of sessions, front-inserted
        retries monopolize the workers while every commit waits at the
        back, and nothing ever grants (observed as minutes of zero
        throughput at 20k sessions).  Caller holds the mutex."""
        heap = self._park_heap
        while heap and heap[0][0] <= now:
            _, _, item = heapq.heappop(heap)
            if not item.parked:
                continue  # flushed earlier; stale heap entry
            self._unpark_locked(item)
            self._queue.append(item)

    def _flush_parked_for(self, released: set) -> None:
        """Retry parked ops whose object a retiring commit/abort just
        unlocked.  Waking only the affected objects matters: flushing the
        whole parked set per commit chunk costs O(parked × commits) spare
        engine attempts, which is quadratic in session count and is
        exactly the storm that melts 10k-session runs.  Releases this
        chunk cannot see (deadlock-victim aborts inside a batch attempt,
        commits outside the submitter) are covered by the backoff tick."""
        if not self._n_parked or not released:
            return
        with self._wakeup:
            wake: List[_Item] = []
            for obj in released:
                bucket = self._parked_by_obj.pop(obj, None)
                if bucket:
                    wake.extend(bucket)
            if not wake:
                return
            for item in wake:
                item.parked = False
            self._n_parked -= len(wake)
            # Front of the queue: unlike tick retries, these are very
            # likely grantable right now — their blocker just released.
            self._queue.extendleft(reversed(wake))
            self._wakeup.notify_all()

    def _flush_all_parked(self) -> None:
        """Retry every parked op: a chunk surfaced an aborted transaction,
        meaning a deadlock victim (or orphan) released locks inside an
        engine batch attempt — a release with no commit/abort item in the
        queue, so no targeted flush can name its objects.  Rare enough
        that the blanket retry (to the queue BACK — speculative work must
        not starve commits) costs nothing."""
        with self._wakeup:
            if not self._n_parked:
                return
            for bucket in self._parked_by_obj.values():
                for item in bucket:
                    item.parked = False
                    self._queue.append(item)
            self._parked_by_obj.clear()
            self._n_parked = 0
            self._wakeup.notify_all()

    def _park(self, item: _Item) -> None:
        """Hold a BLOCKED op for retry; fail it once it has been blocked
        longer than the engine's lock timeout (the blocking path's
        deadline, minus the condvar)."""
        now = time.monotonic()
        if item.deadline is None:
            item.deadline = now + self._lock_timeout
            self._c_parked.inc()
        elif now >= item.deadline:
            if hasattr(self.db, "cancel_waits"):
                self.db.cancel_waits(item.txn)
            item.future.set_exception(
                LockTimeout(item.txn.name, item.obj)
            )
            return
        item.backoff = (
            min(item.backoff * 2, _PARK_MAX) if item.backoff else _PARK_MIN
        )
        item.retry_at = now + item.backoff
        with self._wakeup:
            item.parked = True
            self._parked_by_obj.setdefault(item.obj, []).append(item)
            heapq.heappush(
                self._park_heap, (item.retry_at, next(self._park_seq), item)
            )
            self._n_parked += 1
            self._wakeup.notify()

    def _unpark_locked(self, item: _Item) -> None:
        """Remove one item from the parked index (mutex held; the item's
        heap entry is left to lazy discard)."""
        item.parked = False
        self._n_parked -= 1
        bucket = self._parked_by_obj.get(item.obj)
        if bucket is not None:
            try:
                bucket.remove(item)
            except ValueError:
                pass
            if not bucket:
                del self._parked_by_obj[item.obj]

    def _run_chunk(self, chunk: List[_Item]) -> None:
        self._c_batches.inc()
        begins = [item for item in chunk if item.kind == BEGIN]
        ops = [item for item in chunk if item.kind == OP]
        commits = [item for item in chunk if item.kind == COMMIT]
        aborts = [item for item in chunk if item.kind == ABORT]
        if begins:
            self._run_begins(begins)
        # Snapshot the lock footprint of retiring transactions before the
        # commit/abort clears it: these are the objects whose parked
        # waiters become grantable.
        released: set = set()
        for item in commits:
            released.update(getattr(item.txn, "held_objects", ()) or ())
        for item in aborts:
            released.update(getattr(item.txn, "held_objects", ()) or ())
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
        if commits or aborts:
            self._flush_parked_for(released)

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
                        item.future.set_exception(error)
                else:
                    for item, txn in zip(group, txns):
                        item.future.set_result(txn)
            return
        for item in begins:
            self._complete(item, self._begin_direct, item)

    def _begin_direct(self, item: _Item) -> Any:
        if hasattr(self.db, "begin_transaction"):
            return self.db.begin_transaction(read_only=item.read_only)
        return self.db.begin()  # cluster coordinator surface

    def _engine_op(self, item: _Item) -> Any:
        """The (txn, kind, obj, arg) tuple this item submits to the
        engine, expanding compound ops into their current stage."""
        if item.stage == _STAGE_RMW_WRITE:
            return (item.txn, "write", item.obj, item.arg)
        if item.op_kind == "rmw" or (
            item.op_kind == "increment" and self._single_mode
        ):
            if item.stage is None:
                item.stage = _STAGE_RMW_READ
                item.rmw_delta = item.arg
            return (item.txn, "read_for_update", item.obj, None)
        return (item.txn, item.op_kind, item.obj, item.arg)

    def _run_ops_batched(self, ops: List[_Item]) -> None:
        results = self.db.try_perform_batch(
            [self._engine_op(item) for item in ops]
        )
        chained: List[_Item] = []
        any_error = False
        for item, (status, payload) in zip(ops, results):
            if status == "done":
                if item.stage == _STAGE_RMW_READ:
                    # First half of a compound op: we now hold the write
                    # lock; chain the write through the queue front (it
                    # cannot block).
                    item.stage = _STAGE_RMW_WRITE
                    item.arg = payload + item.rmw_delta
                    chained.append(item)
                elif item.stage == _STAGE_RMW_WRITE:
                    item.future.set_result(
                        item.arg if item.op_kind == "rmw" else None
                    )
                else:
                    item.future.set_result(payload)
            elif status == "error":
                any_error = True
                item.future.set_exception(payload)
            else:
                self._park(item)
        if chained:
            with self._wakeup:
                self._queue.extendleft(reversed(chained))
                self._wakeup.notify()
        if any_error:
            self._flush_all_parked()

    def _run_commits_batched(self, commits: List[_Item]) -> None:
        results = self.db.commit_batch([item.txn for item in commits])
        for item, (status, payload) in zip(commits, results):
            if status == "error":
                item.future.set_exception(payload)
            else:
                item.future.set_result(None)

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
            item.future.set_exception(error)
        else:
            item.future.set_result(result)

    # -- lifecycle ---------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def parked_depth(self) -> int:
        return self._n_parked

    def close(self, timeout: Optional[float] = None) -> None:
        """Stop accepting work, drain the queue (parked ops retry until
        they resolve or time out), and join the pool.  Already-queued
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
