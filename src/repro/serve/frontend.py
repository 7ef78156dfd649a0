"""The asyncio session front-end: thousands of in-flight sessions,
a handful of latch-crossing threads.

The split is the classic reactor-vs-CPU-pool design (cf. Tahoe-LAFS
``cputhreadpool``): the event loop owns session state machines and never
touches an engine latch; every lock acquisition, version-stack change,
commit and fsync happens on the :class:`~repro.serve.batch.BatchSubmitter`
worker pool.  Results come back in bursts: a worker completes each
session's item in place, into a per-loop outbox, and only the result that
finds the outbox empty wakes the loop; one drain on the loop then
resolves every session future that landed meanwhile.  The loop is woken
once per burst, not once per awaited result.  Because a session awaits
each operation before issuing the next, its Transaction handle is only
ever touched by one pool thread at a time — the same single-caller
discipline the sync API requires.

Usage::

    frontend = AsyncFrontend(db, workers=4)
    async with frontend.session() as s:      # begin; commit on exit
        balance = await s.read("acct")
        await s.write("acct", balance - 10)

    await frontend.run_session(transfer)     # retry deadlock victims

Every session funnels through the submitter, so one latch crossing
serves whole batches of concurrent sessions' operations and commit acks
coalesce into group fsyncs — docs/performance.md describes the design;
the ``served_durable`` workload and the ``serve`` ledger line of
``benchmarks/spine`` measure it.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from concurrent.futures import InvalidStateError
from typing import Any, Callable, List, Optional

from ..engine.errors import LockTimeout, TransactionAborted
from ..obs import MetricsRegistry
from .batch import ABORT, BEGIN, COMMIT, OP, OP_KINDS, BatchSubmitter, _Item


class _Landing:
    """The completion target of one awaited item: a worker's
    ``set_result`` / ``set_exception`` lands the outcome in the outbox,
    and the loop's drain hands it to ``waiter``."""

    __slots__ = ("outbox", "waiter", "begin", "landed", "value", "error")

    def __init__(
        self, outbox: "_Outbox", waiter: asyncio.Future, begin: bool
    ) -> None:
        self.outbox = outbox
        self.waiter = waiter
        self.begin = begin
        self.landed = False
        self.value: Any = None
        self.error: Optional[BaseException] = None

    def done(self) -> bool:
        return self.landed

    def set_result(self, value: Any) -> None:
        self.outbox.post(self, value, None)

    def set_exception(self, error: BaseException) -> None:
        self.outbox.post(self, None, error)


class _Outbox:
    """The results bound for one event loop.  ``lock`` is a leaf: held
    only to append or swap the list, never while taking the submitter
    mutex or the engine latch."""

    __slots__ = ("loop", "frontend", "lock", "landed")

    def __init__(
        self, loop: asyncio.AbstractEventLoop, frontend: "AsyncFrontend"
    ) -> None:
        self.loop = loop
        self.frontend = frontend
        self.lock = threading.Lock()
        self.landed: List[_Landing] = []

    def post(
        self, landing: _Landing, value: Any, error: Optional[BaseException]
    ) -> None:
        """Land an outcome (any thread).  Only the post that finds the
        outbox empty wakes the loop: the drain it schedules takes every
        post that follows until it runs."""
        with self.lock:
            if landing.landed:
                raise InvalidStateError("result already landed")
            landing.landed = True
            landing.value = value
            landing.error = error
            self.landed.append(landing)
            if len(self.landed) > 1:
                return
        self.frontend._c_wakeups.inc()
        try:
            self.loop.call_soon_threadsafe(self.drain)
        except RuntimeError:
            pass  # the loop is closed: nobody is left to await the result

    def drain(self) -> None:
        """Resolve every landed session future (on the loop)."""
        with self.lock:
            landed, self.landed = self.landed, []
        for landing in landed:
            waiter = landing.waiter
            if waiter.done():
                # Cancelled while in flight.  A begin's transaction has
                # no holder now, so it is aborted here; any other item's
                # transaction is still held by its session.
                if landing.begin and landing.error is None:
                    self.frontend._abort_orphan(landing.value)
            elif landing.error is None:
                waiter.set_result(landing.value)
            else:
                waiter.set_exception(landing.error)


class Session:
    """One client session: an async facade over a top-level transaction.

    Also an async context manager: ``async with frontend.session() as s``
    begins on entry, commits on clean exit, aborts (and re-raises) on
    error, a failing commit included — mirroring ``db.transaction()``.

    Cancelling an await does not withdraw what it submitted: the item
    still runs and its result is dropped.  A ``begin`` cancelled that way
    leaves the session without its transaction, so the front-end aborts
    it.  A cancelled op or commit needs no special case: the session
    still holds its transaction, and ``__aexit__`` / ``run_session``
    abort it as on any other error (a no-op if the commit went through).
    """

    __slots__ = ("_frontend", "_txn", "read_only", "_began_at")

    def __init__(self, frontend: "AsyncFrontend", read_only: bool = False) -> None:
        self._frontend = frontend
        self._txn: Any = None
        self.read_only = read_only
        self._began_at: Optional[float] = None

    @property
    def txn(self) -> Any:
        """The underlying transaction handle (None before begin)."""
        return self._txn

    async def begin(self) -> "Session":
        if self._txn is not None:
            raise RuntimeError("session already began")
        self._began_at = time.perf_counter()
        self._txn = await self._frontend._submit(
            BEGIN, read_only=self.read_only
        )
        return self

    async def perform(self, kind: str, obj: str, arg: Any = None) -> Any:
        """Submit one data operation (kind in ``serve.batch.OP_KINDS``)."""
        self._require_begun()
        if kind not in OP_KINDS:
            raise ValueError("unknown op kind %r" % (kind,))
        return await self._frontend._submit(OP, self._txn, kind, obj, arg)

    async def read(self, obj: str) -> Any:
        return await self.perform("read", obj)

    async def read_for_update(self, obj: str) -> Any:
        return await self.perform("read_for_update", obj)

    async def write(self, obj: str, value: Any) -> None:
        await self.perform("write", obj, value)

    async def increment(self, obj: str, delta: Any = 1) -> None:
        await self.perform("increment", obj, delta)

    async def rmw(self, obj: str, delta: Any) -> Any:
        return await self.perform("rmw", obj, delta)

    async def commit(self) -> None:
        """Commit; resolves only after the commit — and, with durability
        on, the group fsync covering it — completes."""
        self._require_begun()
        submitted = time.perf_counter()
        await self._frontend._submit(COMMIT, self._txn)
        # Cleared only now: a commit that fails (the WAL rejecting a
        # value, a poisoned fsync) leaves the transaction ACTIVE with its
        # locks held, and abort() needs the handle to release them.
        self._txn = None
        self._frontend._observe_commit(submitted, self._began_at)

    async def abort(self) -> None:
        if self._txn is None:
            return
        try:
            await self._frontend._submit(ABORT, self._txn)
        finally:
            self._txn = None

    def _require_begun(self) -> None:
        if self._txn is None:
            raise RuntimeError("session has no active transaction")

    async def __aenter__(self) -> "Session":
        return await self.begin()

    async def __aexit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if exc_type is None:
            try:
                await self.commit()
            except BaseException:
                await self.abort()
                raise
        else:
            await self.abort()


class AsyncFrontend:
    """The front door: builds sessions over one shared submitter."""

    def __init__(
        self,
        db: Any,
        workers: int = 4,
        max_batch: int = 128,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        registry = metrics if metrics is not None else getattr(db, "metrics", None)
        if registry is None:
            registry = MetricsRegistry(enabled=False)
        self.db = db
        self.metrics = registry
        self.submitter = BatchSubmitter(
            db, workers=workers, max_batch=max_batch, metrics=registry
        )
        # The outbox of the loop that submitted last; a session on
        # another loop makes that loop's own.
        self._outbox: Optional[_Outbox] = None
        self._c_sessions = registry.counter("serve_sessions_total")
        self._c_wakeups = registry.counter("serve_loop_wakeups_total")
        self._h_commit_latency = registry.histogram(
            "serve_session_commit_seconds"
        )
        self._h_txn_latency = registry.histogram("serve_session_txn_seconds")

    def session(self, read_only: bool = False) -> Session:
        self._c_sessions.inc()
        return Session(self, read_only=read_only)

    def _submit(
        self,
        kind: str,
        txn: Any = None,
        op_kind: Optional[str] = None,
        obj: Optional[str] = None,
        arg: Any = None,
        read_only: bool = False,
    ) -> asyncio.Future:
        """Submit one item; the returned future (of the running loop)
        resolves when the loop drains its outcome."""
        loop = asyncio.get_running_loop()
        outbox = self._outbox
        if outbox is None or outbox.loop is not loop:
            outbox = self._outbox = _Outbox(loop, self)
        waiter = loop.create_future()
        landing = _Landing(outbox, waiter, kind == BEGIN)
        self.submitter._submit(
            _Item(kind, txn, op_kind, obj, arg, read_only, landing)
        )
        return waiter

    def _abort_orphan(self, txn: Any) -> None:
        """Abort a transaction begun for a session that stopped waiting."""
        try:
            self.submitter.submit_abort(txn)
        except RuntimeError:
            # Closing: the pool may already be gone.
            txn.abort()

    async def run_session(
        self,
        fn: Callable[[Session], Any],
        *,
        read_only: bool = False,
        max_retries: int = 50,
        backoff: float = 0.001,
    ) -> Any:
        """Run ``fn(session)`` in a fresh transaction, retrying aborts
        (deadlock victims, lock timeouts) like ``db.run_transaction`` —
        but the backoff is an ``asyncio.sleep``, so a stalled session
        never holds a pool thread."""
        attempt = 0
        while True:
            session = self.session(read_only=read_only)
            await session.begin()
            try:
                value = await fn(session)
                await session.commit()
                return value
            except (TransactionAborted, LockTimeout):
                await session.abort()
                attempt += 1
                if attempt > max_retries:
                    raise
                if backoff:
                    # Jittered linear backoff: thousands of aborted
                    # sessions retrying in lockstep would rebuild the
                    # very conflict web that killed them.
                    await asyncio.sleep(
                        backoff * attempt * (0.5 + random.random())
                    )
            except BaseException:
                await session.abort()
                raise

    def _observe_commit(
        self, submitted: float, began: Optional[float]
    ) -> None:
        if not self.metrics.enabled:
            return
        now = time.perf_counter()
        self._h_commit_latency.observe(now - submitted)
        if began is not None:
            self._h_txn_latency.observe(now - began)

    def close(self, timeout: Optional[float] = None) -> None:
        """Drain the queue and join the worker pool (blocking — call off
        the event loop, or use :meth:`aclose`)."""
        self.submitter.close(timeout)

    async def aclose(self) -> None:
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.close)

    async def __aenter__(self) -> "AsyncFrontend":
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.aclose()
