"""The asyncio session front-end: thousands of in-flight sessions,
a handful of latch-crossing threads.

The split is the classic reactor-vs-CPU-pool design (cf. Tahoe-LAFS
``cputhreadpool``): the event loop owns session state machines and never
touches an engine latch; every lock acquisition, version-stack change,
commit and fsync happens on the :class:`~repro.serve.batch.BatchSubmitter`
worker pool, and results travel back as ``concurrent.futures.Future``\\ s
awaited through :func:`asyncio.wrap_future`.  Because a session awaits
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
import time
from typing import Any, Callable, Optional

from ..engine.errors import LockTimeout, TransactionAborted
from ..obs import MetricsRegistry
from .batch import BatchSubmitter


class Session:
    """One client session: an async facade over a top-level transaction.

    Also an async context manager: ``async with frontend.session() as s``
    begins on entry, commits on clean exit, aborts (and re-raises) on
    error, a failing commit included — mirroring ``db.transaction()``.
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
        self._txn = await asyncio.wrap_future(
            self._frontend.submitter.submit_begin(self.read_only)
        )
        return self

    async def perform(self, kind: str, obj: str, arg: Any = None) -> Any:
        """Submit one data operation (kind in ``serve.batch.OP_KINDS``)."""
        self._require_begun()
        return await asyncio.wrap_future(
            self._frontend.submitter.submit_op(self._txn, kind, obj, arg)
        )

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
        await asyncio.wrap_future(
            self._frontend.submitter.submit_commit(self._txn)
        )
        # Cleared only now: a commit that fails (the WAL rejecting a
        # value, a poisoned fsync) leaves the transaction ACTIVE with its
        # locks held, and abort() needs the handle to release them.
        self._txn = None
        self._frontend._observe_commit(submitted, self._began_at)

    async def abort(self) -> None:
        if self._txn is None:
            return
        try:
            await asyncio.wrap_future(
                self._frontend.submitter.submit_abort(self._txn)
            )
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
        self._c_sessions = registry.counter("serve_sessions_total")
        self._h_commit_latency = registry.histogram(
            "serve_session_commit_seconds"
        )
        self._h_txn_latency = registry.histogram("serve_session_txn_seconds")

    def session(self, read_only: bool = False) -> Session:
        self._c_sessions.inc()
        return Session(self, read_only=read_only)

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
