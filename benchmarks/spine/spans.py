"""Driver-side spans: one record around every call into a layer.

The program under test is not instrumented.  In a traced run the drivers
hand the programs *proxies* of the engine, serve and cluster handles; each
proxy method times the real call and appends one span.  In an untraced run
the drivers use the real handles, so the end-to-end numbers carry no
tracing cost at all.

A span is ``(id, parent, program, name, start, end)`` with times in
seconds on the ``perf_counter`` clock.  Spans of one program share its
``program`` index; ``parent`` is the id of the enclosing span (0 for a
program span).  Spans live in memory and are written as JSON lines when
the cell ends.
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Dict, Iterable, List, Tuple

now = time.perf_counter

Span = Tuple[int, int, int, str, float, float]


class Tracer:
    """An append-only span list shared by the driver's threads
    (``list.append`` and ``next(count)`` are atomic under the GIL)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)

    def new_id(self) -> int:
        return next(self._ids)

    def add(
        self, span_id: int, parent: int, program: int, name: str,
        start: float, end: float,
    ) -> None:
        self.spans.append((span_id, parent, program, name, start, end))

    def durations(self) -> Dict[str, List[float]]:
        """Span durations in seconds, grouped by span name."""
        grouped: Dict[str, List[float]] = {}
        for _id, _parent, _program, name, start, end in self.spans:
            grouped.setdefault(name, []).append(end - start)
        return grouped

    def write_jsonl(self, path: str, origin: float) -> None:
        """One JSON object per line; times in microseconds after
        ``origin`` (the start of the timed phase)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, program, name, start, end in self.spans:
                fh.write(
                    '{"id":%d,"parent":%d,"program":%d,"name":"%s",'
                    '"start_us":%.1f,"end_us":%.1f}\n'
                    % (span_id, parent, program, name,
                       (start - origin) * 1e6, (end - origin) * 1e6)
                )


class _Proxy:
    """Times calls made on behalf of one program and records them as
    children of that program's span."""

    __slots__ = ("_target", "_tracer", "_parent", "_program")

    def __init__(self, target: Any, tracer: Tracer, parent: int,
                 program: int) -> None:
        self._target = target
        self._tracer = tracer
        self._parent = parent
        self._program = program

    def _timed(self, name: str, fn: Any, *args: Any) -> Any:
        start = now()
        try:
            return fn(*args)
        finally:
            self._tracer.add(self._tracer.new_id(), self._parent,
                             self._program, name, start, now())

    async def _awaited(self, name: str, awaitable: Any) -> Any:
        start = now()
        try:
            return await awaitable
        finally:
            self._tracer.add(self._tracer.new_id(), self._parent,
                             self._program, name, start, now())


class SpanTxn(_Proxy):
    """Proxy of ``repro.engine.Transaction`` (blocking API)."""

    __slots__ = ("_top",)

    def __init__(self, txn: Any, tracer: Tracer, parent: int, program: int,
                 top: bool) -> None:
        super().__init__(txn, tracer, parent, program)
        self._top = top

    @classmethod
    def begin(cls, db: Any, tracer: Tracer, parent: int,
              program: int) -> "SpanTxn":
        """``db.begin_transaction()`` under a span; the proxied top-level."""
        top = cls(None, tracer, parent, program, True)
        top._target = top._timed("engine.begin", db.begin_transaction)
        return top

    def read(self, obj: str) -> Any:
        return self._timed("engine.perform", self._target.read, obj)

    def read_for_update(self, obj: str) -> Any:
        return self._timed(
            "engine.perform", self._target.read_for_update, obj
        )

    def write(self, obj: str, value: Any) -> None:
        self._timed("engine.perform", self._target.write, obj, value)

    def begin_subtransaction(self) -> "SpanTxn":
        child = self._timed(
            "engine.sub_begin", self._target.begin_subtransaction
        )
        return SpanTxn(child, self._tracer, self._parent, self._program, False)

    def commit(self) -> None:
        name = "engine.top_commit" if self._top else "engine.sub_commit"
        self._timed(name, self._target.commit)

    def abort(self) -> None:
        self._timed("engine.abort", self._target.abort)

    @property
    def is_live(self) -> bool:
        return self._timed("engine.is_live", lambda: self._target.is_live)


class SpanSession(_Proxy):
    """Proxy of ``repro.serve.Session``: a span around each ``await``."""

    __slots__ = ()

    async def begin(self) -> None:
        await self._awaited("serve.await_begin", self._target.begin())

    async def read(self, obj: str) -> Any:
        return await self._awaited("serve.await_op", self._target.read(obj))

    async def increment(self, obj: str, delta: int) -> None:
        await self._awaited(
            "serve.await_op", self._target.increment(obj, delta)
        )

    async def commit(self) -> None:
        await self._awaited("serve.await_commit", self._target.commit())

    async def abort(self) -> None:
        await self._awaited("serve.await_abort", self._target.abort())


class SpanGlobalTxn(_Proxy):
    """Proxy of ``repro.cluster.GlobalTxn`` for the call transfers make."""

    __slots__ = ()

    def rmw(self, obj: str, delta: int) -> Any:
        return self._timed("cluster.op", self._target.rmw, obj, delta)


def mean_us(samples: Iterable[float]) -> float:
    """Mean of span durations (seconds) in microseconds; 0 when a layer
    was bypassed and recorded no span."""
    values = list(samples)
    return sum(values) / len(values) * 1e6 if values else 0.0
