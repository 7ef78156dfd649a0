"""Windowing support for the streaming certifier.

Two small, self-contained pieces:

* :class:`ReorderBuffer` — the engine reserves trace sequence numbers
  inside its latches but *publishes* the records off the critical path,
  so a live subscriber can observe them slightly out of seq order.  The
  buffer holds early arrivals and releases records in exact seq order,
  the order every certification argument is stated in.

* :class:`RetirementClock` — the watermark rule that gives the streaming
  checker bounded memory.  A top-level transaction's window state (its
  conflict-graph node, its applied accesses) may be discarded once every
  transaction *concurrent* with it has resolved: after that point no new
  edge can ever terminate at it, so it can no longer participate in a
  forbidden cycle (see ``docs/streaming_certification.md`` for the
  argument).

Both classes are purely functional bookkeeping — no locks; the certifier
serializes access with its own leaf lock.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, Generic, List, Optional, Tuple, TypeVar

T = TypeVar("T")


class ReorderBuffer(Generic[T]):
    """Release ``(seq, item)`` pairs in contiguous seq order.

    ``push`` returns the items that became releasable (the pushed one
    included, when its turn has come).  Items with ``seq=None`` — hand
    built trace records — bypass ordering and are released immediately.
    ``drain`` releases everything still buffered, in seq order, for
    end-of-stream flushes where the missing seqs will never arrive.
    """

    def __init__(self, start: int = 0) -> None:
        self._next = start
        self._heap: List[Tuple[int, int, T]] = []
        self._tiebreak = 0  # heap stability for equal (duplicate) seqs
        #: Most items held at once, the one being pushed included.
        self.buffered_high_water = 0

    def __len__(self) -> int:
        return len(self._heap)

    def ready(self, seq: Optional[int]) -> bool:
        """Whether an item with ``seq`` is released the moment it arrives
        — :meth:`push`'s answer would be just that item — recording its
        release if so.  Consumers on a hot path call this first and only
        ``push`` what it refuses, so in-order delivery allocates nothing."""
        if seq is None:
            return True
        if seq == self._next and not self._heap:
            # In order with nothing waiting: the common case (a single
            # publisher, or a batch published in reserve order) never
            # touches the heap.
            self._next = seq + 1
            if not self.buffered_high_water:
                self.buffered_high_water = 1
            return True
        # Duplicate or stale seq (a re-fed stream): deliver in place
        # rather than buffering forever behind an impossible gap.
        return seq < self._next

    def push(self, seq: Optional[int], item: T) -> List[T]:
        if self.ready(seq):
            return [item]
        self._tiebreak += 1
        heapq.heappush(self._heap, (seq, self._tiebreak, item))
        if len(self._heap) > self.buffered_high_water:
            self.buffered_high_water = len(self._heap)
        released: List[T] = []
        while self._heap and self._heap[0][0] <= self._next:
            head_seq, _, head = heapq.heappop(self._heap)
            released.append(head)
            if head_seq == self._next:
                self._next = head_seq + 1
        return released

    def drain(self) -> List[T]:
        """Everything still buffered, in seq order (gaps skipped)."""
        released = [item for _, _, item in sorted(self._heap)]
        if self._heap:
            self._next = self._heap[-1][0] + 1
        self._heap = []
        return released


class RetirementClock:
    """Watermark-based retirement of top-level transactions.

    Every top-level transaction is registered with its begin seq; on
    resolution (commit or abort at top level) it moves to the pending
    queue with its resolve seq.  The watermark is the smallest begin seq
    over still-unresolved transactions; a resolved transaction retires —
    its window state may be dropped — once the watermark passes its
    resolve seq, i.e. once every transaction that began before it
    resolved has itself resolved.

    Both seqs come from one monotone clock, which is what makes every
    operation O(1): begin seqs strictly increase in registration order,
    so the watermark is the first entry of the insertion-ordered
    ``_begin_seq``, and resolve seqs never decrease, so the pending
    queue is a FIFO.  ``begin`` and ``resolve`` reject a seq that runs
    backwards instead of silently computing a wrong watermark.
    """

    def __init__(self) -> None:
        self._begin_seq: Dict[object, int] = {}  # unresolved tops, begin order
        self._pending: Deque[Tuple[int, object]] = deque()  # resolved, unretired
        self._last_begin: Optional[int] = None
        self._last_resolve: Optional[int] = None
        self.retired = 0

    def begin(self, key: object, seq: int) -> None:
        if self._last_begin is not None and seq <= self._last_begin:
            raise ValueError(
                "begin seq %r does not follow %r" % (seq, self._last_begin)
            )
        self._last_begin = seq
        self._begin_seq.pop(key, None)  # a re-registered key moves to the end
        self._begin_seq[key] = seq

    def resolve(self, key: object, seq: int) -> None:
        if self._last_resolve is not None and seq < self._last_resolve:
            raise ValueError(
                "resolve seq %r precedes %r" % (seq, self._last_resolve)
            )
        self._last_resolve = seq
        self._begin_seq.pop(key, None)
        self._pending.append((seq, key))

    @property
    def watermark(self) -> Optional[int]:
        """Smallest begin seq among unresolved transactions (None when
        every known transaction has resolved)."""
        for seq in self._begin_seq.values():
            return seq
        return None

    def retire_ready(self) -> List[object]:
        """Forget and return every resolved transaction whose window can
        be discarded under the watermark rule, oldest resolution first."""
        watermark = self.watermark
        pending = self._pending
        ready: List[object] = []
        while pending and (watermark is None or pending[0][0] < watermark):
            ready.append(pending.popleft()[1])
        self.retired += len(ready)
        return ready

    def live_count(self) -> int:
        """Transactions whose window state is still held: unresolved plus
        resolved-but-unretired."""
        return len(self._begin_seq) + len(self._pending)
