"""Windowing support for the streaming certifier.

Two small, self-contained pieces:

* :class:`ReorderBuffer` — the engine reserves trace sequence numbers
  inside its latches but *publishes* the records off the critical path,
  one top-level transaction's rows at a time when it commits or aborts,
  so a live subscriber sees them out of seq order whenever top-level
  transactions overlap.  The buffer holds early arrivals — each
  top-level's rows as one sorted run — and releases records in exact
  seq order, the order every certification argument is stated in.

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
from typing import (
    Callable, Deque, Dict, Generic, List, Optional, Sequence, Tuple, TypeVar,
)

T = TypeVar("T")


class ReorderBuffer(Generic[T]):
    """Release items in contiguous seq order.

    Items arrive one at a time (:meth:`push`, with their seq) or as a
    *run* (:meth:`push_run`): a sequence already in ascending seq order,
    such as one top-level transaction's trace rows as the engine
    delivers them, whose seqs the buffer reads with the ``seq_of`` it
    was built with.  A run is held as one unit and the buffer merges
    runs, so a run that arrives in turn is released whole after one
    comparison of its first and last seq, and a run held behind a gap
    costs one heap step per stretch of consecutive seqs it releases,
    not one per item.

    ``push`` and ``push_run`` return the items that became releasable
    (what was pushed included, when its turn has come).  Items with
    ``seq=None`` — hand built trace records — bypass ordering when
    pushed on their own.  An item whose seq was already released (a
    duplicate, or a re-fed stream) is delivered in place rather than
    buffered forever behind an impossible gap.  ``drain`` releases
    everything still buffered, in seq order, for end-of-stream flushes
    where the missing seqs will never arrive.
    """

    def __init__(self, start: int = 0,
                 seq_of: Optional[Callable[[T], int]] = None) -> None:
        self._next = start
        self._seq_of = seq_of
        #: Held runs as ``(seq of the run's head, tiebreak, head index,
        #: run)``; the tiebreak keeps equal (duplicate) seqs stable.
        self._heap: List[Tuple[int, int, int, Sequence[T]]] = []
        self._tiebreak = 0
        self._held = 0
        #: Most items held at once, counting an item or run pushed out of
        #: turn (an in-turn arrival counts one).
        self.buffered_high_water = 0

    def __len__(self) -> int:
        return self._held

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
        return seq < self._next

    def push(self, seq: Optional[int], item: T) -> List[T]:
        if self.ready(seq):
            return [item]
        return self._hold(seq, (item,))

    def push_run(self, run: Sequence[T]) -> Sequence[T]:
        """Hand over a run — items in ascending seq order, every seq an
        int — and return what became releasable, in seq order."""
        count = len(run)
        if not count:
            return run
        seq_of = self._seq_of
        first = seq_of(run[0])
        if (first == self._next and not self._heap
                and seq_of(run[-1]) == first + count - 1):
            # In turn and gapless: released whole, nothing held.
            self._next = first + count
            if not self.buffered_high_water:
                self.buffered_high_water = 1
            return run
        return self._hold(first, run)

    def _hold(self, first: int, run: Sequence[T]) -> List[T]:
        self._tiebreak += 1
        heapq.heappush(self._heap, (first, self._tiebreak, 0, run))
        self._held += len(run)
        if self._held > self.buffered_high_water:
            self.buffered_high_water = self._held
        return self._release()

    def _release(self) -> List[T]:
        """Release the held items up to the first missing seq: from the
        run holding the next seq, a stretch at a time."""
        heap = self._heap
        seq_of = self._seq_of
        nxt = self._next
        released: List[T] = []
        append = released.append
        while heap and heap[0][0] <= nxt:
            seq, tiebreak, index, run = heap[0]
            end = len(run)
            while True:
                append(run[index])
                if seq == nxt:
                    nxt += 1
                index += 1
                if index == end:
                    heapq.heappop(heap)
                    break
                seq = seq_of(run[index])
                if seq > nxt:
                    heapq.heapreplace(heap, (seq, tiebreak, index, run))
                    break
        self._next = nxt
        self._held -= len(released)
        return released

    def drain(self) -> List[T]:
        """Everything still buffered, in seq order (gaps skipped)."""
        heap = self._heap
        released: List[T] = []
        while heap:
            seq, tiebreak, index, run = heapq.heappop(heap)
            released.append(run[index])
            if seq >= self._next:
                self._next = seq + 1
            index += 1
            if index < len(run):
                heapq.heappush(
                    heap, (self._seq_of(run[index]), tiebreak, index, run)
                )
        self._held = 0
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
        self._advance_begin(seq)
        self._begin_seq.pop(key, None)  # a re-registered key moves to the end
        self._begin_seq[key] = seq

    def resolve(self, key: object, seq: int) -> None:
        self._advance_resolve(seq)
        self._begin_seq.pop(key, None)
        self._pending.append((seq, key))

    def retire_alone(self, begin: int, resolve: int) -> None:
        """``begin``, ``resolve`` and ``retire_ready`` for a transaction
        that began and resolved while no other was live: nothing can
        hold the watermark below its resolve seq, so it retires at once,
        and no key is kept for it."""
        if self.live_count():
            raise ValueError("a transaction is still live")
        self._advance_begin(begin)
        self._advance_resolve(resolve)
        self.retired += 1

    def _advance_begin(self, seq: int) -> None:
        if self._last_begin is not None and seq <= self._last_begin:
            raise ValueError(
                "begin seq %r does not follow %r" % (seq, self._last_begin)
            )
        self._last_begin = seq

    def _advance_resolve(self, seq: int) -> None:
        if self._last_resolve is not None and seq < self._last_resolve:
            raise ValueError(
                "resolve seq %r precedes %r" % (seq, self._last_resolve)
            )
        self._last_resolve = seq

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
