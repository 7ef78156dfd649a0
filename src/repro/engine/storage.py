"""Versioned object store (Moss version stacks; paper Sections 7-8).

Each object carries a stack of versions owned by a chain of transactions,
the root ``U`` at the bottom holding the last permanently-committed value.
Owners are path tuples (:data:`Key`, what an ``ActionName`` renders):
``U`` is :data:`ROOT`, the empty path, and a parent's key is ``key[:-1]``.
The top of the stack is the *principal value* — what the deepest current
writer sees.  A transaction's first write pushes a version it owns; commit
merges the top version into the parent's; abort pops it, restoring the
value beneath: exactly the value-map transitions of the level-4 algebra,
specialized to the lock discipline the manager enforces.

Two extensions beyond the plain stack:

* **Increment deltas** — blind ``INCREMENT`` accesses do not push
  versions (concurrent incrementers would need conflicting copies of the
  principal value); each holder accumulates a private delta in
  :attr:`VersionStack.deltas` instead.  Subtransaction commit merges the
  delta upward, abort drops it, and a read/write granted to a descendant
  first *materializes* outstanding deltas into real stack versions (the
  lock discipline guarantees every delta holder is then an ancestor of
  the requester, so the fold order is well defined).
* **Committed history** — every top-level commit that changes the base
  value appends a ``(commit_stamp, value)`` pair to
  :attr:`VersionStack.history`.  Snapshot (read-only) transactions pin a
  horizon stamp at begin and resolve :meth:`VersionStack.value_at`
  against this history without acquiring locks; entries older than the
  oldest active horizon are pruned at commit time.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..core.naming import Atom

Value = Any
#: The engine's internal identity of a transaction: its root path.
Key = Tuple[Atom, ...]
#: The key of the root action ``U``, owner of every committed base value.
ROOT: Key = ()


class VersionStack:
    """The version chain for one object: (owner, value) pairs, U-first."""

    __slots__ = ("entries", "deltas", "history")

    def __init__(self, initial: Value) -> None:
        self.entries: List[Tuple[Key, Value]] = [(ROOT, initial)]
        #: Pending blind-increment deltas by holder (usually empty).
        self.deltas: Dict[Key, Value] = {}
        #: Committed versions as (stamp, value), stamp-ascending; entry 0
        #: is the floor every live snapshot horizon can still resolve.
        self.history: List[Tuple[int, Value]] = [(0, initial)]

    @property
    def current(self) -> Value:
        """The principal value (top of stack)."""
        return self.entries[-1][1]

    def effective_current(self) -> Value:
        """The principal value with every outstanding increment delta
        applied — what a read observes.  The lock discipline guarantees
        all delta holders are the reader or its ancestors, so their
        increments are visible to it."""
        value = self.entries[-1][1]
        if self.deltas:
            for delta in self.deltas.values():
                value = value + delta
        return value

    @property
    def owner(self) -> Key:
        return self.entries[-1][0]

    def ensure_version(self, txn: Key) -> None:
        """First write by txn: push a version owned by it (copying the
        current value) so an abort can restore what was beneath."""
        if self.entries[-1][0] != txn:
            self.entries.append((txn, self.entries[-1][1]))

    def set_value(self, txn: Key, value: Value) -> None:
        owner, _old = self.entries[-1]
        if owner != txn:
            raise AssertionError(
                "write by %r but top version owned by %r" % (txn, owner)
            )
        self.entries[-1] = (owner, value)

    # -- increment deltas --------------------------------------------------

    def add_delta(self, txn: Key, delta: Value) -> None:
        """A blind increment by ``txn``: fold into its own top version
        when it has one, otherwise accumulate a private pending delta."""
        top_owner, top_value = self.entries[-1]
        if top_owner == txn:
            self.entries[-1] = (top_owner, top_value + delta)
            return
        existing = self.deltas.get(txn)
        self.deltas[txn] = delta if existing is None else existing + delta

    def delta_of(self, txn: Key) -> Optional[Value]:
        return self.deltas.get(txn)

    def materialize_deltas(self) -> None:
        """Fold every outstanding delta into real stack versions, in
        holder-depth order.  Called when a write lock is granted: at that
        moment every delta holder is the requester or one of its proper
        ancestors (all on one lineage) and is at least as deep as the
        current top owner, so pushing shallow-to-deep keeps the stack an
        ancestor chain and a later abort of any holder still restores the
        value beneath it."""
        if not self.deltas:
            return
        for owner in sorted(self.deltas, key=len):
            delta = self.deltas[owner]
            top_owner, top_value = self.entries[-1]
            if top_owner == owner:
                self.entries[-1] = (owner, top_value + delta)
            else:
                self.entries.append((owner, top_value + delta))
        self.deltas.clear()

    # -- lifecycle ---------------------------------------------------------

    def commit_to_parent(
        self,
        txn: Key,
        stamp: Optional[int] = None,
        prune_below: Optional[int] = None,
    ) -> None:
        """Merge txn's version into its parent's (level-4 release-lock:
        a pop plus a pointer swing) and pass its pending increment delta
        upward.

        A top-level commit additionally passes its commit ``stamp``; when
        the merge changes the base (U) value, a ``(stamp, value)``
        committed version is appended to :attr:`history` (and entries no
        active snapshot horizon can reach — below ``prune_below`` — are
        pruned)."""
        parent = txn[:-1]
        entries = self.entries
        changed_base = False
        index: Optional[int] = len(entries) - 1
        if entries[index][0] != txn:
            # Its descendants have finished, so a committer's version is
            # the top entry — unless lazy cleanup left dead descendants'
            # versions above it for a later lose-lock.
            index = self._index_of(txn) if index else None
        if index is not None:
            value = entries[index][1]
            if entries[index - 1][0] == parent:
                changed_base = not parent
                entries[index - 1] = (parent, value)
                del entries[index]
            else:
                entries[index] = (parent, value)
        delta = self.deltas.pop(txn, None)
        if delta is not None:
            top_owner, top_value = entries[-1]
            if top_owner == parent:
                # Fold straight into the parent's version (the base entry
                # when committing a top-level increment-only holder).
                entries[-1] = (top_owner, top_value + delta)
                changed_base = changed_base or not parent
            else:
                existing = self.deltas.get(parent)
                self.deltas[parent] = (
                    delta if existing is None else existing + delta
                )
        if changed_base and stamp is not None:
            self.record_committed(stamp, entries[0][1], prune_below)

    def discard(self, txn: Key) -> None:
        """Abort of txn: drop its version and pending delta (level-4
        lose-lock)."""
        index = self._index_of(txn)
        if index is not None:
            del self.entries[index]
        self.deltas.pop(txn, None)

    # -- committed history (snapshot reads) --------------------------------

    def record_committed(
        self, stamp: int, value: Value, prune_below: Optional[int] = None
    ) -> None:
        """Append a committed version and prune entries older than the
        oldest stamp any active snapshot can still resolve."""
        self.history.append((stamp, value))
        if prune_below is not None:
            history = self.history
            while len(history) >= 2 and history[1][0] <= prune_below:
                del history[0]

    def value_at(self, horizon: int) -> Value:
        """The committed value as of ``horizon``: the newest committed
        version whose stamp is <= the horizon (lock-free snapshot read:
        the caller holds the engine latch but takes no Moss lock)."""
        for stamp, value in reversed(self.history):
            if stamp <= horizon:
                return value
        return self.history[0][1]

    def version_of(self, txn: Key) -> Optional[Tuple[Key, Value]]:
        """The (owner, value) entry owned by ``txn``, or None.  The WAL
        reads a committing top-level transaction's entries through this
        just before they merge into U."""
        index = self._index_of(txn)
        return None if index is None else self.entries[index]

    def _index_of(self, txn: Key) -> Optional[int]:
        # Top-down: the overwhelmingly common case is the requester's own
        # version sitting at (or just under) the top of the stack, so the
        # scan is memoization-free but O(1) in practice.  An owner appears
        # at most once (``ensure_version`` never double-pushes).
        entries = self.entries
        for i in range(len(entries) - 1, -1, -1):
            if entries[i][0] == txn:
                return i
        return None

    def __repr__(self) -> str:
        return "VersionStack[%s]" % ", ".join(
            "%r=%r" % (owner, value) for owner, value in self.entries
        )
