"""Moss lock table state (per-object holders and modes).

This implements the *full* Moss rules, with a read/write distinction (the
extension the paper's Section 10 leaves as future work) plus a
commutative ``INCREMENT`` mode:

* T may acquire a **write** lock on x when every holder of x (any mode)
  is T itself or a proper ancestor of T;
* T may acquire a **read** lock on x when every *non-read*-holder of x is
  T itself or a proper ancestor of T;
* T may acquire an **increment** lock on x when every *non-increment*
  holder of x is T itself or a proper ancestor of T — increments commute
  with each other, so concurrent incrementers never conflict, but they
  conflict with both reads and writes;
* on commit, T's locks are inherited by parent(T) (modes merged upward:
  two different modes merge to write, the top of the mode lattice);
* on abort, T's locks are discarded.

Setting ``single_mode=True`` on the manager collapses all modes into
write, which is exactly the paper's simplified variant (every access
conflicts) — used when engine traces are replayed through the level-2
algebra for conformance checking.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Optional, Sequence

from .storage import Key

READ = "read"
WRITE = "write"
INCREMENT = "increment"


class LockMode(str, Enum):
    """The public lock-mode surface (the internals pass the equal string
    constants on the hot path).  Two holders are compatible exactly when
    they hold the *same self-commuting* mode: read/read and
    increment/increment never conflict; every other pair does."""

    READ = READ
    WRITE = WRITE
    INCREMENT = INCREMENT

    def __str__(self) -> str:  # keep "%s" formatting on the raw value
        return self.value

    @property
    def self_commutes(self) -> bool:
        """Whether two holders in this mode are compatible."""
        return self is not LockMode.WRITE

#: Shared no-conflict result.  ``conflicts_with`` runs on every data
#: access, and the overwhelmingly common outcome is "no conflict" — so
#: that path must not allocate.  Callers treat the result as read-only
#: (the engine only iterates it); it compares equal to ``[]`` for the
#: existing call sites.
_NO_CONFLICTS: List[Key] = []


class ObjectLocks:
    """Lock holders for a single object: transaction key → mode.

    Holders are path tuples (see :data:`repro.engine.storage.Key`), so
    "``holder`` is the requester or one of its ancestors" — the only
    ancestry question Moss's rules ask — is the prefix test
    ``txn[:len(holder)] == holder``.
    """

    __slots__ = ("holders",)

    def __init__(self) -> None:
        self.holders: Dict[Key, str] = {}

    def mode_of(self, txn: Key) -> Optional[str]:
        return self.holders.get(txn)

    def conflicts_with(self, txn: Key, mode: str) -> Sequence[Key]:
        """Holders that block a request by ``txn`` in ``mode`` — everyone
        relevant who is neither txn itself nor a proper ancestor of it.

        The common shapes all take the no-allocation fast path: an empty
        table, or every holder being the requester / one of its
        ancestors, returns the shared empty sequence (it compares equal
        to ``[]``; treat it as read-only).
        """
        holders = self.holders
        if not holders:
            return _NO_CONFLICTS
        conflicts: Optional[List[Key]] = None
        for holder, held_mode in holders.items():
            if held_mode == mode and mode != WRITE:
                continue  # read/read and increment/increment never conflict
            if holder is txn or txn[: len(holder)] == holder:
                continue  # the requester itself, or an ancestor of it
            if conflicts is None:
                conflicts = [holder]
            else:
                conflicts.append(holder)
        return _NO_CONFLICTS if conflicts is None else conflicts

    def grant(self, txn: Key, mode: str) -> None:
        current = self.holders.get(txn)
        if current is None:
            self.holders[txn] = mode
        elif current != mode and current != WRITE:
            # Mode lattice: any two *different* modes merge to write —
            # a holder of both read and increment excludes everyone, which
            # is exactly the write conflict profile.
            self.holders[txn] = WRITE

    def inherit(self, txn: Key) -> Optional[str]:
        """Commit of txn: its lock (if any) passes to its parent
        ``txn[:-1]``, merging modes upward on the lattice (write wins;
        read+increment merge to write).  Returns the mode that moved."""
        mode = self.holders.pop(txn, None)
        if mode is not None:
            parent = txn[:-1]
            existing = self.holders.get(parent)
            if existing is None:
                self.holders[parent] = mode
            elif existing != mode and existing != WRITE:
                self.holders[parent] = WRITE
        return mode

    def discard(self, txn: Key) -> Optional[str]:
        """Abort of txn (or commit of a top-level, whose locks pass to
        ``U`` and block no one): its lock (if any) evaporates.  Returns
        the mode it held."""
        return self.holders.pop(txn, None)

    def __repr__(self) -> str:
        parts = ", ".join(
            "%r:%s" % (t, m[0]) for t, m in self.holders.items()
        )
        return "ObjectLocks{%s}" % parts
