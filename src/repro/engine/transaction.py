"""Transaction handles: the engine's user-facing API.

A :class:`Transaction` is a node of the action tree.  It can read and
write objects (each operation is modelled as a leaf access child, per the
paper), begin subtransactions (sequentially or in parallel threads), and
commit or abort.  Aborting a subtransaction never disturbs its parent —
the parent observes the failure as a :class:`TransactionAborted` exception
at the subtransaction boundary and carries on: the "resilience" of the
title.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TYPE_CHECKING,
)

from ..core.action_tree import ACTIVE
from ..core.naming import U, ActionName
from .errors import TransactionAborted
from .storage import Key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .database import NestedTransactionDB


#: Access labels by kind initial (``"r"`` → ``("r0", "r1", ...)``),
#: shared by every transaction.  A table is only ever replaced by a longer
#: one with the same prefix, so a reader holding either reads right.
_ACCESS_LABELS: Dict[str, Tuple[str, ...]] = {}
_ACCESS_LABELS_LOCK = threading.Lock()
#: Labels past this count are formatted on demand, not kept: the table
#: outlives every engine and trace.
_ACCESS_LABELS_MAX = 4096


def _access_label(initial: str, count: int) -> str:
    """The label of access ``count`` of kind ``initial``, growing its
    table (by doubling) while it stays within ``_ACCESS_LABELS_MAX``."""
    if count >= _ACCESS_LABELS_MAX:
        return "%s%d" % (initial, count)
    with _ACCESS_LABELS_LOCK:
        table = _ACCESS_LABELS.get(initial, ())
        if count >= len(table):
            size = min(max(64, 2 * len(table), count + 1), _ACCESS_LABELS_MAX)
            table = _ACCESS_LABELS[initial] = tuple(
                "%s%d" % (initial, index) for index in range(size)
            )
        return table[count]


@dataclass
class Outcome:
    """Result of one parallel subtransaction: value or error, never both."""

    ok: bool
    value: Any = None
    error: Optional[BaseException] = None


class Transaction:
    """A (possibly nested) transaction handle.

    Handles are not thread-safe individually — use one handle per thread,
    creating sibling subtransactions for parallel work.  All shared state
    lives in the database under its latch.

    **Identity is the path.**  ``key`` — ``parent.key + (label,)``; a
    top-level's is ``(n,)``, ``U``'s ``()`` — is what the engine's tables
    are keyed by, and ancestry is a tuple-prefix test on it.  The paper's
    name (Section 3.1) is that path *rendered*: :attr:`name` builds the
    :class:`ActionName` on first read, so a transaction nobody observes
    by name (event sink, WAL, error) never mints one — trace records
    carry the key too.

    **A trace family per top-level.**  Every trace row the tree's
    transactions produce goes on the top-level's :attr:`family` list,
    which reaches the trace recorder (and its listeners) in one delivery
    when the top-level finishes.
    """

    __slots__ = (
        "_db", "key", "parent", "status", "children", "held_objects",
        "read_only", "snapshot_horizon", "_child_counter", "_access_counter",
        "_name", "family",
    )

    def __init__(
        self,
        db: "NestedTransactionDB",
        key: Key,
        parent: Optional["Transaction"],
        read_only: bool = False,
    ) -> None:
        self._db = db
        self.key = key
        self.parent = parent
        self.status = ACTIVE
        # Emptied when this transaction finishes: a finished tree keeps
        # only child -> parent links and is freed by reference count.
        self.children: List["Transaction"] = []
        self._child_counter = 0
        self._access_counter = 0
        self.held_objects: Set[str] = set()
        # Snapshot (read-only) transactions: the flag is sticky down the
        # tree, and the whole tree reads at the top-level's horizon stamp
        # (assigned by the engine at begin, under its latch).
        self.read_only: bool = read_only if parent is None else parent.read_only
        self.snapshot_horizon: Optional[int] = (
            None if parent is None else parent.snapshot_horizon
        )
        self._name: Optional[ActionName] = None
        #: The trace rows of this transaction's top-level tree, one list
        #: shared by the whole tree and appended in seq order under the
        #: engine latch; the engine hands it to the trace recorder in one
        #: piece when the top-level commits or aborts.  ``None`` when the
        #: engine records no trace.
        self.family: Optional[List[Tuple[Any, ...]]] = (
            parent.family if parent is not None
            else None if db.trace is None else []
        )

    # -- identity ----------------------------------------------------------

    @property
    def name(self) -> ActionName:
        """The paper's name of this action, built on first read (a racing
        double build stores equal values, so the cache is benign)."""
        name = self._name
        if name is None:
            parent = self.parent
            name = self._name = (U if parent is None else parent.name).child(
                self.key[-1]
            )
        return name

    @property
    def depth(self) -> int:
        return len(self.key)

    def is_ancestor_of(self, other: "Transaction") -> bool:
        """Reflexive, as the paper's ``anc``: a tuple-prefix test."""
        return other.key[: len(self.key)] == self.key

    def next_access_label(self, kind: str) -> str:
        """The label of this transaction's next access leaf, whose path
        is ``key + (label,)``: ``r0`` / ``w1`` / ``i2`` (kind initial,
        then a per-transaction counter), so a replay of the same
        operations names them alike.  Labels come from one table per
        kind initial shared by every transaction, so a traced access
        makes no new string."""
        count = self._access_counter
        self._access_counter = count + 1
        try:
            return _ACCESS_LABELS[kind[0]][count]
        except (KeyError, IndexError):
            return _access_label(kind[0], count)

    # -- data operations -----------------------------------------------------

    def read(self, obj: str) -> Any:
        """Read the current value of an object (acquires a read lock, or a
        write lock in single-mode)."""
        return self._db._perform(self, "read", obj)

    def write(self, obj: str, value: Any) -> None:
        """Write an object (acquires a write lock; undone if we abort)."""
        self._db._perform(self, "write", obj, value)

    def read_for_update(self, obj: str) -> Any:
        """Read with write intent: acquires the write lock up front, so a
        following :meth:`write` cannot hit an upgrade deadlock (the
        SELECT FOR UPDATE idiom)."""
        return self._db._perform(self, "read_for_update", obj)

    def update(self, obj: str, fn: Callable[[Any], Any]) -> Any:
        """Read-modify-write; returns the new value (write-intent read)."""
        new_value = fn(self.read_for_update(obj))
        self.write(obj, new_value)
        return new_value

    def increment(self, obj: str, delta: Any = 1) -> None:
        """Blindly add ``delta`` to an object under an ``INCREMENT`` lock.

        Increment locks commute with each other — concurrent transactions
        incrementing the same counter never block — while conflicting
        with reads and writes.  The delta is private until commit: a
        subtransaction's commit merges it into the parent (Moss
        inheritance), a top-level commit folds it into the committed base
        value, and an abort discards it."""
        self._db._perform(self, "increment", obj, delta)

    # -- lifecycle --------------------------------------------------------------

    def begin_subtransaction(self) -> "Transaction":
        """Create an active child transaction."""
        return self._db._begin(self)

    @contextmanager
    def subtransaction(self) -> Iterator["Transaction"]:
        """``with t.subtransaction() as s``: commits on normal exit, aborts
        on exception.  A :class:`TransactionAborted` raised inside (e.g. a
        deadlock victim) is absorbed after aborting — the parent survives
        and sees the child simply not have happened; re-raise semantics can
        be had with :meth:`begin_subtransaction` directly."""
        child = self.begin_subtransaction()
        try:
            yield child
        except TransactionAborted:
            child.abort()
        except BaseException as error:
            # Abort without letting an abort-time failure shadow the
            # original exception (it is attached as __context__ instead).
            self._db._abort_quietly(child, error)
            raise
        else:
            child.commit()

    def commit(self) -> None:
        """Commit to the parent.  Requires all children done."""
        self._db._commit(self)

    def abort(self) -> None:
        """Abort this transaction and its entire live subtree (idempotent)."""
        self._db._abort(self)

    @property
    def is_live(self) -> bool:
        """No ancestor (this transaction included) has aborted."""
        return self._db._is_live(self)

    # -- parallel children ----------------------------------------------------------

    def parallel(
        self, fns: Sequence[Callable[["Transaction"], Any]]
    ) -> List[Outcome]:
        """Run each function in its own subtransaction on its own thread.

        Each function receives its subtransaction; normal return commits
        it, an exception aborts it.  Failures are *contained*: the parent
        gets an :class:`Outcome` per child and decides what to do —
        the recovery-block programming style the paper generalizes.
        """
        outcomes: List[Optional[Outcome]] = [None] * len(fns)
        children = [self.begin_subtransaction() for _ in fns]

        def runner(index: int) -> None:
            child = children[index]
            try:
                value = fns[index](child)
                child.commit()
            except BaseException as error:  # noqa: BLE001 - contained by design
                child.abort()
                outcomes[index] = Outcome(ok=False, error=error)
            else:
                outcomes[index] = Outcome(ok=True, value=value)

        threads = [
            threading.Thread(target=runner, args=(i,), daemon=True)
            for i in range(len(fns))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [outcome for outcome in outcomes if outcome is not None]

    def __repr__(self) -> str:
        return "Transaction(%r, %s)" % (self.name, self.status)
