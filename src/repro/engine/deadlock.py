"""Waits-for graph and deadlock victim selection.

The paper proves safety only; a runnable locking system also needs a
liveness mechanism.  We maintain a waits-for graph — an edge from a waiter
to each conflicting holder — and check for a cycle on every new wait.
Victim policies: the *requester* (simple, always makes progress), the
*youngest* transaction on the cycle (minimizes lost work for long-running
ancestors), or the first non-ancestor *blocker* on the chain (the
default — releases exactly what the requester needs).

Edges say *who* blocks a parked request; the engine's per-object wait
queues (``NestedTransactionDB._waiters``) say who to wake when a lock
moves.  Both are filled by the same blocked attempt and emptied together
(grant, abort, ``cancel_waits``).

The graph carries its own small mutex — a leaf below the engine latch.
The engine registers, withdraws and sweeps edges under that latch; the
mutex exists for the one caller that does not hold it (the edge-count
gauge) and keeps :meth:`WaitsForGraph.find_cycle_from` a traversal of one
consistent snapshot.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.naming import ActionName

REQUESTER = "requester"
YOUNGEST = "youngest"
BLOCKER = "blocker"


class WaitsForGraph:
    """waiter → blockers; edges exist only while a request is blocked.

    Thread-safe: every method takes the graph's own lock, which is a leaf
    in the engine's lock order (it is acquired while holding the engine
    latch, and never the other way around).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._edges: Dict[ActionName, Set[ActionName]] = {}
        # Two side indexes keep the hot operations from scanning every
        # edge (the graph can carry thousands of edges when thousands of
        # serve sessions are blocked at once):
        # * _rev: blocker -> waiters pointing at it, so removing a
        #   finished transaction is O(its waiters), not O(all edges);
        # * _roots: top-level path atom -> waiters beneath that root, so
        #   a cycle sweep finds "waiters in node's subtree" by one dict
        #   probe (ancestry is path-prefix containment — every waiter in
        #   node's subtree shares node's first atom).
        self._rev: Dict[ActionName, Set[ActionName]] = {}
        self._roots: Dict[Any, Set[ActionName]] = {}
        self._registry: Optional[Any] = None
        self._sweep_hist: Optional[Any] = None

    def bind(self, registry: Any) -> None:
        """Attach a :class:`repro.obs.MetricsRegistry`: cycle sweeps are
        timed into ``engine_deadlock_sweep_seconds`` (only while the
        registry is enabled — the guard is one attribute test)."""
        self._registry = registry
        self._sweep_hist = registry.histogram("engine_deadlock_sweep_seconds")
        registry.gauge("engine_waits_for_edges", callback=self.__len__)

    def set_waits(self, waiter: ActionName, blockers: Iterable[ActionName]) -> bool:
        """Register ``waiter``'s current blockers; returns True when the
        edge set actually changed.  Callers may skip cycle detection on
        an unchanged registration: a cycle is detected at the moment its
        closing edge is added, by the waiter adding it — re-sweeping for
        a woken waiter whose edges did not move finds nothing new."""
        blockers = set(blockers)
        with self._lock:
            old = self._edges.get(waiter)
            if old == blockers:
                return False
            if old is not None:
                self._drop_locked(waiter, old)
            if blockers:
                self._edges[waiter] = blockers
                for blocker in blockers:
                    self._rev.setdefault(blocker, set()).add(waiter)
                self._roots.setdefault(waiter.path[0], set()).add(waiter)
            return True

    def clear_waits(self, waiter: ActionName) -> None:
        with self._lock:
            old = self._edges.pop(waiter, None)
            if old is not None:
                self._drop_locked(waiter, old)

    def _drop_locked(self, waiter: ActionName, blockers: Set[ActionName]) -> None:
        """Unhook ``waiter`` from the side indexes (graph lock held)."""
        self._edges.pop(waiter, None)
        for blocker in blockers:
            pointing = self._rev.get(blocker)
            if pointing is not None:
                pointing.discard(waiter)
                if not pointing:
                    del self._rev[blocker]
        beneath = self._roots.get(waiter.path[0])
        if beneath is not None:
            beneath.discard(waiter)
            if not beneath:
                del self._roots[waiter.path[0]]

    def has_waits(self, waiter: ActionName) -> bool:
        """Advisory, lock-free: does ``waiter`` currently have edges?
        A GIL-atomic dict probe — grant paths use it to skip the leaf
        lock when there is nothing to clear (edges are registered by a
        blocked attempt and stay while the request is parked)."""
        return waiter in self._edges

    def idle(self) -> bool:
        """Advisory, lock-free: nobody waits on anybody.  The engine
        probes this before naming a transaction for the graph, so on an
        idle graph a grant, commit or abort costs no leaf lock, no name."""
        return not self._edges

    def remove_transaction(self, txn: ActionName) -> None:
        """Drop a finished/aborted transaction from both edge sides."""
        with self._lock:
            old = self._edges.get(txn)
            if old is not None:
                self._drop_locked(txn, old)
            waiters = self._rev.pop(txn, None)
            if waiters:
                for waiter in waiters:
                    blockers = self._edges.get(waiter)
                    if blockers is None:
                        continue
                    blockers.discard(txn)
                    if not blockers:
                        self._drop_locked(waiter, blockers)

    def find_cycle_from(self, start: ActionName) -> Optional[List[ActionName]]:
        """A deadlock involving ``start``, if one exists.

        Nested-aware: a holder H is transitively blocked whenever any
        transaction in H's subtree is waiting (H cannot commit, hence
        cannot release, until its descendants finish), so from a blocker
        we continue through the explicit waits of every transaction in its
        subtree.  A deadlock exists when the chain reaches ``start`` or an
        ancestor of it — an ancestor's progress requires ``start`` to
        finish first.

        Returns the blocking chain, ``start`` first.  The traversal runs
        under the graph lock, so the cycle is judged against one
        consistent snapshot.
        """
        registry = self._registry
        if registry is not None and registry.enabled:
            sweep_started = time.monotonic()
            try:
                return self._find_cycle_from(start)
            finally:
                self._sweep_hist.observe(time.monotonic() - sweep_started)
        return self._find_cycle_from(start)

    def _find_cycle_from(self, start: ActionName) -> Optional[List[ActionName]]:
        with self._lock:
            target = set(start.ancestors())  # ancestors of start, start included
            visited: Set[ActionName] = set()
            stack: List[Tuple[ActionName, Tuple[ActionName, ...]]] = [
                (blocker, (start, blocker))
                for blocker in self._edges.get(start, ())
            ]
            edges = self._edges
            roots = self._roots
            while stack:
                node, path = stack.pop()
                if node in target:
                    return list(path)
                if node in visited:
                    continue
                visited.add(node)
                node_path = node.path
                if not node_path:
                    continue
                # Waiters in node's subtree all live under node's root
                # atom — one index probe instead of a scan of every edge.
                beneath = roots.get(node_path[0])
                if not beneath:
                    continue
                for waiter in beneath:
                    if not node.is_ancestor_of(waiter):
                        continue
                    for blocker in edges.get(waiter, ()):
                        if blocker in target:
                            return list(path) + [blocker]
                        if blocker not in visited:
                            stack.append((blocker, path + (blocker,)))
            return None

    def __len__(self) -> int:
        with self._lock:
            return len(self._edges)


def choose_victim(
    cycle: Sequence[ActionName], policy: str, requester: ActionName
) -> ActionName:
    """Pick the transaction to abort to break the cycle.

    * ``requester`` — abort the transaction that just blocked (cheapest
      single abort, but with parent-retained locks the retry can re-enter
      the same cycle);
    * ``youngest`` — abort the deepest/latest transaction on the chain;
    * ``blocker`` — abort the first lock retainer on the chain that is not
      an ancestor of the requester: releases exactly what the requester
      needs, so each conflict costs one deadlock (at the price of killing
      that retainer's subtree).
    """
    if policy == REQUESTER:
        return requester
    if policy == YOUNGEST:
        # Deeper-and-later names are "younger"; ties broken by name so the
        # choice is deterministic.
        return max(cycle, key=lambda t: (t.depth, t))
    if policy == BLOCKER:
        for node in cycle:
            if node != requester and not node.is_ancestor_of(requester):
                return node
        return requester
    raise ValueError("unknown victim policy %r" % policy)
