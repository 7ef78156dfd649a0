"""Hypothesis property tests for the engine's storage and lock primitives:
version stacks and Moss lock tables under random legal op sequences."""

from __future__ import annotations

from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.naming import ActionName
from repro.engine import READ, WRITE, ObjectLocks, VersionStack
from repro.engine.storage import ROOT, Key

# The engine keys lock holders and version owners by path tuple — the
# ``path`` of the paper's action name; ``ROOT`` is ``U``'s.


def chain_of(depth: int) -> List[Key]:
    """(0,), (0, 0), ... — one ancestor line."""
    return [(0,) * level for level in range(1, depth + 1)]


class TestVersionStackProperties:
    @given(
        st.lists(
            st.tuples(st.integers(1, 4), st.integers(0, 99), st.booleans()),
            max_size=25,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_nested_write_then_resolve(self, script):
        """Random nesting scripts: each step picks a depth, writes there,
        then either commits the chain up or discards it.  The stack must
        always mirror a straightforward recursive model."""
        stack = VersionStack(0)
        expected_base = 0
        for depth, value, commit in script:
            chain = chain_of(depth)
            # deepest writes
            for node in chain:
                stack.ensure_version(node)
            stack.set_value(chain[-1], value)
            if commit:
                for node in reversed(chain):
                    stack.commit_to_parent(node)
                expected_base = value
            else:
                for node in reversed(chain):
                    stack.discard(node)
            # After resolution the stack is just the base entry.
            assert len(stack.entries) == 1
            assert stack.owner == ROOT
            assert stack.current == expected_base

    @given(st.lists(st.integers(0, 99), min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_abort_always_restores(self, values):
        stack = VersionStack(7)
        txn = (1,)
        stack.ensure_version(txn)
        for value in values:
            stack.set_value(txn, value)
        assert stack.current == values[-1]
        stack.discard(txn)
        assert stack.current == 7

    @given(st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_partial_commit_keeps_owner_chain(self, depth):
        """Committing only the deepest k levels leaves the stack owned by
        the right intermediate ancestor."""
        stack = VersionStack(0)
        chain = chain_of(depth)
        for node in chain:
            stack.ensure_version(node)
        stack.set_value(chain[-1], 42)
        stack.commit_to_parent(chain[-1])
        expected_owner = chain[-2] if depth >= 2 else ROOT
        assert stack.owner == expected_owner
        assert stack.current == 42


class TestVersionStackRoundTrips:
    """Durability-facing round trips: commit-merge vs abort-pop under
    random nested schedules, driven against an independent shadow model
    (visible-value bookkeeping, not a re-implementation of the stack)."""

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["push", "write", "commit", "abort"]),
                st.integers(0, 99),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_commit_merge_vs_abort_pop(self, script):
        """At every step: an abort restores exactly the value that was
        visible when the aborting transaction pushed its version; a commit
        makes the child's value the parent's.  ``saved[owner]`` records
        what each live owner would restore — the paper's value map."""
        stack = VersionStack(0)
        # What was on top (visible) when each live owner pushed.
        saved = {}
        chain = [ROOT]  # live owner chain, bottom to top
        for action, value in script:
            top = chain[-1]
            if action == "push":
                node = top + (len(chain),)
                saved[node] = stack.current
                stack.ensure_version(node)
                chain.append(node)
            elif action == "write":
                if top == ROOT:
                    continue  # only transactions write through the engine
                stack.set_value(top, value)
            elif action == "commit":
                if top == ROOT:
                    continue
                committed = stack.current
                stack.commit_to_parent(top)
                chain.pop()
                del saved[top]
                # The parent now sees the child's value...
                assert stack.current == committed
            else:  # abort
                if top == ROOT:
                    continue
                stack.discard(top)
                chain.pop()
                # ...whereas an abort restores the pre-push value exactly.
                assert stack.current == saved.pop(top)
        # Resolve everything: aborting the whole live chain walks the
        # saved values back down to the oldest still-live restore point.
        while len(chain) > 1:
            top = chain.pop()
            stack.discard(top)
            assert stack.current == saved.pop(top)
        assert stack.owner == ROOT

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["push", "write", "commit", "abort"]),
                st.integers(0, 99),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_owner_chain_invariant(self, script):
        """The stack's owners always form a strict ancestor chain with a
        U-owned base — the structural invariant recovery's snapshot and
        the WAL's ``version_of`` read both lean on."""
        stack = VersionStack(5)
        chain = [ROOT]
        for action, value in script:
            top = chain[-1]
            if action == "push":
                node = top + (len(chain),)
                stack.ensure_version(node)
                chain.append(node)
            elif action == "write" and top != ROOT:
                stack.set_value(top, value)
            elif action == "commit" and top != ROOT:
                stack.commit_to_parent(top)
                chain.pop()
            elif action == "abort" and top != ROOT:
                stack.discard(top)
                chain.pop()
            owners = [owner for owner, _value in stack.entries]
            assert owners[0] == ROOT
            assert len(set(owners)) == len(owners)
            for below, above in zip(owners, owners[1:]):
                assert ActionName(below).is_proper_ancestor_of(ActionName(above))
            # version_of agrees with the entries it indexes.
            for owner, value_ in stack.entries:
                assert stack.version_of(owner) == (owner, value_)
            assert stack.version_of(("nope",)) is None


class TestObjectLocksProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.sampled_from([READ, WRITE])),
            max_size=20,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_grant_is_monotone_in_mode(self, grants):
        """Granting never downgrades: once WRITE, always WRITE."""
        locks = ObjectLocks()
        strongest = {}
        for txn_index, mode in grants:
            txn = (txn_index,)
            locks.grant(txn, mode)
            if strongest.get(txn) != WRITE:
                strongest[txn] = (
                    WRITE if mode == WRITE else strongest.get(txn, READ)
                )
        for txn, mode in strongest.items():
            assert locks.mode_of(txn) == mode

    @given(st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=50, deadline=None)
    def test_conflict_symmetry_for_writes(self, i, j):
        """Between two distinct top-levels, write-write conflicts are
        symmetric."""
        a, b = (i,), (j,)
        locks_a = ObjectLocks()
        locks_a.grant(a, WRITE)
        locks_b = ObjectLocks()
        locks_b.grant(b, WRITE)
        conflict_ab = bool(locks_a.conflicts_with(b, WRITE))
        conflict_ba = bool(locks_b.conflicts_with(a, WRITE))
        assert conflict_ab == conflict_ba == (a != b)

    @given(st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_inheritance_chain_reaches_top(self, depth):
        """A lock inherited level by level ends at the top-level holder
        and never blocks descendants along the way."""
        locks = ObjectLocks()
        chain = chain_of(depth)
        locks.grant(chain[-1], WRITE)
        for node in reversed(chain[1:]):
            # Holders are always ancestors of the original acquirer.
            assert locks.conflicts_with(chain[-1], WRITE) == []
            locks.inherit(node)
        assert locks.mode_of(chain[0]) == WRITE
        # A different top-level now conflicts.
        assert locks.conflicts_with((9,), WRITE) == [chain[0]]

    @given(
        st.lists(st.tuples(st.integers(0, 4), st.booleans()), max_size=15)
    )
    @settings(max_examples=50, deadline=None)
    def test_readers_never_block_each_other(self, ops):
        locks = ObjectLocks()
        for txn_index, _unused in ops:
            locks.grant((txn_index,), READ)
        for txn_index, _unused in ops:
            assert locks.conflicts_with((txn_index + 10,), READ) == []
