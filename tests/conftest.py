"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import settings as hypothesis_settings

from repro.core import Level2Algebra, Scenario, U, Universe, add, random_run, random_scenario, read

# Example budgets for property tests that don't pin their own: "ci" keeps
# the tier-1 wall clock sane, "nightly" digs deeper (the scheduled
# workflow exports HYPOTHESIS_PROFILE=nightly).  Tests that set an
# explicit ``max_examples`` are unaffected.
hypothesis_settings.register_profile("ci", deadline=None, max_examples=60)
hypothesis_settings.register_profile(
    "nightly", deadline=None, max_examples=400
)
hypothesis_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture(params=["global", "striped"])
def retired_latch_axis(request):
    """Keeps a test's two historical ids (``[global]`` / ``[striped]``).

    These tests once ran per latch mode.  The engine has one latch now and
    the bodies no longer name a mode, but the suite's floor list pins test
    ids and lets a change retire only a few of them, so the ids stay until
    follow-ups collapse them; until then the second run is one more
    schedule sample of a concurrency test.  Request it with
    ``@pytest.mark.usefixtures("retired_latch_axis")``.
    """
    return request.param


@pytest.fixture
def bank_universe():
    """A small hand-built universe: two accounts and a transfer tree.

    U
    └── transfer (t)
        ├── debit  (access: acct_a, add -10)
        ├── credit (access: acct_b, add +10)
        └── audit  (subtransaction)
            ├── check_a (access: acct_a, read)
            └── check_b (access: acct_b, read)
    """
    universe = Universe()
    universe.define_object("acct_a", init=100)
    universe.define_object("acct_b", init=50)
    t = U.child("transfer")
    universe.declare_access(t.child("debit"), "acct_a", add(-10))
    universe.declare_access(t.child("credit"), "acct_b", add(10))
    audit = t.child("audit")
    universe.declare_access(audit.child("check_a"), "acct_a", read())
    universe.declare_access(audit.child("check_b"), "acct_b", read())
    return universe


@pytest.fixture
def bank_actions():
    t = U.child("transfer")
    audit = t.child("audit")
    return {
        "t": t,
        "debit": t.child("debit"),
        "credit": t.child("credit"),
        "audit": audit,
        "check_a": audit.child("check_a"),
        "check_b": audit.child("check_b"),
    }


@pytest.fixture
def bank_scenario(bank_universe, bank_actions):
    return Scenario(
        bank_universe, (bank_actions["t"], bank_actions["audit"])
    )


def make_level2_run(seed: int, **scenario_kwargs):
    """A (scenario, events, final AAT) triple from a seeded random walk."""
    rng = random.Random(seed)
    scenario = random_scenario(rng, **scenario_kwargs)
    algebra = Level2Algebra(scenario.universe)
    events = random_run(algebra, scenario, rng)
    return scenario, algebra, events
