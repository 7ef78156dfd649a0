"""Chaos-certified scenario fleet: modeled applications at user scale.

Three production-shaped workloads (bank transfers, marketplace checkout,
social-graph fanout) compiled to the executor's ``Program`` trees, a
declarative chaos layer (failure-probability ramps, burst windows,
targeted hot-key storms, scheduled fsync poisoning, SIGKILL crashes),
and a runner that streaming-certifies every run and judges it against
the scenario's own conservation invariant.

Quick start::

    from repro.scenarios import ChaosSchedule, run_scenario

    result = run_scenario(
        "bank", programs=200, chaos=ChaosSchedule.burst(0.05, prob=0.8)
    )
    assert result.ok  # certified + invariant + quiescent
"""

from .apps import (
    SCENARIOS,
    ApproxZipf,
    ScenarioRun,
    build_bank,
    build_marketplace,
    build_scenario,
    build_social,
)
from .chaos import ChaosPhase, ChaosSchedule, with_hot_keys
from .runner import (
    ScenarioResult,
    run_compiled,
    run_fsync_poison_scenario,
    run_scenario,
)

__all__ = [
    "ApproxZipf",
    "ChaosPhase",
    "ChaosSchedule",
    "SCENARIOS",
    "ScenarioResult",
    "ScenarioRun",
    "build_bank",
    "build_marketplace",
    "build_scenario",
    "build_social",
    "run_compiled",
    "run_fsync_poison_scenario",
    "run_scenario",
    "with_hot_keys",
]
