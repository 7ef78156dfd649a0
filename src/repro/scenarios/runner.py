"""Scenario execution: streaming-certified, chaos-injected, self-judging.

:func:`run_scenario` is the single entry point the benchmark, the CLI and
the tests share: compile a scenario, run it on the nested engine with the
incremental Theorem-9 certifier subscribed to the live trace, drive the
chaos schedule through the executor's ``firing_factory`` hook, then judge
the run three ways —

1. **certification** — the streaming certifier's verdict over the whole
   trace (serializability, live);
2. **invariant** — the scenario's conservation law over the committed
   snapshot (catches lost work the certifier cannot see);
3. **containment** — injected failures absorbed as child aborts instead
   of killed programs (the paper's resilience claim as a number).

:func:`run_fsync_poison_scenario` layers the durability axis on top: the
chaos schedule fails one scheduled WAL fsync mid-run, the engine's
poisoned-log protocol surfaces :class:`~repro.durability.wal.WalSyncError`
through the executor (the retry/recovery bugfixes in this PR are exactly
what makes that error *visible* instead of a silent dead thread), and the
recovered state must still satisfy the scenario invariant.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..durability import DurabilityManager
from ..durability.wal import WalSyncError
from ..engine import EngineConfig, NestedTransactionDB
from ..workload import execute
from .apps import ScenarioRun, build_scenario
from .chaos import ChaosSchedule, with_hot_keys


@dataclass
class ScenarioResult:
    """One scenario run's verdicts and headline numbers."""

    scenario: str
    users: int
    programs: int
    committed: int = 0
    failed: int = 0
    retries: int = 0
    injected: int = 0
    child_aborts: int = 0
    goodput: float = 0.0  # committed ops / second
    throughput: float = 0.0  # committed programs / second
    p95_ms: float = 0.0
    #: Injected failures absorbed as child aborts, per injected failure
    #: (clipped to 1.0; child aborts also count deadlock-victim retries,
    #: so the raw ratio can exceed 1).  1.0 when nothing was injected.
    containment: float = 1.0
    certified: Optional[bool] = None
    invariant_ok: bool = True
    invariant_violation: Optional[str] = None
    quiescent: bool = True
    seconds: float = 0.0
    chaos: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return (
            self.certified is not False
            and self.invariant_ok
            and self.quiescent
        )

    def as_dict(self) -> Dict[str, Any]:
        row = dict(self.__dict__)
        row["ok"] = self.ok
        return row


def _containment(injected: int, child_aborts: int) -> float:
    if injected <= 0:
        return 1.0
    return min(1.0, child_aborts / injected)


def run_scenario(
    name: str,
    programs: Optional[int] = None,
    users: Optional[int] = None,
    threads: int = 8,
    seed: int = 0,
    chaos: Optional[ChaosSchedule] = None,
    certify: Optional[str] = "streaming",
    op_delay: float = 0.0,
    max_retries: int = 200,
    durability: Optional[Any] = None,
    scenario_kwargs: Optional[Dict[str, Any]] = None,
) -> ScenarioResult:
    """Run one scenario end to end and judge it.

    ``chaos=None`` runs clean; a :class:`ChaosSchedule` has its hot-key
    storm targets filled from the scenario's hot set automatically.
    ``certify`` defaults to ``"streaming"`` — every scenario run is
    consistency-checked live unless explicitly opted out.
    """
    scenario = build_scenario(
        name, programs=programs, users=users, seed=seed,
        **(scenario_kwargs or {}),
    )
    return run_compiled(
        scenario,
        threads=threads,
        chaos=chaos,
        certify=certify,
        op_delay=op_delay,
        max_retries=max_retries,
        durability=durability,
    )


def run_compiled(
    scenario: ScenarioRun,
    threads: int = 8,
    chaos: Optional[ChaosSchedule] = None,
    certify: Optional[str] = "streaming",
    op_delay: float = 0.0,
    max_retries: int = 200,
    durability: Optional[Any] = None,
) -> ScenarioResult:
    """Run an already-compiled :class:`ScenarioRun`."""
    firing_factory = None
    chaos_summary: Dict[str, Any] = {}
    if chaos is not None:
        if chaos.hot_keys == frozenset():
            chaos = with_hot_keys(chaos, scenario.hot_keys)
        firing_factory = chaos.firing_factory(len(scenario.programs))
        chaos_summary = chaos.describe()

    db = NestedTransactionDB(
        scenario.initial,
        config=EngineConfig(
                record_trace=certify is not None,
            certify=certify,
            durability=durability,
        ),
    )
    result = ScenarioResult(
        scenario=scenario.name,
        users=scenario.users,
        programs=len(scenario.programs),
        chaos=chaos_summary,
    )
    started = time.perf_counter()
    try:
        report = execute(
            db,
            scenario.programs,
            threads=threads,
            seed=chaos.seed if chaos is not None else 0,
            op_delay=op_delay,
            max_retries=max_retries,
            firing_factory=firing_factory,
        )
    finally:
        result.seconds = round(time.perf_counter() - started, 3)

    result.committed = report.committed_programs
    result.failed = report.failed_programs
    result.retries = report.retries
    result.injected = report.injected
    result.child_aborts = report.child_aborts
    result.goodput = round(report.goodput, 1)
    result.throughput = round(report.throughput, 1)
    result.p95_ms = round(report.latency_percentile(0.95) * 1000, 2)
    result.containment = round(
        _containment(report.injected, report.child_aborts), 4
    )

    try:
        db.assert_quiescent()
    except AssertionError:
        result.quiescent = False

    violation = scenario.invariant(db.snapshot())
    result.invariant_ok = violation is None
    result.invariant_violation = violation

    if db.certifier is not None:
        result.certified = bool(db.certifier.finish().ok)
    if durability is not None:
        db.close()
    return result


def run_fsync_poison_scenario(
    name: str,
    directory: str,
    fsync_fail_at: int = 5,
    programs: int = 40,
    users: int = 100_000,
    threads: int = 4,
    seed: int = 0,
) -> Dict[str, Any]:
    """Chaos on the durability axis: fail one scheduled WAL fsync
    mid-scenario and verify the engine's poisoned-log contract end to
    end under production-shaped load.

    Expectations:

    * the poisoned log surfaces :class:`WalSyncError` *out of*
      ``execute()`` (pre-bugfix, the worker thread died silently and the
      stall was invisible);
    * after reopening the directory, the recovered state satisfies the
      scenario's conservation invariant — a prefix of the committed
      transactions, never a torn one;
    * the durable horizon never advanced past the failed fsync.
    """
    scenario = build_scenario(name, programs=programs, users=users, seed=seed)
    schedule = ChaosSchedule(seed=seed, fsync_fail_at=fsync_fail_at)
    manager = DurabilityManager(
        directory, sync_policy="commit", fsync_fn=schedule.fsync_fn()
    )
    db = NestedTransactionDB(
        scenario.initial,
        config=EngineConfig(durability=manager, record_trace=False),
    )
    outcome: Dict[str, Any] = {
        "scenario": scenario.name,
        "fsync_fail_at": fsync_fail_at,
        "poisoned": False,
        "invariant_ok": False,
        "committed_before_poison": 0,
    }
    try:
        execute(db, scenario.programs, threads=threads, seed=seed)
    except (WalSyncError, OSError):
        # The thread whose fsync failed surfaces the raw OSError; every
        # later syncer gets WalSyncError.  Which one wins execute()'s
        # first-error slot depends on scheduling — both mean poisoned.
        outcome["poisoned"] = True
    finally:
        db.close()

    # Recover from disk alone: the durable prefix must be consistent.
    recovered_db = NestedTransactionDB(
        scenario.initial,
        config=EngineConfig(durability=DurabilityManager(directory),
                            record_trace=False),
    )
    snapshot = recovered_db.snapshot()
    recovered_db.close()
    violation = scenario.invariant(snapshot)
    outcome["invariant_ok"] = violation is None
    outcome["invariant_violation"] = violation
    outcome["committed_before_poison"] = (
        recovered_db.durability.last_recovery.commits_replayed
    )
    return outcome
