"""Declarative chaos schedules over scenario runs.

A :class:`ChaosSchedule` is a list of :class:`ChaosPhase` windows over a
run's progress axis (the fraction of the program queue dispatched so
far).  Each phase sets a base failure-injection probability, an extra
probability for blocks touching the scenario's *hot keys* (targeted
storms), and the schedule composes the rest of the repo's failure
machinery:

* **Failure injection** — the schedule compiles, per program, a
  :class:`~repro.workload.Firing` choosing which marked failure points
  fire (seeded: a chaos run is reproducible bit-for-bit, which is what
  makes the retry-jitter and executor bugfixes testable at all);
* **fsync-error poisoning** — :meth:`fsync_fn` wraps ``os.fsync`` with a
  scheduled one-shot failure, driving the WAL's fsyncgate poisoning path
  (``WalSyncError``) under real workload;
* the **SIGKILL crash harness** composes at the next layer up — see
  :mod:`repro.durability.crashtest`.

Construction helpers cover the common shapes::

    ChaosSchedule.steady(0.1)                      # flat 10%
    ChaosSchedule.ramp(0.0, 0.4)                   # linear ramp up
    ChaosSchedule.burst(0.05, window=(0.4, 0.6), prob=0.8)
    ChaosSchedule.storm(hot_prob=0.9)              # hot keys only

and schedules are plain data: phases can be listed explicitly for
anything the helpers don't say.
"""

from __future__ import annotations

import os
import random
import threading
from dataclasses import dataclass, field
from typing import Callable, FrozenSet, Iterable, List, Optional

from ..workload.executor import Firing, all_failure_points
from ..workload.shapes import Block, Program


@dataclass(frozen=True)
class ChaosPhase:
    """One window on the run's progress axis ``[start, end)``.

    ``failure_prob`` applies to every marked failure point; ``hot_prob``
    is *added* for blocks that touch any scheduled hot key (a targeted
    storm).  Probabilities are evaluated independently per failure point
    per program.
    """

    start: float
    end: float
    failure_prob: float = 0.0
    hot_prob: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.start <= 1.0 or not 0.0 < self.end <= 1.0:
            raise ValueError("phase window must lie in [0, 1]")
        if self.end <= self.start:
            raise ValueError("phase end must exceed start")
        for prob in (self.failure_prob, self.hot_prob):
            if not 0.0 <= prob <= 1.0:
                raise ValueError("probabilities must be in [0, 1]")


@dataclass
class ChaosSchedule:
    """Failure-point firing probabilities over run progress, plus the
    scheduled fsync poisoning hook."""

    phases: List[ChaosPhase] = field(default_factory=list)
    #: Objects whose blocks draw the extra ``hot_prob`` (storm targets).
    hot_keys: FrozenSet[str] = frozenset()
    seed: int = 0
    #: Fail the Nth WAL fsync of the run (1-based); None disables.
    fsync_fail_at: Optional[int] = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def steady(cls, prob: float, **kwargs) -> "ChaosSchedule":
        """A flat injection rate over the whole run."""
        return cls(phases=[ChaosPhase(0.0, 1.0, failure_prob=prob)], **kwargs)

    @classmethod
    def ramp(cls, start_prob: float, end_prob: float, steps: int = 10, **kwargs) -> "ChaosSchedule":
        """A linear probability ramp across the run (stepped)."""
        phases = []
        for i in range(steps):
            lo, hi = i / steps, (i + 1) / steps
            prob = start_prob + (end_prob - start_prob) * (i + 0.5) / steps
            phases.append(ChaosPhase(lo, hi, failure_prob=prob))
        return cls(phases=phases, **kwargs)

    @classmethod
    def burst(
        cls,
        background: float,
        window: "tuple[float, float]" = (0.4, 0.6),
        prob: float = 0.8,
        **kwargs,
    ) -> "ChaosSchedule":
        """A quiet background rate with one violent burst window."""
        lo, hi = window
        phases = []
        if lo > 0.0:
            phases.append(ChaosPhase(0.0, lo, failure_prob=background))
        phases.append(ChaosPhase(lo, hi, failure_prob=prob))
        if hi < 1.0:
            phases.append(ChaosPhase(hi, 1.0, failure_prob=background))
        return cls(phases=phases, **kwargs)

    @classmethod
    def storm(cls, hot_prob: float, background: float = 0.0, **kwargs) -> "ChaosSchedule":
        """A targeted hot-key storm: blocks touching hot keys fail at
        ``background + hot_prob``; everything else at ``background``."""
        return cls(
            phases=[
                ChaosPhase(0.0, 1.0, failure_prob=background, hot_prob=hot_prob)
            ],
            **kwargs,
        )

    # -- evaluation ---------------------------------------------------------

    def phase_at(self, progress: float) -> Optional[ChaosPhase]:
        progress = min(max(progress, 0.0), 1.0 - 1e-12)
        for phase in self.phases:
            if phase.start <= progress < phase.end:
                return phase
        return None

    def prob_for(self, progress: float, block: Block) -> float:
        """The firing probability for one failure point at ``progress``."""
        phase = self.phase_at(progress)
        if phase is None:
            return 0.0
        prob = phase.failure_prob
        if phase.hot_prob and self.hot_keys:
            if any(op.obj in self.hot_keys for op in block.ops()):
                prob = min(1.0, prob + phase.hot_prob)
        return prob

    def firing_factory(
        self, total_programs: int
    ) -> Callable[[Program, int], Firing]:
        """The :func:`repro.workload.execute` hook: compiles this
        schedule into per-program firing decisions.

        Progress is the program's queue index over the total — a
        deterministic clock, so the same (schedule, seed, programs)
        triple always injects the same faults.  The factory is called
        once per program before dispatch and is thread-safe.
        """
        rng = random.Random(self.seed)
        lock = threading.Lock()

        def factory(program: Program, index: int) -> Firing:
            progress = index / total_programs if total_programs else 0.0
            fired = set()
            with lock:
                for block in all_failure_points(program):
                    if rng.random() < self.prob_for(progress, block):
                        fired.add(id(block))
            return Firing(fired)

        return factory

    # -- fsync poisoning ----------------------------------------------------

    def fsync_fn(self) -> Callable[[int], None]:
        """An ``os.fsync`` replacement that fails (``OSError(EIO)``) on
        the scheduled call, exercising the WAL's poisoned-log path.
        Inject via ``DurabilityManager(fsync_fn=schedule.fsync_fn())``.
        """
        counter = {"n": 0}
        lock = threading.Lock()
        target = self.fsync_fail_at

        def poisoned_fsync(fd: int) -> None:
            if target is not None:
                with lock:
                    counter["n"] += 1
                    hit = counter["n"] == target
                if hit:
                    raise OSError(5, "Input/output error (chaos-injected)")
            os.fsync(fd)

        return poisoned_fsync

    def describe(self) -> dict:
        """A JSON-ready summary for reports and artifacts."""
        return {
            "seed": self.seed,
            "fsync_fail_at": self.fsync_fail_at,
            "hot_keys": sorted(self.hot_keys),
            "phases": [
                {
                    "window": [phase.start, phase.end],
                    "failure_prob": phase.failure_prob,
                    "hot_prob": phase.hot_prob,
                }
                for phase in self.phases
            ],
        }


def with_hot_keys(schedule: ChaosSchedule, hot_keys: Iterable[str]) -> ChaosSchedule:
    """The schedule with storm targets filled in (schedules are built
    before the scenario's hot set is known)."""
    return ChaosSchedule(
        phases=list(schedule.phases),
        hot_keys=frozenset(hot_keys),
        seed=schedule.seed,
        fsync_fail_at=schedule.fsync_fail_at,
    )


@dataclass(frozen=True)
class SiteEvent:
    """One site-lifecycle action on the run's progress axis."""

    #: Fire once progress (completed programs / total) reaches this.
    at: float
    #: "kill" (SIGKILL the shard process) or "revive" (restart it and
    #: walk it through recovery, redo, and replica resync).
    action: str
    site: int

    def __post_init__(self) -> None:
        if self.action not in ("kill", "revive"):
            raise ValueError("action must be 'kill' or 'revive', got %r"
                             % self.action)
        if not 0.0 <= self.at <= 1.0:
            raise ValueError("at must be within [0, 1]")


@dataclass(frozen=True)
class SiteSchedule:
    """Site failure/recovery chaos for cluster runs: the per-site
    extension of the SIGKILL crash harness, declarative like
    :class:`ChaosSchedule`.  The cluster scenario runner fires each
    event when run progress crosses its threshold; sites left dead at
    the end are revived so invariants can be judged over a complete
    logical snapshot."""

    events: tuple = ()

    @classmethod
    def kill_revive(
        cls, site: int, kill_at: float = 0.3, revive_at: float = 0.6
    ) -> "SiteSchedule":
        """The canonical available-copies exercise: one site dies
        mid-run and comes back before the run ends."""
        return cls(events=(
            SiteEvent(kill_at, "kill", site),
            SiteEvent(revive_at, "revive", site),
        ))

    @classmethod
    def rolling(cls, sites: int, width: float = 0.2) -> "SiteSchedule":
        """Kill and revive each site in turn across the run."""
        events = []
        for index in range(sites):
            start = (index + 0.5) / (sites + 1)
            events.append(SiteEvent(round(start, 4), "kill", index))
            events.append(
                SiteEvent(round(min(1.0, start + width), 4), "revive", index)
            )
        return cls(events=tuple(events))

    def describe(self) -> dict:
        return {
            "events": [
                {"at": e.at, "action": e.action, "site": e.site}
                for e in self.events
            ]
        }
