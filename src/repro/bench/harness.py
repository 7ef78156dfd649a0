"""Shared builders for the benchmark suite.

Each benchmark regenerates one experiment from DESIGN.md's index; the
helpers here standardize how systems under test are constructed and how a
single workload cell is run and summarized.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from ..baselines import FlatLockingDB, GlobalLockDB, MVTODatabase
from ..engine import EngineConfig, NestedTransactionDB
from ..workload import (
    ExecutionReport,
    WorkloadConfig,
    WorkloadGenerator,
    execute,
    initial_values,
)


def certify_mode() -> Optional[str]:
    """The engine-level certification the environment requests for
    benchmark cells (``REPRO_BENCH_CERTIFY=streaming`` in the nightly
    sweep); ``None`` when benchmarks should run uncertified."""
    mode = os.environ.get("REPRO_BENCH_CERTIFY", "").strip()
    return mode or None


def certify_config(config: Optional[EngineConfig] = None, **defaults: Any) -> EngineConfig:
    """An :class:`EngineConfig` with the environment's certification
    request merged in: under ``REPRO_BENCH_CERTIFY`` the trace recorder
    is forced on (the certifier subscribes to it) and ``certify=`` is
    passed through.  Field overrides may be given either as a base
    ``config`` or as keyword defaults."""
    if config is None:
        config = EngineConfig(**defaults)
    elif defaults:
        config = config.replace(**defaults)
    mode = certify_mode()
    if mode is not None:
        config = config.replace(record_trace=True, certify=mode)
    return config


def certify_if_enabled(db: Any) -> bool:
    """Fail loudly if a cell's engine carries a streaming certifier that
    has flagged a violation; returns whether a certifier was present.
    Benchmarks call this after every certified execution so a nightly
    sweep doubles as a correctness run."""
    if getattr(db, "certifier", None) is None:
        return False
    db.assert_certified()
    return True


def scale(value: int, floor: int = 1) -> int:
    """Scale a benchmark size constant by ``REPRO_BENCH_SCALE`` (a float
    in (0, 1]; the nightly workflow runs the E1/E4/E9 sweeps at reduced
    scale).  Unset or 1 leaves the constant untouched."""
    factor = float(os.environ.get("REPRO_BENCH_SCALE", "1") or "1")
    return max(floor, int(round(value * factor)))


def _nested(init: Dict[str, Any], **kwargs: Any) -> NestedTransactionDB:
    return NestedTransactionDB(init, config=certify_config(**kwargs))


#: The systems compared throughout E1-E7, by short name.
SYSTEMS: Dict[str, Callable[[Dict[str, Any]], Any]] = {
    "moss-rw": lambda init: _nested(init, record_trace=False),
    "moss-single": lambda init: _nested(
        init, single_mode=True, record_trace=False
    ),
    "moss-lazy": lambda init: _nested(
        init, lazy_lock_cleanup=True, record_trace=False
    ),
    "moss-victim-requester": lambda init: _nested(
        init, deadlock_policy="requester", record_trace=False
    ),
    "moss-victim-youngest": lambda init: _nested(
        init, deadlock_policy="youngest", record_trace=False
    ),
    "flat-2pl": lambda init: FlatLockingDB(init),
    "global-lock": lambda init: GlobalLockDB(init),
    "mvto": lambda init: MVTODatabase(init),
}


def make_system(name: str, objects: int, with_metrics: bool = False) -> Any:
    """Instantiate a system under test over a fresh object population.

    ``with_metrics=True`` enables the metrics registry on systems that
    carry one (the nested engine); other systems ignore the flag.
    """
    db = SYSTEMS[name](initial_values(objects))
    if with_metrics:
        enable_metrics(db)
    return db


def enable_metrics(db: Any) -> bool:
    """Turn on ``db.metrics`` when the system has a registry; returns
    whether metrics are now recording."""
    registry = getattr(db, "metrics", None)
    if registry is None:
        return False
    registry.enable()
    return True


@dataclass
class Cell:
    """One benchmark cell: a system, a workload config, an executor setup."""

    system: str
    config: WorkloadConfig
    threads: int = 4
    failure_prob: float = 0.0
    op_delay: float = 0.0
    max_retries: int = 50
    #: Enable the engine metrics registry for this cell; the resulting
    #: :attr:`ExecutionReport.metrics` snapshot lands in JSON artifacts.
    with_metrics: bool = False

    def run(self) -> ExecutionReport:
        db = make_system(self.system, self.config.objects, self.with_metrics)
        programs = WorkloadGenerator(self.config).programs()
        report = execute(
            db,
            programs,
            threads=self.threads,
            failure_prob=self.failure_prob,
            seed=self.config.seed,
            op_delay=self.op_delay,
            max_retries=self.max_retries,
        )
        certify_if_enabled(db)
        return report


def run_cell(
    system: str,
    threads: int = 4,
    failure_prob: float = 0.0,
    op_delay: float = 0.0,
    max_retries: int = 50,
    with_metrics: bool = False,
    **config_kwargs: Any,
) -> ExecutionReport:
    """Convenience wrapper building the cell in one call."""
    config = WorkloadConfig(**config_kwargs)
    return Cell(
        system, config, threads, failure_prob, op_delay, max_retries, with_metrics
    ).run()


def metrics_summary(report: ExecutionReport) -> Dict[str, Any]:
    """The compact metrics block benchmark JSON artifacts embed per cell:
    lock-wait and commit latency percentiles.  Empty dict when the cell
    ran without metrics."""
    snapshot = report.metrics
    if not snapshot:
        return {}
    histograms = snapshot.get("histograms", {})
    summary: Dict[str, Any] = {}
    for key in ("engine_lock_wait_seconds", "engine_commit_seconds"):
        data = histograms.get(key)
        if data:
            summary[key] = {
                "count": data["count"],
                "p50": data["p50"],
                "p95": data["p95"],
                "p99": data["p99"],
            }
    return summary
