"""Engine statistics: plain counters behind the engine latch.

:class:`ObservableStats` holds the lifecycle counters
(begun / committed / aborted / deadlocks) and the data-path counters
(reads / writes / increments / snapshot_reads / lock_waits /
lazy_lock_reaps).  Every bump happens under the engine's one latch, so
the totals are exact under arbitrary thread interleavings without a lock
of their own.

``snapshot()`` returns exactly :data:`STATS_KEYS` — the schema documented
in ``docs/engine_guide.md``.  :meth:`ObservableStats.bind` mirrors every
counter into a :class:`~repro.obs.metrics.MetricsRegistry` as callback
gauges, so the Prometheus export includes engine totals without
double-counting on the hot path.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

#: The canonical key set of ``snapshot()``.
STATS_KEYS: Tuple[str, ...] = (
    "begun",
    "committed",
    "aborted",
    "reads",
    "writes",
    "increments",
    "snapshot_reads",
    "lock_waits",
    "deadlocks",
    "lazy_lock_reaps",
)


class ObservableStats:
    """Engine counters for benchmarking and diagnostics."""

    __slots__ = STATS_KEYS

    def __init__(self) -> None:
        for key in STATS_KEYS:
            setattr(self, key, 0)

    def snapshot(self) -> Dict[str, int]:
        """All counters, keyed exactly by :data:`STATS_KEYS`."""
        return {key: getattr(self, key) for key in STATS_KEYS}

    def bind(self, registry: Any) -> None:
        """Mirror every counter into ``registry`` as a callback gauge
        (``engine_stats_<name>``), read lazily at export time."""
        for key in STATS_KEYS:
            registry.gauge(
                "engine_stats_" + key,
                callback=(lambda k=key: getattr(self, k)),
            )

    def __repr__(self) -> str:
        inner = ", ".join(
            "%s=%d" % (key, getattr(self, key)) for key in STATS_KEYS
        )
        return "ObservableStats(%s)" % inner
