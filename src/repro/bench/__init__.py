"""Benchmark harness: system builders and table reporting."""

from .harness import (
    SYSTEMS,
    Cell,
    certify_if_enabled,
    certify_config,
    certify_mode,
    enable_metrics,
    make_system,
    metrics_summary,
    run_cell,
    scale,
)
from .reporting import Table, emit

__all__ = [
    "Cell",
    "SYSTEMS",
    "Table",
    "certify_if_enabled",
    "certify_config",
    "certify_mode",
    "emit",
    "enable_metrics",
    "make_system",
    "metrics_summary",
    "run_cell",
    "scale",
]
