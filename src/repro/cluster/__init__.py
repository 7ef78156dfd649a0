"""Level 5 for real: a sharded multi-process deployment of the engine.

The :mod:`repro.distributed` package simulates the paper's Section 9
distributed algebra in one process; this package *deploys* it.  Each
shard is a real OS process running the existing engine stack (engine +
per-shard WAL), a coordinator drives cross-shard
top-level commit with 2PC layered on the paper's Send/Receive message
vocabulary, and replicated objects get available-copies semantics:
site failure marks copies stale, recovery re-syncs them from a fresh
replica before they serve reads again.

Every shard streams its seq-ordered trace to the coordinator, which
remaps shard-local branch transactions into children of the global
transaction (Theorem 29's level-5 -> level-1 projection made concrete),
merges the streams, and certifies the merged trace with both the
streaming certifier and the offline oracle — a cluster run is
self-verifying exactly like a single-process run.
"""

from .coordinator import (
    Cluster,
    ClusterAborted,
    ClusterError,
    ClusterInDoubt,
    SiteUnavailable,
)
from .merge import MergeReport, TraceMerger
from .routing import ClusterMap
from .runner import ClusterScenarioResult, run_cluster_scenario
from .wire import Channel, ProtocolLog, WireClosed, recv_frame, send_frame

__all__ = [
    "Channel",
    "Cluster",
    "ClusterAborted",
    "ClusterError",
    "ClusterInDoubt",
    "ClusterMap",
    "ClusterScenarioResult",
    "MergeReport",
    "ProtocolLog",
    "SiteUnavailable",
    "TraceMerger",
    "WireClosed",
    "recv_frame",
    "run_cluster_scenario",
    "send_frame",
]
