"""Object -> shard routing and copy naming for the cluster.

Objects shard by crc32 (not ``hash``, so placement is stable across
processes): a single-site object lives on ``crc32(obj) % shards``
and a replicated object (matched by prefix — ledgers like ``bank:fees``)
has one copy per site.  In the merged trace every physical copy is its
own level-1 object, named ``obj@site``; one-copy equivalence is then a
*checked* property (replica coherence at quiescence + the certified
merged trace), not an assumption baked into the checker.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple
from zlib import crc32


class ClusterMap:
    """Static routing table: shard count plus the replicated prefixes."""

    def __init__(self, shards: int, replicated: Tuple[str, ...] = ()) -> None:
        if shards < 1:
            raise ValueError("a cluster needs at least one shard")
        self.shards = shards
        self.replicated = tuple(replicated)

    def is_replicated(self, obj: str) -> bool:
        return any(obj.startswith(prefix) for prefix in self.replicated)

    def home(self, obj: str) -> int:
        """The single home site of a non-replicated object."""
        return crc32(obj.encode("utf-8")) % self.shards

    def sites_of(self, obj: str) -> Tuple[int, ...]:
        if self.is_replicated(obj):
            return tuple(range(self.shards))
        return (self.home(obj),)

    @staticmethod
    def copy_name(obj: str, site: int) -> str:
        return "%s@%d" % (obj, site)

    def partition(self, initial: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Per-site initial stores, keyed by *logical* object name."""
        shards: List[Dict[str, Any]] = [{} for _ in range(self.shards)]
        for obj, value in initial.items():
            for site in self.sites_of(obj):
                shards[site][obj] = value
        return shards

    def merged_initial(self, initial: Dict[str, Any]) -> Dict[str, Any]:
        """The copy-named initial store the merged trace is checked
        against: one level-1 object per physical copy."""
        merged: Dict[str, Any] = {}
        for obj, value in initial.items():
            for site in self.sites_of(obj):
                merged[self.copy_name(obj, site)] = value
        return merged

    def describe(self) -> Dict[str, Any]:
        return {"shards": self.shards, "replicated": list(self.replicated)}
