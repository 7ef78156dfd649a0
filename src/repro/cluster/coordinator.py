"""The cluster coordinator: global transactions, 2PC, site lifecycle.

A global transaction ``G`` opens one *branch* per participating shard (a
shard-local top-level transaction, remapped to the child ``G.<site>`` in
the merged trace) and commits with two-phase commit layered on the
paper's Send/Receive vocabulary: every frame the coordinator exchanges
with a shard is accounted as a Section 9 message event (see
:class:`~repro.cluster.wire.ProtocolLog`).  As in the paper's algebra,
creating a branch sends no message of its own: the shard begins it with
``G``'s first op there and names it in that op's reply.  Each 2PC round
(prepare, commit, abort) goes to every participant at once.

Failure model (available copies):

* A shard process can be SIGKILLed at any point.  Its locks die with
  it; nothing uncommitted survives (the engine is redo-only no-steal),
  and every committed branch is replayable from the shard's WAL.
* Replicated objects have one copy per site.  Writes go to every
  *available* copy; reads come from a *fresh* copy.  A site's copies
  become stale on failure; on revival the site first resolves in-doubt
  branches against its WAL, is then included in new writes, and only
  serves reads again after a resync transaction has copied every
  replicated object from a fresh replica (run through ordinary 2PC, so
  first-committer-wins falls out of strict two-phase locking).
* A shard that dies between the coordinator's commit decision and its
  ack leaves the branch *in doubt*: on revival the coordinator checks
  the WAL-recovered branch list — if the branch committed durably its
  missing trace records are synthesized exactly (deterministic access
  naming + the coordinator's op log); if it did not, the branch is
  closed as aborted and the decided global transaction's lost effects
  are re-applied to the revived site by a redo transaction.

Shards run with ``detect_deadlocks=False`` and a short lock timeout:
only a *waiting* branch can time out, so a prepared branch (which by
construction waits on nothing) can never be unilaterally aborted by its
shard — the stability 2PC requires of voted participants.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.action_tree import ABORTED, ACTIVE, COMMITTED
from ..core.naming import U, ActionName
from ..obs import MetricsRegistry
from .merge import TraceMerger
from .routing import ClusterMap
from .shard import read_port, spawn_shard
from .wire import Channel, ProtocolLog, WireClosed, exchange, summary_for


class ClusterError(Exception):
    """Base class for cluster-level failures."""


class ClusterAborted(ClusterError):
    """The global transaction aborted (lock timeout, branch conflict,
    or a participant failed before the decision).  Retryable."""


class SiteUnavailable(ClusterError):
    """An operation needed a site that is down (or a replicated object
    with no available copy).  Retryable once the site revives."""


class ClusterInDoubt(ClusterError):
    """A single-branch commit was delegated to a shard that died before
    acking: the outcome is unknown until the site revives.  The
    coordinator resolves it in :meth:`Cluster.revive_site` and records
    it in :attr:`Cluster.resolved_outcomes`."""

    def __init__(self, txn: str) -> None:
        super().__init__("in doubt: %s" % txn)
        self.txn = txn


class _InDoubt:
    __slots__ = ("gname", "path", "performs", "kind", "effects")

    def __init__(self, gname, path, performs, kind, effects):
        self.gname = gname
        self.path = path
        self.performs = performs
        self.kind = kind  # "commit" (decision made) or None (delegated)
        self.effects = effects


class _Site:
    __slots__ = (
        "index", "proc", "port", "epoch", "admin", "up",
        "write_included", "read_fresh", "init_file", "directory",
        "pump_thread",
    )

    def __init__(self, index: int, init_file: str,
                 directory: Optional[str]) -> None:
        self.index = index
        self.proc = None
        self.port = 0
        self.epoch = -1
        self.admin: Optional[Channel] = None
        self.up = False
        self.write_included = False
        self.read_fresh = False
        self.init_file = init_file
        self.directory = directory
        self.pump_thread: Optional[threading.Thread] = None


class Cluster:
    """A running shard fleet plus the coordinator state."""

    def __init__(
        self,
        initial: Dict[str, Any],
        shards: int = 4,
        replicated: Tuple[str, ...] = (),
        base_dir: Optional[str] = None,
        durability: bool = True,
        lock_timeout: float = 2.0,
        certified: bool = True,
        metrics: Optional[MetricsRegistry] = None,
        txn_channels: bool = False,
    ) -> None:
        self.map = ClusterMap(shards, replicated)
        self.initial = dict(initial)
        # Shard branch tables are connection-scoped, so a transaction is
        # only drivable over the connection that began its branches.
        # The default thread-local channels assume one thread runs a
        # whole transaction; drivers that multiplex transactions over a
        # worker pool (repro.serve) set ``txn_channels`` so each
        # GlobalTxn owns its connections and any worker can run any op.
        self.txn_channels = txn_channels
        self.lock_timeout = lock_timeout
        self.certified = certified
        self._owns_dir = base_dir is None
        self.base_dir = base_dir or tempfile.mkdtemp(prefix="cluster-")
        self.durability = durability
        self.merger = (
            TraceMerger(self.map.merged_initial(self.initial))
            if certified else None
        )
        self.protocol = ProtocolLog(coordinator_node=shards)
        self.metrics = metrics or MetricsRegistry()
        self._m_commits = self.metrics.counter("cluster_commits")
        self._m_aborts = self.metrics.counter("cluster_aborts")
        self._m_in_doubt = self.metrics.counter("cluster_in_doubt")
        self._m_kills = self.metrics.counter("cluster_site_kills")
        self._m_revives = self.metrics.counter("cluster_site_revives")
        self.resolved_outcomes: Dict[str, str] = {}
        self._in_doubt: Dict[int, List[_InDoubt]] = {}
        self._txn_counter = 0
        self._lock = threading.RLock()
        self._tls = threading.local()
        self._closing = False

        self.sites: List[_Site] = []
        per_site = self.map.partition(self.initial)
        for index in range(shards):
            site_dir = os.path.join(self.base_dir, "site%d" % index)
            os.makedirs(site_dir, exist_ok=True)
            init_file = os.path.join(site_dir, "init.json")
            with open(init_file, "w", encoding="utf-8") as fh:
                json.dump(per_site[index], fh)
            wal_dir = (
                os.path.join(site_dir, "wal") if durability else None
            )
            if wal_dir:
                os.makedirs(wal_dir, exist_ok=True)
            self.sites.append(_Site(index, init_file, wal_dir))
        for site in self.sites:
            self._spawn(site)
            site.write_included = True
            site.read_fresh = True

    # -- site lifecycle -------------------------------------------------------

    def _spawn(self, site: _Site) -> Dict[str, Any]:
        if self.merger is not None:
            site.epoch = self.merger.register_site(site.index)
        else:
            site.epoch += 1
        site.proc = spawn_shard(
            site.index,
            site.init_file,
            site.directory,
            lock_timeout=self.lock_timeout,
            record_trace=self.certified,
        )
        site.port = read_port(site.proc)
        site.admin = Channel("127.0.0.1", site.port)
        hello = site.admin.request({"op": "hello"})
        site.up = True
        if self.certified:
            site.pump_thread = threading.Thread(
                target=self._pump, args=(site, site.epoch), daemon=True
            )
            site.pump_thread.start()
        return hello

    def _pump(self, site: _Site, epoch: int) -> None:
        try:
            channel = Channel("127.0.0.1", site.port)
        except OSError:
            self._site_down(site, epoch)
            return
        cursor = 0
        try:
            while not self._closing and site.up and site.epoch == epoch:
                reply = channel.request(
                    {"op": "pull", "from": cursor, "wait_ms": 100}
                )
                for record in reply["records"]:
                    self.merger.push(site.index, record)
                cursor = reply["next"]
        except WireClosed:
            self._site_down(site, epoch)
        finally:
            channel.close()

    def _site_down(self, site: _Site, epoch: int) -> None:
        with self._lock:
            if self._closing or site.epoch != epoch or not site.up:
                return
            site.up = False
            site.write_included = False
            site.read_fresh = False
            if self.merger is not None:
                self.merger.site_dead(site.index)

    def kill_site(self, index: int) -> None:
        """SIGKILL a shard process mid-run (the per-site extension of the
        crash harness: same signal, same durability contract)."""
        site = self.sites[index]
        with self._lock:
            epoch = site.epoch
        if site.proc is not None:
            site.proc.kill()
            site.proc.wait()
        self._m_kills.inc()
        self._site_down(site, epoch)

    def revive_site(self, index: int) -> Dict[str, Any]:
        """Restart a dead shard and walk it back to full availability:
        WAL recovery, in-doubt resolution, redo, write inclusion, replica
        resync, read freshness."""
        site = self.sites[index]
        with self._lock:
            if site.up:
                return {"already_up": True}
            hello = self._spawn(site)
            recovered = {tuple(p) for p in hello.get("recovered_branches", [])}
            pending = self._in_doubt.pop(index, [])
            redo: List[List[Tuple[str, str, Any]]] = []
            for entry in pending:
                committed = tuple(entry.path) in recovered
                if self.merger is not None:
                    self.merger.resolve_branch(
                        entry.gname, index, entry.path, committed
                    )
                if entry.kind == "commit":
                    self.resolved_outcomes[str(entry.gname)] = "committed"
                    if not committed:
                        redo.append(entry.effects)
                else:
                    self.resolved_outcomes[str(entry.gname)] = (
                        "committed" if committed else "aborted"
                    )
                    if committed:
                        # Delegated single-branch commit that survived:
                        # nothing to redo, the shard state is the truth.
                        pass
        # Redo decided-commit effects that the dead shard lost, before
        # the site joins new writes (targeted ops bypass availability).
        for effects in redo:
            self._run_redo(index, effects)
        with self._lock:
            site.write_included = True
        self._resync(index)
        with self._lock:
            site.read_fresh = True
        self._m_revives.inc()
        return hello

    def _run_redo(self, index: int, effects: List[Tuple[str, str, Any]],
                  attempts: int = 10) -> None:
        for attempt in range(attempts):
            txn = self.begin()
            try:
                for op, obj, arg in effects:
                    if op == "write":
                        txn.write_at(index, obj, arg)
                    else:
                        txn.increment_at(index, obj, arg)
                txn.commit()
                return
            except ClusterAborted:
                time.sleep(0.01 * (attempt + 1))
            except ClusterError:
                txn.abort_quietly()
                raise
        raise ClusterError("redo transaction kept aborting on site %d" % index)

    def _resync(self, index: int, attempts: int = 10) -> None:
        """Copy every replicated object from a fresh replica onto the
        revived site, as one ordinary 2PC transaction per attempt."""
        objects = sorted(
            obj for obj in self.initial if self.map.is_replicated(obj)
        )
        if not objects:
            return
        for attempt in range(attempts):
            txn = self.begin()
            try:
                for obj in objects:
                    source = self._fresh_site(obj, exclude=index)
                    value = txn.read_at(source, obj, for_update=True)
                    txn.write_at(index, obj, value)
                txn.commit()
                return
            except ClusterAborted:
                time.sleep(0.01 * (attempt + 1))
            except ClusterError:
                txn.abort_quietly()
                raise
        raise ClusterError("resync kept aborting for site %d" % index)

    def _fresh_site(self, obj: str, exclude: Optional[int] = None) -> int:
        with self._lock:
            for s in self.map.sites_of(obj):
                site = self.sites[s]
                if s != exclude and site.up and site.read_fresh:
                    return s
        raise SiteUnavailable("no fresh copy of %r" % obj)

    # -- transactions ---------------------------------------------------------

    def begin(self) -> "GlobalTxn":
        with self._lock:
            name = U.child(self._txn_counter)
            self._txn_counter += 1
        if self.merger is not None:
            self.merger.begin_global(name)
        return GlobalTxn(self, name)

    def run(self, fn, max_retries: int = 25):
        """Run ``fn(txn)`` with commit, retrying retryable failures.  Any
        other exception aborts the transaction (releasing its branches'
        locks) and propagates."""
        for attempt in range(max_retries):
            txn = self.begin()
            try:
                result = fn(txn)
                txn.commit()
                return result
            except ClusterAborted:
                time.sleep(min(0.1, 0.002 * (attempt + 1) ** 2))
            except SiteUnavailable:
                txn.abort_quietly()
                time.sleep(min(0.5, 0.05 * (attempt + 1)))
            except BaseException:
                txn.abort_quietly()
                raise
        raise ClusterAborted("transaction kept aborting after %d attempts"
                             % max_retries)

    def _session(self, site: _Site) -> Channel:
        channels = getattr(self._tls, "channels", None)
        if channels is None:
            channels = self._tls.channels = {}
        entry = channels.get(site.index)
        if entry is not None and entry[0] == site.epoch:
            return entry[1]
        if entry is not None:
            entry[1].close()
        channel = Channel("127.0.0.1", site.port)
        channels[site.index] = (site.epoch, channel)
        return channel

    def _register_in_doubt(self, index: int, entry: _InDoubt) -> None:
        with self._lock:
            self._in_doubt.setdefault(index, []).append(entry)
        self._m_in_doubt.inc()

    # -- inspection -----------------------------------------------------------

    def site_snapshot(self, index: int) -> Dict[str, Any]:
        site = self.sites[index]
        if not site.up or site.admin is None:
            raise SiteUnavailable("site %d is down" % index)
        return site.admin.request({"op": "snapshot"})["values"]

    def logical_snapshot(self) -> Tuple[Dict[str, Any], bool, List[str]]:
        """One value per logical object from fresh copies, plus the
        replica-coherence verdict (all fresh copies of a replicated
        object must agree at quiescence)."""
        per_site: Dict[int, Dict[str, Any]] = {}
        with self._lock:
            fresh = [s.index for s in self.sites if s.up and s.read_fresh]
        for index in fresh:
            per_site[index] = self.site_snapshot(index)
        values: Dict[str, Any] = {}
        mismatches: List[str] = []
        for obj in self.initial:
            copies = {
                s: per_site[s][obj]
                for s in self.map.sites_of(obj)
                if s in per_site and obj in per_site[s]
            }
            if not copies:
                mismatches.append("no fresh copy of %r" % obj)
                continue
            chosen = copies[min(copies)]
            values[obj] = chosen
            if len(set(copies.values())) > 1:
                mismatches.append(
                    "replica mismatch on %r: %r" % (obj, copies)
                )
        return values, not mismatches, mismatches

    def stats(self) -> Dict[str, Any]:
        rows: Dict[str, Any] = {"sites": []}
        with self._lock:
            sites = list(self.sites)
        for site in sites:
            if site.up and site.admin is not None:
                try:
                    reply = site.admin.request({"op": "stats"})
                    rows["sites"].append(
                        {"site": site.index,
                         "committed": reply["committed"],
                         "aborted": reply["aborted"]}
                    )
                except WireClosed:
                    pass
        rows.update(self.protocol.counts())
        return rows

    def finish(self, oracle: bool = True):
        """Final verdicts over the merged trace (certified mode only)."""
        if self.merger is None:
            return None
        deadline = time.monotonic() + 10.0
        while (self.merger.pending_decisions()
               and time.monotonic() < deadline):
            time.sleep(0.02)
        return self.merger.finish(oracle=oracle)

    def close(self) -> None:
        self._closing = True
        for site in self.sites:
            if site.up and site.admin is not None:
                try:
                    site.admin.request({"op": "shutdown"})
                except WireClosed:
                    pass
            if site.admin is not None:
                site.admin.close()
            if site.proc is not None:
                try:
                    site.proc.kill()
                except OSError:
                    pass
                site.proc.wait()
                if site.proc.stdout is not None:
                    site.proc.stdout.close()
        if self._owns_dir:
            shutil.rmtree(self.base_dir, ignore_errors=True)


class _BranchState:
    __slots__ = ("site", "epoch", "path", "performs", "effects",
                 "counter", "dead", "watermark")

    def __init__(self, site: int, epoch: int) -> None:
        self.site = site
        self.epoch = epoch
        # The shard begins the branch with its first op and names it in
        # the reply; until then there is nothing on the site to address.
        self.path: Optional[Tuple[Any, ...]] = None
        self.performs: List[Dict[str, Any]] = []
        self.effects: List[Tuple[str, str, Any]] = []
        self.counter = 0
        self.dead = False  # engine aborted it (branch-level)
        self.watermark: Optional[int] = None


class GlobalTxn:
    """One global transaction: branch bookkeeping plus the client API."""

    def __init__(self, cluster: Cluster, name: ActionName) -> None:
        self.cluster = cluster
        self.name = name
        self.branches: Dict[int, _BranchState] = {}
        self.finished = False
        self._channels: Dict[int, Tuple[int, Channel]] = {}

    # -- plumbing -------------------------------------------------------------

    def _site(self, index: int) -> _Site:
        return self.cluster.sites[index]

    def _channel(self, site: _Site) -> Channel:
        """The connection this transaction's branches live on.

        Shard branch tables are per-connection, so in ``txn_channels``
        mode every GlobalTxn opens its own channel per touched site —
        then any worker thread can run any of its ops, and a dropped
        connection still aborts exactly this transaction's branches."""
        if not self.cluster.txn_channels:
            return self.cluster._session(site)
        entry = self._channels.get(site.index)
        if entry is not None and entry[0] == site.epoch:
            return entry[1]
        if entry is not None:
            entry[1].close()
        channel = Channel("127.0.0.1", site.port)
        self._channels[site.index] = (site.epoch, channel)
        return channel

    def _close_channels(self) -> None:
        for _epoch, channel in self._channels.values():
            channel.close()
        self._channels.clear()

    def _request(self, branch: _BranchState, payload: Dict[str, Any],
                 status: str = ACTIVE) -> Dict[str, Any]:
        """One round trip on ``branch``'s site; the first one begins the
        branch there (the frame names no branch, the reply does)."""
        site = self._site(branch.site)
        if not site.up or site.epoch != branch.epoch:
            raise SiteUnavailable("site %d is gone" % branch.site)
        if branch.path is not None:
            payload["branch"] = list(branch.path)
        try:
            reply = self._channel(site).request(payload)
        except WireClosed:
            self.cluster._site_down(site, branch.epoch)
            raise SiteUnavailable("site %d died mid-operation"
                                  % branch.site) from None
        self.cluster.protocol.log_exchange(
            branch.site, summary_for(self.name.child(branch.site), status)
        )
        if branch.path is None:
            branch.path = tuple(reply["branch"])
            if self.cluster.merger is not None:
                self.cluster.merger.register_branch(
                    branch.site, branch.path, self.name
                )
        return reply

    def _exchange(self, branches: List[_BranchState], op: str,
                  status: str) -> List[Optional[Dict[str, Any]]]:
        """Send ``op`` to every branch at once (see :func:`.wire.exchange`);
        one reply per branch, ``None`` where its site is gone."""
        cluster = self.cluster
        targets = []
        requests = []
        for branch in branches:
            site = self._site(branch.site)
            if site.up and site.epoch == branch.epoch:
                targets.append((branch, site))
                requests.append((self._channel(site),
                                 {"op": op, "branch": list(branch.path)}))
        replies: Dict[int, Dict[str, Any]] = {}
        for (branch, site), reply in zip(targets, exchange(requests)):
            if isinstance(reply, WireClosed):
                cluster._site_down(site, branch.epoch)
                continue
            cluster.protocol.log_exchange(
                branch.site, summary_for(self.name.child(branch.site), status)
            )
            replies[branch.site] = reply
        return [replies.get(branch.site) for branch in branches]

    def _branch(self, index: int) -> _BranchState:
        branch = self.branches.get(index)
        if branch is not None:
            if branch.dead:
                raise ClusterAborted("branch on site %d already aborted"
                                     % index)
            return branch
        site = self._site(index)
        if not site.up:
            raise SiteUnavailable("site %d is down" % index)
        branch = self.branches[index] = _BranchState(index, site.epoch)
        return branch

    def _check(self, branch: _BranchState, reply: Dict[str, Any]) -> Dict:
        if reply.get("ok"):
            return reply
        if reply.get("dead"):
            branch.dead = True
            branch.watermark = reply.get("watermark")
        if reply.get("retryable"):
            self.abort()
            raise ClusterAborted(reply.get("detail", reply.get("error", "")))
        self.abort()
        raise ClusterError(reply.get("detail", reply.get("error", "")))

    def _labels(self, branch: _BranchState, kinds: Sequence[str]) -> List[str]:
        labels = []
        for kind in kinds:
            labels.append("%s%d" % (kind[0], branch.counter))
            branch.counter += 1
        return labels

    # -- targeted primitives (explicit site; used by redo/resync too) --------

    def read_at(self, index: int, obj: str, for_update: bool = False) -> Any:
        branch = self._branch(index)
        reply = self._check(branch, self._request(
            branch, {"op": "read", "obj": obj, "for_update": for_update}
        ))
        (label,) = self._labels(branch, ["read"])
        branch.performs.append(
            {"label": label, "obj": obj, "kind": "read",
             "seen": reply["value"], "arg": None}
        )
        return reply["value"]

    def write_at(self, index: int, obj: str, value: Any) -> None:
        branch = self._branch(index)
        reply = self._check(branch, self._request(
            branch, {"op": "write", "obj": obj, "value": value}
        ))
        read_label, write_label = self._labels(branch, ["read", "write"])
        branch.performs.append(
            {"label": read_label, "obj": obj, "kind": "read",
             "seen": reply["seen"], "arg": None}
        )
        branch.performs.append(
            {"label": write_label, "obj": obj, "kind": "write",
             "seen": reply["seen"], "arg": value}
        )
        branch.effects.append(("write", obj, value))

    def increment_at(self, index: int, obj: str, delta: Any) -> None:
        branch = self._branch(index)
        self._check(branch, self._request(
            branch, {"op": "delta", "obj": obj, "delta": delta}
        ))
        (label,) = self._labels(branch, ["increment"])
        branch.performs.append(
            {"label": label, "obj": obj, "kind": "increment",
             "seen": None, "arg": delta}
        )
        branch.effects.append(("increment", obj, delta))

    def rmw_at(self, index: int, obj: str, delta: Any) -> Any:
        branch = self._branch(index)
        reply = self._check(branch, self._request(
            branch, {"op": "delta", "obj": obj, "delta": delta,
                     "applied": True}
        ))
        read_label, write_label = self._labels(branch, ["read", "write"])
        branch.performs.append(
            {"label": read_label, "obj": obj, "kind": "read",
             "seen": reply["seen"], "arg": None}
        )
        branch.performs.append(
            {"label": write_label, "obj": obj, "kind": "write",
             "seen": reply["seen"], "arg": reply["value"]}
        )
        branch.effects.append(("write", obj, reply["value"]))
        return reply["value"]

    # -- routed client API ----------------------------------------------------

    def _read_site(self, obj: str) -> int:
        return self.cluster._fresh_site(obj)

    def _write_sites(self, obj: str) -> List[int]:
        cluster = self.cluster
        with cluster._lock:
            targets = [
                s for s in cluster.map.sites_of(obj)
                if cluster.sites[s].up and cluster.sites[s].write_included
            ]
        if not targets:
            raise SiteUnavailable("no available copy of %r" % obj)
        return targets

    def read(self, obj: str, for_update: bool = False) -> Any:
        return self.read_at(self._read_site(obj), obj, for_update=for_update)

    def write(self, obj: str, value: Any) -> None:
        for index in self._write_sites(obj):
            self.write_at(index, obj, value)

    def increment(self, obj: str, delta: Any = 1) -> None:
        for index in self._write_sites(obj):
            self.increment_at(index, obj, delta)

    def rmw(self, obj: str, delta: Any) -> Any:
        if self.cluster.map.is_replicated(obj):
            # Lock the fresh primary first (serializes concurrent rmws),
            # then install the absolute result on every available copy.
            value = self.read(obj, for_update=True) + delta
            self.write(obj, value)
            return value
        return self.rmw_at(self.cluster.map.home(obj), obj, delta)

    # -- lifecycle ------------------------------------------------------------

    def _decide_waits(self):
        return [
            (branch.site, branch.path, branch.watermark, branch.performs)
            for branch in self.branches.values() if branch.path is not None
        ]

    def commit(self) -> None:
        try:
            self._commit()
        finally:
            if self.finished:
                self._close_channels()

    def _commit(self) -> None:
        if self.finished:
            raise ClusterError("transaction already finished")
        cluster = self.cluster
        merger = cluster.merger
        unbegun = [b.site for b in self.branches.values() if b.path is None]
        if unbegun:
            # A first op whose reply never came: that site may have lost
            # an op of this transaction, so it must not commit.
            self.abort()
            raise ClusterAborted("site %d died under the transaction's "
                                 "first op there" % unbegun[0])
        live = [b for b in self.branches.values() if not b.dead]
        if not live:
            self.finished = True
            if merger is not None:
                merger.decide(self.name, "commit",
                              waits=self._decide_waits())
            cluster._m_commits.inc()
            return

        if len(live) == 1 and len(self.branches) == 1:
            branch = live[0]
            try:
                reply = self._request(
                    branch, {"op": "commit"}, status=COMMITTED
                )
            except SiteUnavailable:
                # Delegated commit, shard dead before acking: in doubt.
                self.finished = True
                cluster._register_in_doubt(branch.site, _InDoubt(
                    self.name, branch.path, branch.performs, None,
                    branch.effects,
                ))
                if merger is not None:
                    merger.decide(
                        self.name, None,
                        in_doubt=[(branch.site, branch.path,
                                   branch.performs)],
                    )
                raise ClusterInDoubt(str(self.name)) from None
            self.finished = True
            if not reply.get("ok"):
                if merger is not None:
                    merger.decide(self.name, "abort",
                                  waits=self._decide_waits())
                cluster._m_aborts.inc()
                raise ClusterAborted(reply.get("detail", "commit refused"))
            branch.watermark = reply.get("watermark")
            if merger is not None:
                merger.decide(self.name, "commit",
                              waits=self._decide_waits())
            cluster._m_commits.inc()
            return

        # Phase 1: every branch must vote yes while still holding locks.
        # Each round goes to every participant at once.
        live.sort(key=lambda b: b.site)
        for branch, reply in zip(live, self._exchange(live, "prepare",
                                                      ACTIVE)):
            if reply is None:
                self.abort()
                raise ClusterAborted(
                    "site %d died before voting" % branch.site
                )
            if not (reply.get("ok") and reply.get("vote")):
                self.abort()
                raise ClusterAborted(
                    "branch on site %d voted no" % branch.site
                )

        # Decision: commit.  From here the global outcome is fixed;
        # participant failures become in-doubt branches, not aborts.
        waits = []
        in_doubt = []
        for branch, reply in zip(live, self._exchange(live, "commit",
                                                      COMMITTED)):
            if reply is None:
                cluster._register_in_doubt(branch.site, _InDoubt(
                    self.name, branch.path, branch.performs, "commit",
                    branch.effects,
                ))
                in_doubt.append(
                    (branch.site, branch.path, branch.performs)
                )
                continue
            if not reply.get("ok"):
                raise ClusterError(
                    "prepared branch on site %d failed to commit: %r"
                    % (branch.site, reply)
                )
            waits.append((branch.site, branch.path, reply.get("watermark"),
                          branch.performs))
        self.finished = True
        if merger is not None:
            merger.decide(self.name, "commit", waits=waits,
                          in_doubt=in_doubt)
        cluster._m_commits.inc()

    def abort(self) -> None:
        if self.finished:
            return
        self.finished = True
        cluster = self.cluster
        targets = sorted(
            (b for b in self.branches.values()
             if not b.dead and b.path is not None),
            key=lambda b: b.site,
        )
        for branch, reply in zip(targets, self._exchange(targets, "abort",
                                                         ABORTED)):
            if reply is not None and reply.get("ok"):
                branch.watermark = reply.get("watermark")
        self._close_channels()
        if cluster.merger is not None:
            cluster.merger.decide(self.name, "abort",
                                  waits=self._decide_waits())
        cluster._m_aborts.inc()

    def abort_quietly(self) -> None:
        try:
            self.abort()
        except ClusterError:
            pass
