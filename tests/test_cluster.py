"""The sharded multi-process cluster: wire protocol, routing, trace
merging/synthesis, end-to-end certification, site kill/revive, and the
CLI's exit-code contract."""

from __future__ import annotations

import socket
import struct
import threading
import time

import pytest

from repro.cli import EXIT_OK, EXIT_USAGE, EXIT_VERDICT_FAIL
from repro.cluster import (
    Cluster,
    ClusterAborted,
    ClusterMap,
    ProtocolLog,
    SiteUnavailable,
    TraceMerger,
    WireClosed,
    recv_frame,
    run_cluster_scenario,
    send_frame,
)
from repro.cluster.wire import Channel, exchange, summary_for
from repro.core.naming import U
from repro.scenarios.chaos import SiteEvent, SiteSchedule


class TestWire:
    def test_frame_roundtrip(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"op": "hello", "values": [1, 2, 3]})
            assert recv_frame(b) == {"op": "hello", "values": [1, 2, 3]}
        finally:
            a.close()
            b.close()

    def test_closed_peer_raises(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with pytest.raises(WireClosed):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_frame_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", 1 << 31))
            with pytest.raises(WireClosed):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_protocol_log_counts(self):
        log = ProtocolLog(coordinator_node=4, keep=4)
        for i in range(5):
            log.log_exchange(i % 2, summary_for(U.child(1), "active"))
        counts = log.counts()
        assert counts["messages_sent"] == 5
        # Per-site accounting is complete: the sites' round trips add up
        # to every message the coordinator sent.
        assert log.site_exchanges() == {0: 3, 1: 2}
        assert sum(log.site_exchanges().values()) == counts["messages_sent"]
        assert counts["messages_received"] == 5
        assert counts["summary_entries"] == 10
        # The event list is capped; the counters are not.
        assert len(log.events) == 4
        assert summary_for(None, "active").contained_in(
            summary_for(U.child(1), "active")
        )

    @staticmethod
    def _channel_pair(listener):
        channel = Channel("127.0.0.1", listener.getsockname()[1])
        peer, _ = listener.accept()
        return channel, peer

    def test_exchange_sends_every_frame_before_reading(self):
        listener = socket.create_server(("127.0.0.1", 0))
        a, peer_a = self._channel_pair(listener)
        b, peer_b = self._channel_pair(listener)
        b_has_frame = threading.Event()

        def serve_a():
            recv_frame(peer_a)
            # A answers only once B holds its frame: a fan-out that read
            # A's reply before sending to B would stall here.
            send_frame(peer_a, {"ordered": b_has_frame.wait(timeout=5)})

        def serve_b():
            recv_frame(peer_b)
            b_has_frame.set()
            send_frame(peer_b, {"ok": True})

        servers = [threading.Thread(target=serve_a),
                   threading.Thread(target=serve_b)]
        try:
            for server in servers:
                server.start()
            replies = exchange([(a, {"op": "prepare"}),
                                (b, {"op": "prepare"})])
            assert replies == [{"ordered": True}, {"ok": True}]
        finally:
            for server in servers:
                server.join(timeout=10)
            for sock in (peer_a, peer_b, listener):
                sock.close()
            a.close()
            b.close()
        assert not any(server.is_alive() for server in servers)

    def test_exchange_drains_every_reply(self):
        """A dead peer costs only its own slot: the live channel's reply
        is read, so its next request gets its own answer."""
        listener = socket.create_server(("127.0.0.1", 0))
        live, live_peer = self._channel_pair(listener)
        dead, dead_peer = self._channel_pair(listener)
        try:
            dead_peer.close()
            send_frame(live_peer, {"ok": True, "n": 1})
            replies = exchange([(live, {"op": "prepare"}),
                                (dead, {"op": "prepare"})])
            assert recv_frame(live_peer) == {"op": "prepare"}
            assert replies[0] == {"ok": True, "n": 1}
            assert isinstance(replies[1], WireClosed)
            send_frame(live_peer, {"ok": True, "n": 2})
            assert live.request({"op": "commit"}) == {"ok": True, "n": 2}
        finally:
            for sock in (live_peer, dead_peer, listener):
                sock.close()
            live.close()
            dead.close()


class TestRouting:
    def test_home_is_deterministic_and_in_range(self):
        cmap = ClusterMap(4)
        for obj in ("bank:acct:17", "market:stock:3", "x"):
            assert cmap.home(obj) == cmap.home(obj)
            assert 0 <= cmap.home(obj) < 4

    def test_replicated_objects_live_everywhere(self):
        cmap = ClusterMap(3, replicated=("bank:",))
        assert cmap.sites_of("bank:fees") == (0, 1, 2)
        assert len(cmap.sites_of("acct:1")) == 1
        parts = cmap.partition({"bank:fees": 0, "acct:1": 5})
        assert all("bank:fees" in parts[s] for s in range(3))
        assert sum("acct:1" in parts[s] for s in range(3)) == 1

    def test_merged_initial_uses_copy_names(self):
        cmap = ClusterMap(2, replicated=("ledger",))
        merged = cmap.merged_initial({"ledger": 7, "a": 1})
        assert merged["ledger@0"] == 7 and merged["ledger@1"] == 7
        assert sum(1 for k in merged if k.startswith("a@")) == 1
        assert ClusterMap.copy_name("a", 1) == "a@1"


def _rec(op, txn, seq, access=None, obj=None, kind=None, seen=None, arg=None):
    return {"op": op, "txn": txn, "access": access, "obj": obj,
            "kind": kind, "seen": seen, "arg": arg, "seq": seq}


class TestTraceMerger:
    def test_out_of_order_stream_is_reordered(self):
        merger = TraceMerger({"x@0": 0})
        merger.register_site(0)
        g = U.child(0)
        merger.begin_global(g)
        merger.register_branch(0, [1], g)
        # Publication order inverted vs local seq order.
        merger.push(0, _rec("perform", [1], 1, access=[1, "w0"], obj="x",
                            kind="write", seen=0, arg=5))
        merger.push(0, _rec("create", [1], 0))
        merger.push(0, _rec("commit", [1], 2))
        merger.decide(g, "commit", waits=[(0, [1], 2)])
        report = merger.finish()
        assert report.ok and report.unresolved == 0
        assert [r.op for r in merger.records] == [
            "create", "create", "perform", "commit", "commit",
        ]

    def test_records_before_registration_are_held(self):
        """A branch is registered when its first op's reply arrives, and
        its records may be pulled before that: they wait, then merge."""
        merger = TraceMerger({"x@0": 0})
        merger.register_site(0)
        g = U.child(0)
        merger.begin_global(g)
        merger.push(0, _rec("create", [1], 0))
        merger.push(0, _rec("perform", [1], 1, access=[1, "w0"], obj="x",
                            kind="write", seen=0, arg=5))
        assert len(merger.records) == 1  # only G's create
        merger.register_branch(0, [1], g)
        merger.push(0, _rec("commit", [1], 2))
        merger.decide(g, "commit", waits=[(0, [1], 2)])
        report = merger.finish()
        assert report.ok and report.unresolved == 0
        assert [r.op for r in merger.records] == [
            "create", "create", "perform", "commit", "commit",
        ]

    def test_dead_site_commit_synthesized_from_performs(self):
        """Site killed after acking the commit but before streaming its
        records: the branch's suffix is synthesized from the op log."""
        merger = TraceMerger({"x@0": 0})
        merger.register_site(0)
        g = U.child(0)
        merger.begin_global(g)
        merger.register_branch(0, [1], g)
        merger.push(0, _rec("create", [1], 0))
        performs = [{"label": "w0", "obj": "x", "kind": "write",
                     "seen": 0, "arg": 9}]
        merger.decide(g, "commit", waits=[(0, [1], 2, performs)])
        assert merger.pending_decisions() == 1  # barrier holds while alive
        merger.site_dead(0)
        report = merger.finish()
        assert report.ok
        assert report.synthesized == 2  # the perform and the commit
        assert [r.op for r in merger.records] == [
            "create", "create", "perform", "commit", "commit",
        ]
        perform = merger.records[2]
        assert perform.obj == "x@0" and perform.arg == 9

    def test_in_doubt_resolves_on_revival(self):
        merger = TraceMerger({"x@0": 0})
        merger.register_site(0)
        g = U.child(0)
        merger.begin_global(g)
        merger.register_branch(0, [1], g)
        merger.push(0, _rec("create", [1], 0))
        performs = [{"label": "w0", "obj": "x", "kind": "write",
                     "seen": 0, "arg": 3}]
        merger.site_dead(0)
        merger.decide(g, None, in_doubt=[(0, [1], performs)])
        assert merger.pending_decisions() == 1
        merger.register_site(0)  # revival: new incarnation
        merger.resolve_branch(g, 0, [1], committed=True)
        report = merger.finish()
        assert report.ok and report.unresolved == 0
        assert merger.records[-1].op == "commit"
        assert merger.records[-1].txn == g.path

    def test_unresolved_decision_fails_the_merge(self):
        merger = TraceMerger({"x@0": 0})
        merger.register_site(0)
        g = U.child(0)
        merger.begin_global(g)
        merger.register_branch(0, [1], g)
        merger.site_dead(0)
        merger.decide(g, None, in_doubt=[(0, [1], [])])
        report = merger.finish()
        assert not report.ok and report.unresolved == 1


class TestSiteSchedule:
    def test_kill_revive_shape(self):
        schedule = SiteSchedule.kill_revive(site=1, kill_at=0.2,
                                            revive_at=0.7)
        actions = [(e.action, e.site, e.at) for e in schedule.events]
        assert actions == [("kill", 1, 0.2), ("revive", 1, 0.7)]

    def test_rolling_covers_each_site(self):
        schedule = SiteSchedule.rolling(3, width=0.1)
        kills = [e.site for e in schedule.events if e.action == "kill"]
        revives = [e.site for e in schedule.events if e.action == "revive"]
        assert kills == [0, 1, 2] and revives == [0, 1, 2]
        assert all(0 <= e.at <= 1 for e in schedule.events)

    def test_bad_events_rejected(self):
        with pytest.raises(ValueError):
            SiteEvent(at=1.5, action="kill", site=0)
        with pytest.raises(ValueError):
            SiteEvent(at=0.5, action="explode", site=0)


@pytest.mark.crash
class TestClusterEndToEnd:
    def test_two_shard_run_certifies(self):
        result = run_cluster_scenario(
            "bank", shards=2, programs=12, users=10, threads=4, seed=3,
            durability=False, certified=True,
        )
        assert result.committed == 12
        assert result.certified_streaming is True
        assert result.certified_oracle is True
        assert result.invariant_ok and result.ledger_ok
        assert result.replicas_coherent
        assert result.messages > 0
        assert result.ok

    def test_kill_and_revive_recovers(self):
        result = run_cluster_scenario(
            "bank", shards=2, programs=20, users=14, threads=4, seed=5,
            sites=SiteSchedule.kill_revive(site=1, kill_at=0.25,
                                           revive_at=0.55),
            durability=True, certified=True,
        )
        assert result.sites_killed == 1
        assert result.sites_revived >= 1
        assert result.certified_streaming is True
        assert result.certified_oracle is True
        assert result.merge.get("unresolved", 0) == 0
        assert result.invariant_ok and result.ledger_ok
        assert result.replicas_coherent
        assert result.committed > 0
        assert result.ok


def _homes(cluster):
    """Objects of each site, in name order."""
    homes = {}
    for obj in sorted(cluster.initial):
        homes.setdefault(cluster.map.home(obj), []).append(obj)
    return homes


@pytest.fixture
def fleet():
    cluster = Cluster(
        {"x%d" % i: 100 for i in range(32)}, shards=2, durability=False,
        certified=False, lock_timeout=0.3,
    )
    try:
        yield cluster
    finally:
        cluster.close()


class _Boom(Exception):
    pass


@pytest.mark.crash
class TestProtocolShape:
    """Round trips of the wire protocol: a branch begins with its
    transaction's first op on the site, and the 2PC rounds fan out."""

    def test_round_trips_per_transfer(self, fleet):
        homes = _homes(fleet)
        a, b = homes[0][:2]
        c = homes[1][0]

        def trips(body):
            before = sum(fleet.protocol.site_exchanges().values())
            fleet.run(body, max_retries=1)
            return sum(fleet.protocol.site_exchanges().values()) - before

        # Two ops + the delegated commit.
        assert trips(lambda t: (t.rmw(a, -1), t.rmw(b, 1))) == 3
        # Two ops + prepare and commit on each site.
        assert trips(lambda t: (t.rmw(a, -1), t.rmw(c, 1))) == 6
        assert fleet.protocol.site_exchanges() == {0: 6, 1: 3}

    def test_first_op_timeout_still_names_its_branch(self, fleet):
        a = _homes(fleet)[0][0]
        holder = fleet.begin()
        holder.rmw(a, -1)
        aborted_before = fleet.stats()["sites"][0]["aborted"]
        blocked = fleet.begin()
        with pytest.raises(ClusterAborted):
            blocked.rmw(a, 1)  # waits out the lock timeout
        # The timed-out reply named the branch it began, and the
        # coordinator aborted that branch on the shard.
        assert blocked.branches[0].path is not None
        assert blocked.finished
        assert fleet.stats()["sites"][0]["aborted"] == aborted_before + 1
        holder.commit()
        started = time.monotonic()
        fleet.run(lambda t: t.rmw(a, 1), max_retries=1)
        assert time.monotonic() - started < fleet.lock_timeout
        assert fleet.site_snapshot(0)[a] == 100

    def test_site_killed_before_commit_aborts_and_drains(self, fleet):
        homes = _homes(fleet)
        a, c = homes[0][0], homes[1][0]
        txn = fleet.begin()
        txn.rmw(a, -1)
        txn.rmw(c, 1)
        # Killed behind the coordinator's back: the prepare fan-out is
        # the first to find out.
        fleet.sites[1].proc.kill()
        fleet.sites[1].proc.wait()
        with pytest.raises(ClusterAborted):
            txn.commit()
        assert not fleet.sites[1].up
        # Same thread, same channel to site 0: had the fan-out left a
        # reply unread there, this transaction would read it as its own.
        fleet.run(lambda t: t.rmw(a, 5), max_retries=1)
        assert fleet.site_snapshot(0)[a] == 105

    def test_first_op_lost_with_its_site_aborts_the_commit(self, fleet):
        homes = _homes(fleet)
        a, c = homes[0][0], homes[1][0]
        fleet.run(lambda t: t.read(c), max_retries=1)  # opens the channel
        fleet.sites[1].proc.kill()
        fleet.sites[1].proc.wait()
        txn = fleet.begin()
        txn.rmw(a, -1)
        with pytest.raises(SiteUnavailable):
            txn.rmw(c, 1)  # begins nothing: no reply names a branch
        assert txn.branches[1].path is None
        with pytest.raises(ClusterAborted):
            txn.commit()
        assert fleet.site_snapshot(0)[a] == 100

    def test_body_exception_releases_branch_locks(self, fleet):
        a = _homes(fleet)[0][0]

        def raises(txn):
            txn.rmw(a, -1)
            raise _Boom()

        with pytest.raises(_Boom):
            fleet.run(raises)
        # The raising body's branch was aborted, so its lock is free.
        fleet.run(lambda t: t.rmw(a, 1), max_retries=3)
        assert fleet.site_snapshot(0)[a] == 101

        def commits_then_raises(txn):
            txn.rmw(a, 10)
            txn.commit()
            raise _Boom()

        # Aborting a finished transaction is a no-op.
        with pytest.raises(_Boom):
            fleet.run(commits_then_raises)
        assert fleet.site_snapshot(0)[a] == 111


class TestExitCodes:
    def test_convention_constants(self):
        assert (EXIT_OK, EXIT_VERDICT_FAIL, EXIT_USAGE) == (0, 1, 2)

    def test_usage_errors_exit_2(self, tmp_path):
        import importlib.util
        import os

        spec = importlib.util.spec_from_file_location(
            "run_cluster_cli",
            os.path.join(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__))), "scripts", "run_cluster.py"),
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        with pytest.raises(SystemExit) as excinfo:
            module.main(["--shards", "0"])
        assert excinfo.value.code == EXIT_USAGE
        with pytest.raises(SystemExit) as excinfo:
            module.main(["--shards", "2", "--kill-site", "7"])
        assert excinfo.value.code == EXIT_USAGE
        with pytest.raises(SystemExit) as excinfo:
            module.main(["--shards", "2", "--kill-site", "1",
                         "--no-durability"])
        assert excinfo.value.code == EXIT_USAGE
