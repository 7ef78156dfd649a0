"""Merging per-shard trace streams into one certified global trace.

Each shard runs branch transactions as shard-local *top-levels*; the
merger is where Theorem 29's projection becomes concrete: a branch
``U.<i>`` executed on site ``s`` for global transaction ``G`` is remapped
to the child ``G.<s>`` (every access keeps its deterministic label), its
object names become per-copy level-1 objects (``obj@s``), and the
coordinator's own create/commit/abort records for ``G`` wrap the
branches.  The result is an ordinary nested-transaction trace that the
:class:`~repro.checker.streaming.StreamingCertifier` consumes live and
the offline oracle re-checks at the end.

Two orderings make the merge sound:

* **per-site order** — shards publish records in publication order,
  one branch's records at a time when it commits or aborts, which
  inverts reserve order whenever branches overlap; a per-site
  :class:`~repro.checker.window.ReorderBuffer` restores local ``seq``
  order before records reach the merge.  A decision barrier on a site
  therefore also waits for the branches that began there before the
  awaited commit record was reserved to finish.
* **decision barriers** — a global commit/abort record is emitted only
  after every branch's lifecycle record has been delivered (the shard's
  commit/abort reply carries the record's local seq as a watermark), or
  the branch's site is dead and drained, in which case the missing
  records are *synthesized* from the coordinator's op log (the engine's
  deterministic access naming makes the reconstruction exact) — or the
  branch is in-doubt and the decision stays open until the site revives
  and reports which branch commits survived in its WAL.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..checker.history import check_trace_serializable
from ..checker.streaming import StreamingCertifier
from ..checker.window import ReorderBuffer
from ..core.naming import ActionName
from ..engine.trace import ABORT, COMMIT, CREATE, PERFORM, TraceRecord
from .routing import ClusterMap

BranchPath = Tuple[Any, ...]


@dataclass
class MergeReport:
    """The merged trace's verdicts."""

    streaming_ok: Optional[bool] = None
    oracle_ok: Optional[bool] = None
    violations: List[str] = field(default_factory=list)
    records: int = 0
    unresolved: int = 0
    synthesized: int = 0

    @property
    def ok(self) -> bool:
        return (
            self.streaming_ok is not False
            and self.oracle_ok is not False
            and self.unresolved == 0
        )

    def as_dict(self) -> Dict[str, Any]:
        row = dict(self.__dict__)
        row["ok"] = self.ok
        return row


class _Branch:
    """A shard branch, mapped into the merged trace at ``child`` — the
    path of ``G.<site>`` (records carry paths; the merger mints a name
    only for the global transaction the coordinator hands it)."""

    __slots__ = ("site", "epoch", "child", "delivered", "finished")

    def __init__(self, site: int, epoch: int, child: BranchPath) -> None:
        self.site = site
        self.epoch = epoch
        self.child = child
        self.delivered: set = set()
        self.finished = False


class _Stream:
    __slots__ = ("epoch", "buffer", "delivered_seq", "alive", "drained")

    def __init__(self, epoch: int) -> None:
        self.epoch = epoch
        self.buffer = ReorderBuffer(start=0)
        self.delivered_seq = -1
        self.alive = True
        self.drained = False


class _Wait:
    """One branch's barrier inside a decision."""

    __slots__ = ("branch", "watermark", "in_doubt", "performs", "done",
                 "resolved_commit")

    def __init__(
        self,
        branch: _Branch,
        watermark: Optional[int],
        in_doubt: bool,
        performs: Sequence[Dict[str, Any]],
    ) -> None:
        self.branch = branch
        self.watermark = watermark
        self.in_doubt = in_doubt
        self.performs = list(performs)
        self.done = False
        self.resolved_commit: Optional[bool] = None


class _Decision:
    __slots__ = ("gname", "kind", "waits", "emitted")

    def __init__(self, gname: ActionName, kind: Optional[str],
                 waits: List[_Wait]) -> None:
        self.gname = gname
        self.kind = kind
        self.waits = waits
        self.emitted = False


class TraceMerger:
    """Thread-safe merge of per-site record streams into one trace."""

    def __init__(self, initial_copies: Dict[str, Any]) -> None:
        self.initial = dict(initial_copies)
        self.certifier = StreamingCertifier(self.initial)
        self.records: List[TraceRecord] = []
        self.synthesized = 0
        self._seq = 0
        self._stamp = 0
        self._lock = threading.RLock()
        self._streams: Dict[int, _Stream] = {}
        self._branches: Dict[Tuple[int, BranchPath], _Branch] = {}
        self._held: Dict[Tuple[int, int, BranchPath], List[dict]] = {}
        self._decisions: List[_Decision] = []

    # -- site stream lifecycle ------------------------------------------------

    def register_site(self, site: int) -> int:
        with self._lock:
            stream = self._streams.get(site)
            epoch = stream.epoch + 1 if stream is not None else 0
            self._streams[site] = _Stream(epoch)
            return epoch

    def site_dead(self, site: int) -> None:
        """The site's stream ended: drain in-order remains (gaps are
        records reserved but never published by the killed process; the
        per-branch publication discipline makes skipping them safe) and
        release every barrier waiting on this incarnation."""
        with self._lock:
            stream = self._streams.get(site)
            if stream is None or not stream.alive:
                return
            stream.alive = False
            for data in stream.buffer.drain():
                self._deliver(site, stream, data["seq"], data)
            stream.drained = True
            # Held records from unregistered branches of this incarnation
            # can never emit now.
            for key in [k for k in self._held if k[0] == site
                        and k[1] == stream.epoch]:
                del self._held[key]
            self._pump_decisions()

    def push(self, site: int, data: Dict[str, Any]) -> None:
        """Feed one raw record dict pulled from ``site`` (any order; the
        per-site buffer restores local seq order)."""
        with self._lock:
            stream = self._streams[site]
            if not stream.alive:
                return
            for ready in stream.buffer.push(data["seq"], data):
                self._deliver(site, stream, ready["seq"], ready)
            self._pump_decisions()

    # -- global transaction lifecycle -----------------------------------------

    def begin_global(self, gname: ActionName) -> None:
        with self._lock:
            self._emit(TraceRecord(CREATE, gname, seq=self._next_seq()))

    def register_branch(
        self, site: int, path: Sequence[Any], gname: ActionName
    ) -> None:
        with self._lock:
            stream = self._streams[site]
            branch = _Branch(site, stream.epoch, gname.path + (site,))
            key = (site, tuple(path))
            self._branches[key] = branch
            held = self._held.pop((site, stream.epoch, tuple(path)), [])
            for data in held:
                self._emit_branch_record(branch, data)
            self._pump_decisions()

    def decide(
        self,
        gname: ActionName,
        kind: Optional[str],
        waits: Sequence[Sequence[Any]] = (),
        in_doubt: Sequence[
            Tuple[int, Sequence[Any], Sequence[Dict[str, Any]]]
        ] = (),
        synthesize: Sequence[
            Tuple[int, Sequence[Any], Sequence[Dict[str, Any]]]
        ] = (),
    ) -> None:
        """Queue the global decision for ``gname``.

        ``waits``: (site, branch path, watermark local-seq[, performs])
        for branches whose lifecycle record is (or will be) streamed
        normally — the optional performs make synthesis complete if the
        site dies between acking the commit and streaming its records.
        ``in_doubt``: branches on dead sites whose durable outcome is
        unknown until the site revives (carries the expected perform
        records for synthesis).  ``synthesize``: branches whose outcome
        *is* known but whose stream died (commit decided, records lost).
        ``kind=None`` marks a single-branch decision delegated to the
        shard — the branch's durable outcome IS the global outcome.
        """
        with self._lock:
            entries: List[_Wait] = []
            for entry in waits:
                site, path, watermark = entry[0], entry[1], entry[2]
                performs = entry[3] if len(entry) > 3 else ()
                branch = self._branches.get((site, tuple(path)))
                if branch is None:
                    continue
                entries.append(_Wait(branch, watermark, False, performs))
            for site, path, performs in in_doubt:
                branch = self._branches.get((site, tuple(path)))
                if branch is None:
                    continue
                entries.append(_Wait(branch, None, True, performs))
            for site, path, performs in synthesize:
                branch = self._branches.get((site, tuple(path)))
                if branch is None:
                    continue
                entries.append(_Wait(branch, None, False, performs))
            self._decisions.append(_Decision(gname, kind, entries))
            self._pump_decisions()

    def resolve_branch(
        self,
        gname: ActionName,
        site: int,
        path: Sequence[Any],
        committed: bool,
    ) -> None:
        """An in-doubt branch's durable outcome, learned at site revive."""
        with self._lock:
            for decision in self._decisions:
                if decision.gname != gname:
                    continue
                for wait in decision.waits:
                    if (wait.in_doubt and wait.branch.site == site
                            and wait.resolved_commit is None):
                        wait.resolved_commit = committed
                        if decision.kind is None:
                            decision.kind = "commit" if committed else "abort"
            self._pump_decisions()

    def pending_decisions(self) -> int:
        with self._lock:
            return sum(1 for d in self._decisions if not d.emitted)

    # -- verdicts -------------------------------------------------------------

    def finish(self, oracle: bool = True) -> MergeReport:
        with self._lock:
            report = MergeReport(records=len(self.records),
                                 synthesized=self.synthesized)
            report.unresolved = self.pending_decisions()
            if report.unresolved:
                report.violations.append(
                    "%d global decisions never resolved (site left dead?)"
                    % report.unresolved
                )
            streaming = self.certifier.finish()
            report.streaming_ok = bool(streaming.ok)
            report.violations.extend(str(v) for v in streaming.violations)
            if oracle:
                verdict = check_trace_serializable(
                    self.records, self.initial, strict=False
                )
                report.oracle_ok = bool(verdict.ok)
                if not verdict.ok and verdict.failure:
                    report.violations.append(str(verdict.failure))
            return report

    # -- internals ------------------------------------------------------------

    def _next_seq(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    def _emit(self, record: TraceRecord) -> None:
        self.records.append(record)
        self.certifier.feed(record)

    def _deliver(self, site: int, stream: _Stream, seq: int,
                 data: Dict[str, Any]) -> None:
        stream.delivered_seq = max(stream.delivered_seq, seq)
        key = (site, tuple(data["txn"]))
        branch = self._branches.get(key)
        if branch is None or branch.epoch != stream.epoch:
            self._held.setdefault(
                (site, stream.epoch, tuple(data["txn"])), []
            ).append(data)
            return
        self._emit_branch_record(branch, data)

    def _emit_branch_record(self, branch: _Branch, data: Dict[str, Any]) -> None:
        op = data["op"]
        if op == "create":
            branch.delivered.add(("create",))
            self._emit(TraceRecord(CREATE, branch.child,
                                   seq=self._next_seq()))
        elif op == "perform":
            label = data["access"][-1]
            branch.delivered.add(("perform", label))
            self._emit(TraceRecord(
                PERFORM,
                branch.child,
                branch.child + (label,),
                ClusterMap.copy_name(data["obj"], branch.site),
                data["kind"],
                data["seen"],
                data["arg"],
                self._next_seq(),
            ))
        elif op in ("commit", "abort"):
            branch.delivered.add((op,))
            branch.finished = True
            # Branch commit stamps are shard-local; as a child commit in
            # the merged trace the record carries no stamp.
            self._emit(TraceRecord(op, branch.child, seq=self._next_seq()))

    def _wait_satisfied(self, kind: Optional[str], wait: _Wait) -> bool:
        if wait.done:
            return True
        branch = wait.branch
        stream = self._streams.get(branch.site)
        current = (stream is not None and stream.alive
                   and stream.epoch == branch.epoch)
        if wait.in_doubt:
            if wait.resolved_commit is None:
                return False
            self._finish_branch(
                branch, wait.performs,
                commit=wait.resolved_commit,
            )
            wait.done = True
            return True
        if wait.watermark is not None and current:
            if stream.delivered_seq >= wait.watermark:
                wait.done = branch.finished
                return wait.done
            return False
        if current:
            # No watermark on a live incarnation: nothing to wait for
            # (the branch never reached the shard's lifecycle path).
            wait.done = True
            return True
        # The incarnation is gone; once drained, whatever was not
        # delivered must be synthesized (commit) or closed out (abort).
        if stream is not None and stream.epoch == branch.epoch \
                and not stream.drained:
            return False
        self._finish_branch(branch, wait.performs, commit=kind == "commit")
        wait.done = True
        return True

    def _finish_branch(
        self, branch: _Branch,
        performs: Sequence[Dict[str, Any]],
        commit: bool,
    ) -> None:
        """Synthesize the undelivered suffix of a branch's records."""
        if branch.finished:
            return
        if commit:
            if ("create",) not in branch.delivered:
                self.synthesized += 1
                self._emit(TraceRecord(CREATE, branch.child,
                                       seq=self._next_seq()))
            for perform in performs:
                if ("perform", perform["label"]) in branch.delivered:
                    continue
                self.synthesized += 1
                self._emit(TraceRecord(
                    PERFORM,
                    branch.child,
                    branch.child + (perform["label"],),
                    ClusterMap.copy_name(perform["obj"], branch.site),
                    perform["kind"],
                    perform.get("seen"),
                    perform.get("arg"),
                    self._next_seq(),
                ))
            self.synthesized += 1
            self._emit(TraceRecord(COMMIT, branch.child,
                                   seq=self._next_seq()))
        elif ("create",) in branch.delivered:
            # Aborted branch: close the protocol, skip lost performs
            # (an aborted access affects no replay).
            self.synthesized += 1
            self._emit(TraceRecord(ABORT, branch.child,
                                   seq=self._next_seq()))
        branch.finished = True

    def _pump_decisions(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            for decision in self._decisions:
                if decision.emitted:
                    continue
                if decision.kind is None:
                    # Still waiting for the delegated branch outcome.
                    if not any(w.in_doubt and w.resolved_commit is not None
                               for w in decision.waits):
                        continue
                if all(self._wait_satisfied(decision.kind, wait)
                       for wait in decision.waits):
                    decision.emitted = True
                    progressed = True
                    if decision.kind == "commit":
                        self._stamp += 1
                        self._emit(TraceRecord(
                            COMMIT, decision.gname,
                            arg=self._stamp, seq=self._next_seq(),
                        ))
                    else:
                        self._emit(TraceRecord(
                            ABORT, decision.gname, seq=self._next_seq(),
                        ))
