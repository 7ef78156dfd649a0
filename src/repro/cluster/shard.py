"""The shard server: one OS process running the engine stack.

``shard_main`` is the process entry point (spawned with ``python -c``,
the same pattern as :mod:`repro.durability.crashtest`).  It builds a
:class:`~repro.engine.NestedTransactionDB` over the
site's slice of the initial store — with its own per-segment WAL when
durability is on, so a revived site recovers its committed state through
:class:`~repro.durability.recovery.RecoveryManager` before serving — and
then speaks the length-prefixed frame protocol of :mod:`.wire`:

* **session ops** (``read``/``write``/``delta``/``prepare``/``commit``/
  ``abort``) run shard-local *branch* transactions.  A branch is a shard
  top-level held open (locks held = prepared) until the coordinator's
  2PC decision arrives.  There is no ``begin`` op: a frame that names no
  ``branch`` begins one, runs its op in it, and the reply names it.
* **admin ops** (``hello``/``pull``/``snapshot``/``stats``/
  ``shutdown``).  ``hello`` reports the branch transactions whose
  commits survived in the WAL — the coordinator resolves in-doubt 2PC
  decisions against exactly that list.  ``pull`` long-polls the trace
  outbox: every published trace record, in publication order (a branch's
  records arrive together when it commits or aborts), as JSON.

A ``write`` op is ``read_for_update`` + ``write`` so the reply can carry
the overwritten value; together with the engine's deterministic access
labels (``Transaction.next_access_label``) this lets the coordinator
synthesize the exact trace records of a branch whose stream was cut off
by SIGKILL.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
from typing import Any, Dict, List, Optional

from ..core.naming import ActionName
from ..durability import DurabilityManager
from ..durability.wal import replay_commits
from ..engine import EngineConfig, NestedTransactionDB
from ..engine.errors import (
    EngineError,
    LockTimeout,
    TransactionAborted,
    UnknownObject,
)
from ..engine.trace import _record_to_json
from .wire import recv_frame, send_frame

_SHARD_ENTRY = "from repro.cluster.shard import shard_main; shard_main()"

#: How long ``pull`` blocks waiting for new trace records by default.
PULL_WAIT_MS = 100
PULL_BATCH = 500


class _Outbox:
    """Publication-ordered trace record buffer behind a condition."""

    def __init__(self) -> None:
        self._records: List[Dict[str, Any]] = []
        self._cond = threading.Condition()

    def __call__(self, record: Any) -> None:  # trace listener
        data = _record_to_json(record)
        with self._cond:
            self._records.append(data)
            self._cond.notify_all()

    def slice_from(self, start: int, wait_ms: int) -> List[Dict[str, Any]]:
        with self._cond:
            if len(self._records) <= start and wait_ms > 0:
                self._cond.wait(timeout=wait_ms / 1000.0)
            return self._records[start:start + PULL_BATCH]

    def watermark_for(self, branch_path: tuple, timeout: float = 5.0) -> int:
        """The local trace seq of ``branch``'s commit/abort record.

        A branch is a shard top-level, so the engine publishes its rows
        — the lifecycle record last — in one delivery on the committing
        (or aborting) thread before ``commit()``/``abort()`` returns: by
        the time a session handler asks, the record is already here (the
        wait is a belt-and-braces bound, not an expected path).  Rows of
        a branch still live on this site are not here yet; the merger's
        per-site reorder buffer holds what follows them until they come."""
        path = list(branch_path)
        with self._cond:
            end = 0.0
            while True:
                for data in reversed(self._records):
                    if data["op"] in ("commit", "abort") and data["txn"] == path:
                        return data["seq"]
                if end >= timeout:
                    raise RuntimeError(
                        "no lifecycle record for branch %r" % (branch_path,)
                    )
                self._cond.wait(timeout=0.25)
                end += 0.25


class ShardServer:
    def __init__(
        self,
        shard: int,
        initial: Dict[str, Any],
        directory: Optional[str],
        lock_timeout: float,
        record_trace: bool,
    ) -> None:
        self.shard = shard
        self.directory = directory
        durability = (
            DurabilityManager(directory, sync_policy="commit")
            if directory
            else None
        )
        self.db = NestedTransactionDB(
            initial,
            config=EngineConfig(
                record_trace=record_trace,
                lock_timeout=lock_timeout,
                durability=durability,
                # 2PC participant stability: with the detector off, only a
                # *waiting* branch can be aborted under it (lock timeout),
                # and a prepared branch never waits — so no shard can
                # unilaterally abort a branch that already voted yes.
                # Cross-shard deadlocks resolve by timeout instead.
                detect_deadlocks=False,
            ),
        )
        self.outbox = _Outbox()
        if record_trace:
            self.db.trace.add_listener(self.outbox)
        self.recovered_branches: List[List[Any]] = []
        self.commits_replayed = 0
        if directory:
            commits, _stats = replay_commits(directory)
            self.commits_replayed = len(commits)
            self.recovered_branches = [list(c.txn.path) for c in commits]
        self._stop = threading.Event()
        self._listener: Optional[socket.socket] = None

    # -- session op handlers --------------------------------------------------

    def _handle_session(self, message: Dict[str, Any], branches: Dict) -> Dict:
        path = message.get("branch")
        if path is not None:
            branch = tuple(path)
            txn = branches.get(branch)
            if txn is None:
                return {
                    "ok": False, "error": "unknown-branch", "retryable": False,
                }
            return self._run_op(message, branch, txn, branches)
        # Implicit begin: a transaction's first frame to this site names
        # no branch.  Every reply to it names the branch it began, failed
        # ones too, so the coordinator can still abort it.
        txn = self.db.begin_transaction()
        branch = txn.key
        branches[branch] = txn
        reply = self._run_op(message, branch, txn, branches)
        reply["branch"] = list(branch)
        return reply

    def _run_op(self, message: Dict[str, Any], branch: tuple, txn: Any,
                branches: Dict) -> Dict:
        op = message["op"]
        try:
            if op == "read":
                if message.get("for_update"):
                    value = txn.read_for_update(message["obj"])
                else:
                    value = txn.read(message["obj"])
                return {"ok": True, "value": value}
            if op == "write":
                seen = txn.read_for_update(message["obj"])
                txn.write(message["obj"], message["value"])
                return {"ok": True, "seen": seen}
            if op == "delta":
                # Shard-side rmw when "applied" is true, blind commutative
                # increment otherwise (the engine's INCREMENT lock mode).
                if message.get("applied"):
                    seen = txn.read_for_update(message["obj"])
                    value = seen + message["delta"]
                    txn.write(message["obj"], value)
                    return {"ok": True, "seen": seen, "value": value}
                txn.increment(message["obj"], message["delta"])
                return {"ok": True}
            if op == "prepare":
                return {"ok": True, "vote": bool(txn.is_live)}
            if op == "commit":
                txn.commit()
                branches.pop(branch, None)
                return {"ok": True, "watermark": self._watermark(branch)}
            if op == "abort":
                if txn.is_live:
                    txn.abort()
                branches.pop(branch, None)
                return {"ok": True, "watermark": self._watermark(branch)}
        except TransactionAborted as error:
            branches.pop(branch, None)
            return {
                "ok": False, "error": "aborted", "retryable": True,
                "dead": True, "detail": str(error),
            }
        except LockTimeout as error:
            # The transaction is still live; the coordinator aborts the
            # whole global transaction and retries it.
            return {
                "ok": False, "error": "timeout", "retryable": True,
                "detail": str(error),
            }
        except UnknownObject as error:
            return {
                "ok": False, "error": "unknown-object", "retryable": False,
                "detail": str(error),
            }
        except EngineError as error:
            return {
                "ok": False, "error": "engine", "retryable": False,
                "detail": str(error),
            }
        return {"ok": False, "error": "bad-op", "retryable": False}

    def _watermark(self, branch: tuple) -> Optional[int]:
        if self.db.trace is None:
            return None
        return self.outbox.watermark_for(branch)

    # -- admin op handlers ----------------------------------------------------

    def _handle_admin(self, message: Dict[str, Any]) -> Dict[str, Any]:
        op = message["op"]
        if op == "hello":
            return {
                "ok": True,
                "shard": self.shard,
                "recovered_branches": self.recovered_branches,
                "commits_replayed": self.commits_replayed,
                "objects": len(self.db.initial_values),
            }
        if op == "pull":
            records = self.outbox.slice_from(
                message.get("from", 0),
                message.get("wait_ms", PULL_WAIT_MS),
            )
            return {
                "ok": True,
                "records": records,
                "next": message.get("from", 0) + len(records),
            }
        if op == "snapshot":
            return {"ok": True, "values": self.db.snapshot()}
        if op == "stats":
            return {
                "ok": True,
                "committed": self.db.stats.committed,
                "aborted": self.db.stats.aborted,
            }
        if op == "shutdown":
            self._stop.set()
            return {"ok": True}
        return {"ok": False, "error": "bad-op", "retryable": False}

    # -- connection plumbing --------------------------------------------------

    def _serve_connection(self, conn: socket.socket) -> None:
        branches: Dict[tuple, Any] = {}
        try:
            while not self._stop.is_set():
                try:
                    message = recv_frame(conn)
                except (ConnectionError, OSError, ValueError):
                    break
                if message["op"] in (
                    "read", "write", "delta", "prepare", "commit", "abort",
                ):
                    reply = self._handle_session(message, branches)
                else:
                    reply = self._handle_admin(message)
                try:
                    send_frame(conn, reply)
                except (ConnectionError, OSError):
                    break
                if message["op"] == "shutdown":
                    break
        finally:
            # A vanished coordinator connection aborts its live branches
            # so their locks cannot outlive the session that owned them.
            for txn in branches.values():
                try:
                    if txn.is_live:
                        txn.abort()
                except EngineError:
                    pass
            try:
                conn.close()
            except OSError:
                pass
            if self._stop.is_set() and self._listener is not None:
                try:
                    self._listener.close()
                except OSError:
                    pass

    def serve_forever(self) -> None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(64)
        self._listener = listener
        # The parent reads this line to learn where to connect.
        print("PORT %d" % listener.getsockname()[1], flush=True)
        try:
            while not self._stop.is_set():
                try:
                    conn, _addr = listener.accept()
                except OSError:
                    break
                thread = threading.Thread(
                    target=self._serve_connection, args=(conn,), daemon=True
                )
                thread.start()
        finally:
            try:
                listener.close()
            except OSError:
                pass
            self.db.close()


def shard_main(argv: Optional[List[str]] = None) -> None:
    """Process entry point: ``python -c`` + args (see ``spawn_shard``)."""
    args = list(sys.argv[1:] if argv is None else argv)
    options: Dict[str, str] = {}
    while args:
        key = args.pop(0)
        options[key.lstrip("-")] = args.pop(0)
    with open(options["init"], "r", encoding="utf-8") as fh:
        initial = json.load(fh)
    server = ShardServer(
        shard=int(options["shard"]),
        initial=initial,
        directory=options.get("dir") or None,
        lock_timeout=float(options.get("lock-timeout", "2.0")),
        record_trace=options.get("trace", "1") == "1",
    )
    server.serve_forever()


def spawn_shard(
    shard: int,
    init_file: str,
    directory: Optional[str],
    lock_timeout: float = 2.0,
    record_trace: bool = True,
) -> "subprocess.Popen[bytes]":
    """Spawn a shard process (same pattern as the crash harness: ``-c``
    entry plus a PYTHONPATH environment that can import ``repro``)."""
    src_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root + os.pathsep + existing if existing else src_root
    )
    args = [
        sys.executable, "-c", _SHARD_ENTRY,
        "--shard", str(shard),
        "--init", init_file,
        "--lock-timeout", repr(lock_timeout),
        "--trace", "1" if record_trace else "0",
    ]
    if directory:
        args.extend(["--dir", directory])
    return subprocess.Popen(args, env=env, stdout=subprocess.PIPE)


def read_port(proc: "subprocess.Popen[bytes]") -> int:
    """Block until the shard announces its listening port on stdout."""
    assert proc.stdout is not None
    while True:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(
                "shard process exited before announcing a port "
                "(rc=%s)" % proc.poll()
            )
        if line.startswith(b"PORT "):
            return int(line.split()[1])


def branch_name(path: List[Any]) -> ActionName:
    return ActionName(tuple(path))
