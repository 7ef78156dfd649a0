"""Crash-restart harness: SIGKILL a worker mid-workload, recover, verify.

The harness runs a real OS-level crash experiment:

1. **Spawn** a worker *process* (``python -c``) that opens a durable
   engine over a shared directory and hammers it with nested increment
   transactions from several threads.  After each ``commit()`` returns —
   i.e. after the WAL batch is durable — the worker appends one ack line
   to ``acks.log`` and fsyncs it.  Every transaction also exercises the
   failure paths: an *aborted subtransaction* writes a poison value that
   must never survive, and a fraction of top-level transactions write
   poison and then abort outright.

2. **Kill** it with SIGKILL once enough acks are on disk — no atexit
   handlers, no flushing, a genuine torn WAL tail.

3. **Recover** by reopening a ``NestedTransactionDB`` over the directory
   and verify the paper-level durability contract:

   * every *acknowledged* commit survives (an ack is written only after
     the fsync, so ``recovered[obj] >= acked[obj]``);
   * at most one unacknowledged-but-durable commit per worker thread
     (killed between fsync and ack);
   * **no uncommitted write survives** — no poison value anywhere;
   * recovery is deterministic (two independent replays agree);
   * the recovered store is quiescent (every version stack collapsed to
     a U-owned base entry);
   * a fresh post-recovery workload on the recovered engine passes the
     serializability oracle (``check_engine``), certifying that recovery
     handed back a state the lock discipline can build on.

Used by ``tests/test_durability_crash.py`` and the CI smoke script
``scripts/crash_recovery_smoke.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

POISON = 10**9
ACK_FILE = "acks.log"

_WORKER_ENTRY = (
    "from repro.durability.crashtest import worker_main; worker_main()"
)


def _object_names(count: int) -> List[str]:
    return ["o%d" % i for i in range(count)]


# ---------------------------------------------------------------------------
# Worker side (runs in the doomed subprocess)
# ---------------------------------------------------------------------------


def worker_main(argv: Optional[List[str]] = None) -> None:
    """Entry point of the crash-target process.  Runs until killed."""
    from ..engine import EngineConfig, NestedTransactionDB, TransactionAborted
    from ..engine.errors import LockTimeout
    from .manager import DurabilityManager

    parser = argparse.ArgumentParser()
    parser.add_argument("--dir", required=True)
    parser.add_argument("--objects", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sync", default="commit")
    parser.add_argument("--threads", type=int, default=2)
    parser.add_argument("--checkpoint-interval", type=int, default=0)
    parser.add_argument("--abort-prob", type=float, default=0.2)
    args = parser.parse_args(argv)

    names = _object_names(args.objects)
    manager = DurabilityManager(
        args.dir,
        sync_policy=args.sync,
        group_window=0.001,
        checkpoint_interval=args.checkpoint_interval,
    )
    db = NestedTransactionDB({name: 0 for name in names}, config=EngineConfig(durability=manager, record_trace=False, lock_timeout=5.0))
    ack_lock = threading.Lock()
    ack_fh = open(os.path.join(args.dir, ACK_FILE), "a", encoding="utf-8")

    class _Rollback(Exception):
        """Marker for deliberate top-level aborts."""

    def run(thread_index: int) -> None:
        rng = random.Random(args.seed * 1000 + thread_index)
        while True:
            obj = names[rng.randrange(len(names))]
            other = names[rng.randrange(len(names))]
            rollback = rng.random() < args.abort_prob

            def body(t, obj=obj, other=other, rollback=rollback):
                # The real work, contained in a subtransaction.
                with t.subtransaction() as s:
                    s.write(obj, s.read_for_update(obj) + 1)
                # An aborted subtransaction's write must never be durable.
                child = t.begin_subtransaction()
                child.write(other, POISON)
                child.abort()
                if rollback:
                    # ...nor a top-level transaction that aborts outright.
                    t.write(other, POISON)
                    raise _Rollback()

            try:
                db.run_transaction(body)
            except _Rollback:
                continue
            except (TransactionAborted, LockTimeout):
                continue  # retries exhausted under heavy contention
            with ack_lock:
                ack_fh.write("%s\n" % obj)
                ack_fh.flush()
                os.fsync(ack_fh.fileno())

    workers = [
        threading.Thread(target=run, args=(i,), daemon=True)
        for i in range(args.threads)
    ]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()  # forever, until SIGKILL


def spawn_worker(
    directory: str,
    objects: int = 8,
    seed: int = 0,
    sync: str = "commit",
    threads: int = 2,
    checkpoint_interval: int = 0,
) -> "subprocess.Popen[bytes]":
    """Start the crash-target process (inherits this interpreter and an
    environment whose PYTHONPATH can import ``repro``)."""
    src_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root + os.pathsep + existing if existing else src_root
    )
    return subprocess.Popen(
        [
            sys.executable,
            "-c",
            _WORKER_ENTRY,
            "--dir",
            directory,
            "--objects",
            str(objects),
            "--seed",
            str(seed),
            "--sync",
            sync,
            "--threads",
            str(threads),
            "--checkpoint-interval",
            str(checkpoint_interval),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )


# ---------------------------------------------------------------------------
# Parent side (kill, recover, verify)
# ---------------------------------------------------------------------------


@dataclass
class CrashReport:
    """What one kill-and-recover scenario established."""

    ok: bool = True
    failures: List[str] = field(default_factory=list)
    acked_commits: int = 0
    recovered_total: int = 0
    durable_unacked: int = 0
    commits_replayed: int = 0
    records_discarded: int = 0
    checkpoint_seq: int = 0
    torn_tail: bool = False
    oracle_ok: bool = False
    post_workload_commits: int = 0
    #: Verdict of the live streaming certifier over the post-recovery
    #: trace (None when the scenario ran with ``certify=None``).
    streaming_ok: Optional[bool] = None
    sync: str = "commit"

    def fail(self, message: str) -> None:
        self.ok = False
        self.failures.append(message)

    def as_dict(self) -> Dict[str, object]:
        return dict(self.__dict__)


def _read_acks(directory: str) -> List[str]:
    path = os.path.join(directory, ACK_FILE)
    try:
        with open(path, encoding="utf-8") as fh:
            return [line.strip() for line in fh if line.strip()]
    except FileNotFoundError:
        return []


def run_crash_recovery_scenario(
    directory: str,
    objects: int = 8,
    seed: int = 0,
    sync: str = "commit",
    threads: int = 2,
    checkpoint_interval: int = 0,
    min_acks: int = 30,
    timeout: float = 60.0,
    post_workload: bool = True,
    certify: Optional[str] = None,
    trace_dump: Optional[str] = None,
) -> CrashReport:
    """The full scenario: spawn, SIGKILL mid-workload, recover, verify.

    Raises ``RuntimeError`` when the worker dies by itself or never
    reaches ``min_acks`` (harness problems, not durability verdicts);
    durability-contract violations land in ``CrashReport.failures``.

    ``certify="streaming"`` additionally subscribes the incremental
    certifier to the post-recovery engine's trace — its verdict lands in
    ``CrashReport.streaming_ok``.  ``trace_dump`` (a path) archives the
    post-recovery trace as JSONL, with the recovered initial values in a
    sibling ``<path>.initial.json`` — the pair ``scripts/certify_stream``
    re-certifies offline in CI.
    """
    from ..checker import check_engine
    from ..engine import EngineConfig, NestedTransactionDB
    from .manager import DurabilityManager
    from .recovery import RecoveryManager

    report = CrashReport(sync=sync)
    names = _object_names(objects)
    initial = {name: 0 for name in names}

    proc = spawn_worker(
        directory,
        objects=objects,
        seed=seed,
        sync=sync,
        threads=threads,
        checkpoint_interval=checkpoint_interval,
    )
    deadline = time.monotonic() + timeout
    try:
        while True:
            if proc.poll() is not None:
                stderr = (proc.stderr.read() if proc.stderr else b"").decode(
                    "utf-8", "replace"
                )
                raise RuntimeError(
                    "crash worker exited early (rc=%s): %s"
                    % (proc.returncode, stderr[-2000:])
                )
            if len(_read_acks(directory)) >= min_acks:
                break
            if time.monotonic() > deadline:
                raise RuntimeError(
                    "crash worker produced %d/%d acks before timeout"
                    % (len(_read_acks(directory)), min_acks)
                )
            time.sleep(0.005)
    finally:
        proc.kill()  # SIGKILL: no cleanup, no flush — a genuine crash
        proc.wait()
        if proc.stderr:
            proc.stderr.close()

    acks = _read_acks(directory)
    acked: Dict[str, int] = {name: 0 for name in names}
    for obj in acks:
        if obj in acked:
            acked[obj] += 1
    report.acked_commits = len(acks)

    # Determinism: two independent read-only replays must agree before
    # any append-side handle touches (truncates) the torn tail.
    first = RecoveryManager(directory).recover(initial)
    second = RecoveryManager(directory).recover(initial)
    if first.values != second.values:
        report.fail("recovery is not deterministic across replays")

    db = NestedTransactionDB(initial, config=EngineConfig(durability=DurabilityManager(directory, sync_policy=sync), record_trace=True, certify=certify))
    recovery = db.durability.last_recovery
    report.commits_replayed = recovery.commits_replayed
    report.records_discarded = recovery.records_discarded
    report.checkpoint_seq = recovery.checkpoint_seq
    report.torn_tail = recovery.torn_tail

    try:
        db.assert_quiescent()
    except AssertionError as error:
        report.fail("recovered store not quiescent: %s" % error)

    recovered = db.snapshot()
    if recovered != first.values:
        report.fail("engine recovery disagrees with standalone replay")

    for name in names:
        value = recovered[name]
        if not isinstance(value, int) or value < 0:
            report.fail("%s recovered to non-counter value %r" % (name, value))
        if value >= POISON:
            report.fail(
                "uncommitted (poison) write survived on %s: %r" % (name, value)
            )
        if value < acked[name]:
            report.fail(
                "lost committed transaction(s) on %s: acked=%d recovered=%r"
                % (name, acked[name], value)
            )
    report.recovered_total = sum(
        v for v in recovered.values() if isinstance(v, int) and v < POISON
    )
    report.durable_unacked = report.recovered_total - report.acked_commits
    if report.durable_unacked < 0:
        report.fail(
            "recovered fewer commits (%d) than were acknowledged (%d)"
            % (report.recovered_total, report.acked_commits)
        )
    # A thread killed between fsync and ack leaves at most one durable,
    # unacknowledged commit; anything beyond that is double-replay.
    if report.durable_unacked > threads:
        report.fail(
            "%d durable-but-unacked commits exceeds the %d-thread bound"
            % (report.durable_unacked, threads)
        )

    if post_workload:
        # Build on the recovered state, then certify with the oracle:
        # the trace replays from db.initial_values == recovered values.
        def increment(t, obj):
            with t.subtransaction() as s:
                s.write(obj, s.read_for_update(obj) + 1)

        rng = random.Random(seed + 12345)
        for _ in range(20):
            obj = names[rng.randrange(len(names))]
            db.run_transaction(lambda t, obj=obj: increment(t, obj))
            report.post_workload_commits += 1
        oracle = check_engine(db)
        report.oracle_ok = bool(oracle.ok)
        if not oracle.ok:
            report.fail(
                "post-recovery serializability oracle failed: %s"
                % oracle.failure
            )
        try:
            db.assert_quiescent()
        except AssertionError as error:
            report.fail("post-recovery run not quiescent: %s" % error)
    if db.certifier is not None:
        streaming = db.certifier.finish()
        report.streaming_ok = bool(streaming.ok)
        if not streaming.ok:
            report.fail(
                "streaming certifier flagged post-recovery trace: %s"
                % streaming.violations[0].message
            )
    if trace_dump is not None:
        db.trace.dump(trace_dump)
        with open(trace_dump + ".initial.json", "w", encoding="utf-8") as fh:
            json.dump(db.initial_values, fh, sort_keys=True)
    db.close()
    return report
