"""Kill-and-recover harness: SIGKILL a worker mid-workload, recover, judge.

One harness serves every crash workload: ``"counters"`` (nested
increments with always-aborting poison writes) and each scenario of
:mod:`repro.scenarios` (bank / marketplace / social).

1. **Spawn** a worker *process* (``python -c``) that opens a durable
   engine over a shared directory and runs the workload's ``Program``
   trees from several threads, each inside ``db.run_transaction``
   through the executor's block interpreter.  After a program's
   ``commit()`` returns — i.e. after its WAL batch is durable — the
   worker appends the program's label to ``acks.log`` and fsyncs it.

2. **Kill** it with SIGKILL once enough acks are on disk — no atexit
   handlers, no flushing, a genuine torn WAL tail.

3. **Recover** by replaying the directory twice standalone and once by
   reopening a ``NestedTransactionDB``, then **judge**:

   * recovery is deterministic (the two replays agree), the engine
     recovers exactly the standalone replay, and the recovered store is
     quiescent;
   * every *acknowledged* program survived and at most one unacked
     durable program per worker thread did, measured on the workload's
     *progress objects* (those its programs only ever raise) against the
     acked programs' own ops;
   * the workload's invariant holds: for counters no poison value
     (an aborted action's write) and only non-negative ints, for a
     scenario its conservation law;
   * a post-recovery slice of the same programs commits on the
     recovered engine, keeps the invariant and quiescence, and passes
     the serializability oracle (``check_engine``) and, when asked, the
     streaming certifier.

Used by ``tests/test_durability_crash.py``, ``tests/test_crash_judge.py``,
``tests/test_scenarios.py``, ``scripts/crash_recovery_smoke.py`` and
``scripts/run_scenarios.py``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from ..workload.shapes import Block, Op, Program

POISON = 10**9
ACK_FILE = "acks.log"
COUNTERS = "counters"
#: Share of counter programs that write poison at the root and abort.
ROLLBACK_SHARE = 0.2

_WORKER_ENTRY = (
    "from repro.durability.crashtest import worker_main; worker_main()"
)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class CrashWorkload:
    """The programs a crash worker cycles through, and how to judge them."""

    name: str
    #: Writable programs only; worker thread ``i`` runs ``i, i+threads, ...``.
    programs: List[Program]
    initial: Dict[str, int]
    #: ``invariant(snapshot) -> None | str`` (a violation message).
    invariant: Callable[[Dict[str, int]], Optional[str]]
    #: True: every failure point fires on every attempt (counters);
    #: False: none ever fires (scenarios).
    failure_points_fire: bool = False

    def fires(self, block: Block) -> bool:
        """The executor's firing protocol, so the workload is its own
        firing (an executor ``Firing`` fires a block once, and a retried
        program would then commit its poison write)."""
        return self.failure_points_fire and block.failure_point

    def applied_ops(self, block: Block) -> Iterator[Op]:
        """The ops a commit of ``block`` leaves applied: none under a
        block whose failure point fires."""
        if self.fires(block):
            return
        for child in block.children:
            if isinstance(child, Op):
                yield child
            else:
                yield from self.applied_ops(child)

    def committable(self) -> List[Program]:
        return [p for p in self.programs if not self.fires(p.root)]


def _counter_invariant(snapshot: Dict[str, int]) -> Optional[str]:
    for name, value in sorted(snapshot.items()):
        if not isinstance(value, int) or value < 0:
            return "%s holds non-counter value %r" % (name, value)
        if value >= POISON:
            return "uncommitted (poison) write survived on %s: %r" % (name, value)
    return None


def build_workload(
    workload: str,
    objects: int = 8,
    programs: int = 40,
    users: int = 50_000,
    seed: int = 0,
) -> CrashWorkload:
    """Compile ``"counters"`` or a scenario name to its crash workload.

    A counter program is ``root[child[rmw o +1], child[write o' POISON]]``
    whose second child always fails; a rollback program also ends the
    root with ``write o' POISON`` and fails at the root.  Scenario
    programs never fail, so a committed one is fully applied.
    """
    if workload != COUNTERS:
        # Lazy, like the engine imports: importing the harness loads no
        # scenario code.
        from ..scenarios.apps import build_scenario

        run = build_scenario(workload, programs=programs, users=users, seed=seed)
        writable = [p for p in run.programs if not p.read_only]
        return CrashWorkload(workload, writable, run.initial, run.invariant)
    names = ["o%d" % i for i in range(objects)]
    rng = random.Random(seed)
    plans: List[Program] = []
    for index in range(programs):
        obj, other = rng.choice(names), rng.choice(names)
        rollback = rng.random() < ROLLBACK_SHARE
        root = Block(
            [
                Block([Op("rmw", obj, 1)]),
                Block([Op("write", other, POISON)], failure_point=True),
            ]
            + ([Op("write", other, POISON)] if rollback else []),
            failure_point=rollback,
        )
        plans.append(Program(root, "counter#%d" % index))
    return CrashWorkload(
        COUNTERS, plans, {name: 0 for name in names}, _counter_invariant, True
    )


# ---------------------------------------------------------------------------
# Worker side (runs in the doomed subprocess)
# ---------------------------------------------------------------------------


def worker_main(argv: Optional[List[str]] = None) -> None:
    """Entry point of the crash-target process.  Runs until killed."""
    from ..engine import (
        EngineConfig,
        NestedTransactionDB,
        RetryPolicy,
        TransactionAborted,
    )
    from ..engine.errors import LockTimeout
    from ..engine.recovery import InjectedFailure
    from ..workload.executor import run_block
    from .manager import DurabilityManager

    parser = argparse.ArgumentParser()
    parser.add_argument("--dir", required=True)
    parser.add_argument("--workload", default=COUNTERS)
    parser.add_argument("--objects", type=int, default=8)
    parser.add_argument("--programs", type=int, default=40)
    parser.add_argument("--users", type=int, default=50_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sync", default="commit")
    parser.add_argument("--threads", type=int, default=2)
    parser.add_argument("--checkpoint-interval", type=int, default=0)
    args = parser.parse_args(argv)

    work = build_workload(
        args.workload, args.objects, args.programs, args.users, args.seed
    )
    manager = DurabilityManager(
        args.dir,
        sync_policy=args.sync,
        group_window=0.001,
        checkpoint_interval=args.checkpoint_interval,
    )
    db = NestedTransactionDB(
        work.initial,
        config=EngineConfig(
            durability=manager, record_trace=False, lock_timeout=5.0
        ),
    )
    # Seeded jitter: the crash schedule is reproducible end to end.
    policy = RetryPolicy(
        max_retries=100, backoff=0.0002, jitter=0.0005, seed=args.seed
    )
    ack_lock = threading.Lock()
    ack_fh = open(os.path.join(args.dir, ACK_FILE), "a", encoding="utf-8")

    def run(thread_index: int) -> None:
        for step in itertools.count(thread_index, args.threads):
            program = work.programs[step % len(work.programs)]
            try:
                db.run_transaction(
                    lambda t, root=program.root: run_block(t, root, work),
                    policy=policy,
                )
            except (InjectedFailure, TransactionAborted, LockTimeout):
                continue  # a rollback program, or retries exhausted
            with ack_lock:
                ack_fh.write("%s\n" % program.label)
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
    workload: str = COUNTERS,
    objects: int = 8,
    programs: int = 40,
    users: int = 50_000,
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
    flags = {
        "--dir": directory,
        "--workload": workload,
        "--objects": objects,
        "--programs": programs,
        "--users": users,
        "--seed": seed,
        "--sync": sync,
        "--threads": threads,
        "--checkpoint-interval": checkpoint_interval,
    }
    argv = [str(part) for pair in flags.items() for part in pair]
    return subprocess.Popen(
        [sys.executable, "-c", _WORKER_ENTRY] + argv,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )


# ---------------------------------------------------------------------------
# Parent side (kill, recover, judge)
# ---------------------------------------------------------------------------


@dataclass
class CrashReport:
    """What one kill-and-recover run established."""

    workload: str = COUNTERS
    sync: str = "commit"
    ok: bool = True
    failures: List[str] = field(default_factory=list)
    acked_programs: int = 0
    #: Units the acked programs add to the progress objects, and the
    #: units recovered there (the excess is durable-but-unacked work).
    acked_units: int = 0
    recovered_units: int = 0
    deterministic: bool = False
    invariant_ok: bool = False
    commits_replayed: int = 0
    records_discarded: int = 0
    checkpoint_seq: int = 0
    torn_tail: bool = False
    post_committed: int = 0
    oracle_ok: bool = False
    #: Verdict of the live streaming certifier over the post-recovery
    #: trace (None when the run had ``certify=None``).
    streaming_ok: Optional[bool] = None

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


def judge(
    workload: CrashWorkload,
    acks: Sequence[str],
    first: Dict[str, int],
    second: Dict[str, int],
    recovered: Dict[str, int],
    threads: int,
) -> CrashReport:
    """The recovery verdicts, from values alone.

    ``acks`` are the acknowledged program labels, ``first`` / ``second``
    the two standalone replays and ``recovered`` the reopened engine's
    snapshot.  A progress object is one that every applied op of every
    program raises by a non-negative amount; on each, the recovered gain
    must cover the acked programs' gains, and the total excess may not
    exceed ``threads`` programs' worth (one killed between fsync and
    ack per thread; more is a double replay).
    """
    report = CrashReport(workload=workload.name, acked_programs=len(acks))
    report.deterministic = first == second
    if not report.deterministic:
        report.fail("recovery is not deterministic across replays")
    if recovered != first:
        report.fail("engine recovery disagrees with standalone replay")
    violation = workload.invariant(recovered)
    report.invariant_ok = violation is None
    if violation is not None:
        report.fail("invariant violated after crash: %s" % violation)

    gains: Dict[str, Counter] = {}
    lowered = set()
    for program in workload.programs:
        gain = gains[program.label] = Counter()
        for op in workload.applied_ops(program.root):
            if op.kind in ("rmw", "increment") and op.value >= 0:
                gain[op.obj] += op.value
            elif op.kind != "read":
                lowered.add(op.obj)
    progress = {obj for gain in gains.values() for obj in gain} - lowered
    unit = max(
        (sum(n for obj, n in gain.items() if obj in progress)
         for gain in gains.values()),
        default=0,
    )
    floor: Counter = Counter()
    for label in acks:
        if label not in gains:
            report.fail("ack names no program of the workload: %r" % label)
            continue
        floor.update({o: n for o, n in gains[label].items() if o in progress})
    for obj in sorted(progress):
        gained = recovered.get(obj, 0) - workload.initial.get(obj, 0)
        report.recovered_units += gained
        if gained < floor[obj]:
            report.fail(
                "lost acked commit(s) on %s: acked +%d, recovered +%d"
                % (obj, floor[obj], gained)
            )
    report.acked_units = sum(floor.values())
    excess = report.recovered_units - report.acked_units
    if excess > threads * unit:
        report.fail(
            "%d durable-but-unacked units exceed the %d-thread bound of %d "
            "(double replay?)" % (excess, threads, threads * unit)
        )
    return report


def run_crash(
    directory: str,
    workload: str = COUNTERS,
    objects: int = 8,
    programs: int = 40,
    users: int = 50_000,
    seed: int = 0,
    sync: str = "commit",
    threads: int = 2,
    checkpoint_interval: int = 0,
    min_acks: int = 30,
    timeout: float = 60.0,
    post: int = 20,
    certify: Optional[str] = "streaming",
    trace_dump: Optional[str] = None,
) -> CrashReport:
    """The full run: spawn, SIGKILL mid-workload, recover, judge.

    ``workload`` is ``"counters"`` (over ``objects`` counters) or a
    scenario name (over ``users``); either way ``programs`` programs are
    compiled from ``seed``.  Raises ``RuntimeError`` when the worker dies
    by itself or never reaches ``min_acks`` (harness problems, not
    verdicts); contract violations land in ``CrashReport.failures``.

    ``post`` committable programs then run on the recovered engine
    through ``execute``.  ``certify="streaming"`` subscribes the
    incremental certifier to that trace — its verdict lands in
    ``CrashReport.streaming_ok``.  ``trace_dump`` (a path) archives the
    post-recovery trace as JSONL, with the recovered initial values in a
    sibling ``<path>.initial.json`` — the pair ``scripts/certify_stream``
    re-certifies offline in CI.
    """
    from ..checker import check_engine
    from ..engine import EngineConfig, NestedTransactionDB
    from ..workload import execute
    from .manager import DurabilityManager
    from .recovery import RecoveryManager

    work = build_workload(workload, objects, programs, users, seed)
    proc = spawn_worker(
        directory, workload, objects, programs, users, seed, sync, threads,
        checkpoint_interval,
    )
    deadline = time.monotonic() + timeout
    try:
        while len(_read_acks(directory)) < min_acks:
            if proc.poll() is not None:
                stderr = (proc.stderr.read() if proc.stderr else b"").decode(
                    "utf-8", "replace"
                )
                raise RuntimeError(
                    "crash worker exited early (rc=%s): %s"
                    % (proc.returncode, stderr[-2000:])
                )
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

    # Two independent read-only replays before any append-side handle
    # touches (truncates) the torn tail.
    first = RecoveryManager(directory).recover(work.initial).values
    second = RecoveryManager(directory).recover(work.initial).values
    db = NestedTransactionDB(
        work.initial,
        config=EngineConfig(
            durability=DurabilityManager(directory, sync_policy=sync),
            record_trace=True,
            certify=certify,
        ),
    )
    report = judge(work, _read_acks(directory), first, second, db.snapshot(),
                   threads)
    report.sync = sync
    recovery = db.durability.last_recovery
    report.commits_replayed = recovery.commits_replayed
    report.records_discarded = recovery.records_discarded
    report.checkpoint_seq = recovery.checkpoint_seq
    report.torn_tail = recovery.torn_tail

    def quiescent(what: str) -> None:
        try:
            db.assert_quiescent()
        except AssertionError as error:
            report.fail("%s not quiescent: %s" % (what, error))

    quiescent("recovered store")
    if post:
        # Build on the recovered state; the oracle replays the trace from
        # db.initial_values, i.e. the recovered values.
        programs_after = work.committable()[:post]
        result = execute(db, programs_after, threads=2, seed=seed + 1,
                         firing_factory=lambda program, index: work)
        report.post_committed = result.committed_programs
        if result.committed_programs != len(programs_after):
            report.fail("post-recovery slice committed %d/%d programs"
                        % (result.committed_programs, len(programs_after)))
        violation = work.invariant(db.snapshot())
        if violation is not None:
            report.fail("invariant violated after post-recovery run: %s"
                        % violation)
        oracle = check_engine(db)
        report.oracle_ok = bool(oracle.ok)
        if not oracle.ok:
            report.fail("post-recovery serializability oracle failed: %s"
                        % oracle.failure)
        quiescent("post-recovery run")
    if db.certifier is not None:
        streaming = db.certifier.finish()
        report.streaming_ok = bool(streaming.ok)
        if not streaming.ok:
            report.fail("streaming certifier flagged post-recovery trace: %s"
                        % streaming.violations[0].message)
    if trace_dump is not None:
        db.trace.dump(trace_dump)
        with open(trace_dump + ".initial.json", "w", encoding="utf-8") as fh:
            json.dump(db.initial_values, fh, sort_keys=True)
    db.close()
    return report
