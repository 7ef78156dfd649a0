"""Multi-threaded workload execution against any of the databases.

The executor interprets :class:`~repro.workload.shapes.Program` trees
against the common transaction API (engine, flat 2PL, global lock, MVTO).
Sub-blocks run in ``subtransaction`` scopes — in parallel threads when the
block says so and the system supports it; injected failures fire at
marked failure points, and what happens next depends on the system under
test: the nested engine contains the failure to one subtransaction, flat
2PL loses the whole transaction and retries.  That asymmetry *is*
experiment E2.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..engine.errors import LockTimeout, TransactionAborted
from ..engine.recovery import InjectedFailure
from .shapes import Block, Op, Program


@dataclass
class ExecutionReport:
    """What a workload run achieved and what it cost."""

    duration: float = 0.0
    programs: int = 0
    committed_programs: int = 0
    failed_programs: int = 0
    retries: int = 0
    ops_attempted: int = 0
    ops_committed: int = 0
    child_aborts: int = 0
    injected: int = 0
    db_stats: Dict[str, int] = field(default_factory=dict)
    latencies: List[float] = field(default_factory=list)  # per committed program
    #: ``db.metrics.snapshot()`` taken at the end of the run, when the
    #: system under test carries an *enabled* metrics registry ({} else).
    metrics: Dict[str, object] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Committed programs per second."""
        return self.committed_programs / self.duration if self.duration else 0.0

    @property
    def goodput(self) -> float:
        """Committed operations per second."""
        return self.ops_committed / self.duration if self.duration else 0.0

    @property
    def wasted_ops(self) -> int:
        return self.ops_attempted - self.ops_committed

    def latency_percentile(self, q: float) -> float:
        """Per-program commit latency at quantile q ∈ [0, 1] (seconds);
        0.0 when nothing committed."""
        if not self.latencies:
            return 0.0
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        ordered = sorted(self.latencies)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    def as_row(self) -> Dict[str, object]:
        row = dict(self.__dict__)
        row.pop("db_stats", None)
        row.pop("latencies", None)
        row.pop("metrics", None)
        row["throughput"] = round(self.throughput, 1)
        row["goodput"] = round(self.goodput, 1)
        row["p95_ms"] = round(self.latency_percentile(0.95) * 1000, 2)
        return row


class _Counters:
    """Thread-safe accumulation for the report, plus run-wide knobs."""

    def __init__(self, op_delay: float = 0.0) -> None:
        self.lock = threading.Lock()
        self.op_delay = op_delay
        self.committed_programs = 0
        self.failed_programs = 0
        self.retries = 0
        self.ops_attempted = 0
        self.ops_committed = 0
        self.child_aborts = 0
        self.injected = 0
        self.latencies: List[float] = []


def all_failure_points(program: Program) -> List[Block]:
    """The blocks of a program marked as potential failure sites."""
    found: List[Block] = []

    def walk(block: Block) -> None:
        if block.failure_point:
            found.append(block)
        for child in block.children:
            if isinstance(child, Block):
                walk(child)

    walk(program.root)
    return found


class Firing:
    """The failure points of one program attempt that will fire (identity
    based, consumed on first firing so retries make progress).

    The chaos layer (:mod:`repro.scenarios.chaos`) builds these from
    declarative schedules and hands them to :func:`execute` through the
    ``firing_factory`` hook.
    """

    def __init__(self, blocks: Set[int]) -> None:
        self._lock = threading.Lock()
        self._blocks = set(blocks)

    def fires(self, block: Block) -> bool:
        with self._lock:
            if id(block) in self._blocks:
                self._blocks.discard(id(block))
                return True
            return False


def _do_op(txn, op: Op, counters: _Counters) -> None:
    with counters.lock:
        counters.ops_attempted += 1
    if op.kind == "read":
        txn.read(op.obj)
    elif op.kind == "write":
        txn.write(op.obj, op.value)
    elif op.kind == "increment" and hasattr(txn, "increment"):
        txn.increment(op.obj, op.value)
    else:  # rmw (also the increment fallback) — write-intent read
        # avoids upgrade deadlocks
        reader = getattr(txn, "read_for_update", txn.read)
        txn.write(op.obj, reader(op.obj) + op.value)
    if counters.op_delay:
        # Simulated storage/compute latency, spent while holding locks.
        # time.sleep releases the GIL, so disjoint transactions overlap —
        # this is what makes lock granularity visible on one machine.
        time.sleep(counters.op_delay)


def _begin(db, program: Program):
    """Begin the right kind of top-level transaction for ``program``:
    read-only programs run as lock-free snapshot readers on engines that
    support them, ordinary locked transactions everywhere else."""
    if getattr(program, "read_only", False):
        try:
            return db.begin_transaction(read_only=True)
        except TypeError:
            pass  # system under test predates snapshot reads
    return db.begin_transaction()


def _run_block(txn, block: Block, firing: Firing, counters: _Counters) -> int:
    """Interpret a block's children inside transaction scope ``txn``;
    returns ops completed.  Raises InjectedFailure when this block's
    failure point fires (after its body, so there is work to lose)."""
    done = 0
    if block.parallel and hasattr(txn, "parallel"):
        ops = [child for child in block.children if isinstance(child, Op)]
        subs = [child for child in block.children if isinstance(child, Block)]
        for op in ops:
            _do_op(txn, op, counters)
            done += 1
        if subs:
            bodies = [
                (lambda sub, blk=child: _run_block(sub, blk, firing, counters))
                for child in subs
            ]
            outcomes = txn.parallel(bodies)
            for outcome in outcomes:
                if outcome.ok:
                    done += outcome.value
                elif isinstance(outcome.error, InjectedFailure):
                    with counters.lock:
                        counters.child_aborts += 1
                else:
                    raise outcome.error
    else:
        for child in block.children:
            if isinstance(child, Op):
                _do_op(txn, child, counters)
                done += 1
            else:
                done += _run_child_block(txn, child, firing, counters)
    if firing.fires(block):
        with counters.lock:
            counters.injected += 1
        raise InjectedFailure()
    return done


def run_block(txn, block: Block, firing: Firing) -> int:
    """Interpret one program tree in ``txn`` outside :func:`execute`.

    The same interpreter, with the same containment and child retries,
    for a caller that owns its own top-level loop (the crash harness's
    worker runs it inside ``db.run_transaction``).  Returns ops
    completed; raises InjectedFailure when the root's failure point
    fires.
    """
    return _run_block(txn, block, firing, _Counters())


def _run_child_block(
    txn, child: Block, firing: Firing, counters: _Counters, retries: int = 2
) -> int:
    """Run a child block in a subtransaction scope.

    A contained *injected* failure contributes zero ops and bumps
    child_aborts — the parent tolerates it by design.  A child that
    aborted for concurrency reasons (deadlock victim) is retried in a
    fresh subtransaction — the nested engine's partial-retry advantage;
    flat systems escalate instead because their ``subtransaction`` cannot
    contain anything.  If retries are exhausted, or the parent itself has
    died, the whole transaction aborts.
    """
    for _attempt in range(retries + 1):
        done = 0
        sub = None
        try:
            with txn.subtransaction() as scope:
                sub = scope
                done = _run_block(scope, child, firing, counters)
        except InjectedFailure:
            with counters.lock:
                counters.child_aborts += 1
            return 0
        if sub is None or getattr(sub, "status", None) != "aborted":
            return done
        # Child was a deadlock victim (abort absorbed by the engine ctx).
        with counters.lock:
            counters.child_aborts += 1
        if hasattr(txn, "is_live") and not txn.is_live:
            break
        time.sleep(0.0002 * (_attempt + 1))  # back off before the retry
    raise TransactionAborted(getattr(txn, "name", None), "child retries exhausted")


def execute(
    db,
    programs: Sequence[Program],
    threads: int = 4,
    failure_prob: float = 0.0,
    seed: int = 0,
    max_retries: int = 50,
    op_delay: float = 0.0,
    firing_factory: Optional[Callable[[Program, int], Firing]] = None,
) -> ExecutionReport:
    """Run the programs on ``threads`` worker threads and report.

    Each program retries (as a whole) when its top-level transaction
    aborts — deadlock victimhood or, on non-nested systems, a failure that
    could not be contained.  Injected failures fire once per marked point
    per program, so retries always make progress.  ``op_delay`` adds
    simulated per-operation latency spent while holding locks.

    ``firing_factory`` overrides the uniform ``failure_prob`` selection:
    it receives each ``(program, index)`` and returns the
    :class:`Firing` for that program — the chaos layer's entry point for
    probability ramps, burst windows and hot-key storms.

    An *unexpected* exception in a worker (anything other than the
    containable failure/abort/timeout protocol) is not swallowed: the
    open transaction is aborted (releasing its locks), the program is
    counted failed, remaining work drains, and the first such error is
    re-raised after all workers join.
    """
    counters = _Counters(op_delay)
    rng = random.Random(seed)
    queue: List[Tuple[Program, Firing]] = []
    for index, program in enumerate(programs):
        if firing_factory is not None:
            firing = firing_factory(program, index)
        else:
            ids = {
                id(block)
                for block in all_failure_points(program)
                if rng.random() < failure_prob
            }
            firing = Firing(ids)
        queue.append((program, firing))
    index_lock = threading.Lock()
    next_index = [0]
    unexpected: List[BaseException] = []
    registry = getattr(db, "metrics", None)
    program_hist = (
        registry.histogram("workload_program_seconds")
        if registry is not None
        else None
    )

    def run_one(program: Program, firing: Firing) -> None:
        attempts = 0
        program_start = time.perf_counter()
        while True:
            txn = _begin(db, program)
            try:
                done = _run_block(txn, program.root, firing, counters)
                txn.commit()
            except InjectedFailure:
                # The root block itself failed: nothing contains it.
                txn.abort()
                with counters.lock:
                    counters.failed_programs += 1
                break
            except (TransactionAborted, LockTimeout):
                txn.abort()
                attempts += 1
                with counters.lock:
                    counters.retries += 1
                if attempts > max_retries:
                    with counters.lock:
                        counters.failed_programs += 1
                    break
                time.sleep(0.0002 * attempts)
                continue
            except BaseException:
                # Unexpected: the transaction would otherwise leak open
                # (its locks stalling every other worker) while this
                # thread died silently and the report undercounted.
                try:
                    txn.abort()
                except Exception:
                    pass  # the original error is the one worth keeping
                with counters.lock:
                    counters.failed_programs += 1
                raise
            elapsed = time.perf_counter() - program_start
            if program_hist is not None and registry.enabled:
                program_hist.observe(elapsed)
            with counters.lock:
                counters.committed_programs += 1
                counters.ops_committed += done
                counters.latencies.append(elapsed)
            break

    def worker() -> None:
        while True:
            with index_lock:
                if next_index[0] >= len(queue):
                    return
                program, firing = queue[next_index[0]]
                next_index[0] += 1
            try:
                run_one(program, firing)
            except BaseException as error:  # noqa: BLE001 - re-raised after join
                with counters.lock:
                    unexpected.append(error)
                return  # this worker stops; the others drain the queue

    pool = [threading.Thread(target=worker, daemon=True) for _ in range(threads)]
    start = time.perf_counter()
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    duration = time.perf_counter() - start
    if unexpected:
        raise unexpected[0]

    metrics_snapshot: Dict[str, object] = {}
    if registry is not None and getattr(registry, "enabled", False):
        metrics_snapshot = registry.snapshot()

    return ExecutionReport(
        duration=duration,
        programs=len(programs),
        committed_programs=counters.committed_programs,
        failed_programs=counters.failed_programs,
        retries=counters.retries,
        ops_attempted=counters.ops_attempted,
        ops_committed=counters.ops_committed,
        child_aborts=counters.child_aborts,
        injected=counters.injected,
        db_stats=db.stats.snapshot() if hasattr(db, "stats") else {},
        latencies=counters.latencies,
        metrics=metrics_snapshot,
    )
