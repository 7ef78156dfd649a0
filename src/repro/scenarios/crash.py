"""SIGKILL chaos over scenario workloads.

The durability crash harness (:mod:`repro.durability.crashtest`) proves
the WAL contract on a synthetic increment workload; this module composes
the same kill-and-recover protocol with the *scenario fleet*: a worker
process drives one modeled application (bank / marketplace / social)
against a durable engine, acking each program only after its commit
fsync, until the parent SIGKILLs it mid-flight.  Recovery is then judged
against the scenario's own semantics:

* the **conservation invariant** holds on the recovered state (money /
  stock / deliveries conserved across whatever prefix survived);
* every **acked program survived**: each scenario names a *progress
  ledger* object whose recovered value bounds the number of committed
  programs (``>= acked``, ``<= acked + threads`` — one durable-unacked
  commit per worker thread at most);
* recovery is **deterministic** (two independent replays agree);
* a **post-recovery slice** of the same scenario runs streaming-certified
  on the recovered state.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..workload.shapes import Block, Op, Program

ACK_FILE = "scenario_acks.log"

_WORKER_ENTRY = (
    "from repro.scenarios.crash import scenario_worker_main; "
    "scenario_worker_main()"
)

#: scenario -> (progress-ledger object, units it grows per committed
#: non-read-only program).  The worker interpreter escalates child
#: failures into full-program retries, so a committed program always
#: contributes exactly its unit count.
PROGRESS_LEDGERS: Dict[str, "tuple[str, int]"] = {
    "bank": ("bank:fees", 1),
    "marketplace": ("market:orders", 1),
    "social": ("social:deliveries", 12),  # build_social's default fanout
}


def _interpret(txn, block: Block) -> None:
    """Run a block tree strictly: a failed subtransaction aborts and
    *escalates* (no containment), so a committed program is always fully
    applied — what makes the progress-ledger accounting exact."""
    for child in block.children:
        if isinstance(child, Op):
            if child.kind == "read":
                txn.read(child.obj)
            elif child.kind == "write":
                txn.write(child.obj, child.value)
            elif child.kind == "increment":
                txn.increment(child.obj, child.value)
            else:  # rmw
                txn.write(child.obj, txn.read_for_update(child.obj) + child.value)
        else:
            sub = txn.begin_subtransaction()
            try:
                _interpret(sub, child)
                sub.commit()
            except BaseException:
                sub.abort()
                raise


# ---------------------------------------------------------------------------
# Worker side (runs in the doomed subprocess)
# ---------------------------------------------------------------------------


def scenario_worker_main(argv: Optional[List[str]] = None) -> None:
    """Crash-target entry point: hammer one scenario until killed."""
    import argparse

    from ..durability import DurabilityManager
    from ..engine import EngineConfig, NestedTransactionDB, RetryPolicy
    from .apps import build_scenario

    parser = argparse.ArgumentParser()
    parser.add_argument("--dir", required=True)
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--programs", type=int, default=40)
    parser.add_argument("--users", type=int, default=50_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=2)
    args = parser.parse_args(argv)

    scenario = build_scenario(
        args.scenario, programs=args.programs, users=args.users, seed=args.seed
    )
    manager = DurabilityManager(args.dir, sync_policy="commit")
    db = NestedTransactionDB(
        scenario.initial,
        config=EngineConfig(
            durability=manager,
            record_trace=False,
            lock_timeout=5.0,
        ),
    )
    # Seeded jitter: the crash schedule is reproducible end to end (the
    # retry-policy bugfix in this PR is what makes this possible).
    policy = RetryPolicy(max_retries=100, backoff=0.0002, jitter=0.0005,
                         seed=args.seed)
    writable = [p for p in scenario.programs if not p.read_only]
    ack_lock = threading.Lock()
    ack_fh = open(os.path.join(args.dir, ACK_FILE), "a", encoding="utf-8")

    def run(thread_index: int) -> None:
        step = thread_index
        while True:
            program: Program = writable[step % len(writable)]
            step += args.threads
            db.run_transaction(
                lambda t, root=program.root: _interpret(t, root),
                policy=policy,
            )
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


def spawn_scenario_worker(
    directory: str,
    scenario: str,
    programs: int = 40,
    users: int = 50_000,
    seed: int = 0,
    threads: int = 2,
) -> "subprocess.Popen[bytes]":
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
            "--dir", directory,
            "--scenario", scenario,
            "--programs", str(programs),
            "--users", str(users),
            "--seed", str(seed),
            "--threads", str(threads),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )


# ---------------------------------------------------------------------------
# Parent side (kill, recover, verify)
# ---------------------------------------------------------------------------


@dataclass
class ScenarioCrashReport:
    """What one scenario kill-and-recover run established."""

    scenario: str
    ok: bool = True
    failures: List[str] = field(default_factory=list)
    acked_programs: int = 0
    ledger_value: int = 0
    ledger_object: str = ""
    invariant_ok: bool = False
    deterministic: bool = False
    post_committed: int = 0
    post_certified: Optional[bool] = None

    def fail(self, message: str) -> None:
        self.ok = False
        self.failures.append(message)

    def as_dict(self) -> Dict[str, object]:
        return dict(self.__dict__)


def run_scenario_crash(
    directory: str,
    scenario_name: str,
    programs: int = 40,
    users: int = 50_000,
    seed: int = 0,
    threads: int = 2,
    min_acks: int = 20,
    timeout: float = 60.0,
    post_slice: int = 10,
    certify: Optional[str] = "streaming",
) -> ScenarioCrashReport:
    """Spawn a scenario worker, SIGKILL it mid-workload, recover, judge.

    Raises ``RuntimeError`` for harness problems (worker died by itself,
    never reached ``min_acks``); semantic violations land in
    ``ScenarioCrashReport.failures``.
    """
    from ..durability import DurabilityManager
    from ..durability.recovery import RecoveryManager
    from ..engine import EngineConfig, NestedTransactionDB
    from ..workload import execute
    from .apps import build_scenario

    report = ScenarioCrashReport(scenario=scenario_name)
    scenario = build_scenario(
        scenario_name, programs=programs, users=users, seed=seed
    )
    ledger_obj, ledger_unit = PROGRESS_LEDGERS[scenario_name]
    report.ledger_object = ledger_obj

    proc = spawn_scenario_worker(
        directory,
        scenario_name,
        programs=programs,
        users=users,
        seed=seed,
        threads=threads,
    )
    ack_path = os.path.join(directory, ACK_FILE)

    def acks() -> int:
        try:
            with open(ack_path, encoding="utf-8") as fh:
                return sum(1 for line in fh if line.strip())
        except FileNotFoundError:
            return 0

    deadline = time.monotonic() + timeout
    try:
        while True:
            if proc.poll() is not None:
                stderr = (proc.stderr.read() if proc.stderr else b"").decode(
                    "utf-8", "replace"
                )
                raise RuntimeError(
                    "scenario crash worker exited early (rc=%s): %s"
                    % (proc.returncode, stderr[-2000:])
                )
            if acks() >= min_acks:
                break
            if time.monotonic() > deadline:
                raise RuntimeError(
                    "scenario worker produced %d/%d acks before timeout"
                    % (acks(), min_acks)
                )
            time.sleep(0.005)
    finally:
        proc.kill()  # SIGKILL: no cleanup, no flush — a genuine crash
        proc.wait()
        if proc.stderr:
            proc.stderr.close()

    report.acked_programs = acks()

    # Determinism: two independent read-only replays agree before any
    # append-side handle truncates the torn tail.
    first = RecoveryManager(directory).recover(scenario.initial)
    second = RecoveryManager(directory).recover(scenario.initial)
    report.deterministic = first.values == second.values
    if not report.deterministic:
        report.fail("recovery is not deterministic across replays")

    db = NestedTransactionDB(
        scenario.initial,
        config=EngineConfig(
            durability=DurabilityManager(directory),
            record_trace=certify is not None,
            certify=certify,
        ),
    )
    try:
        db.assert_quiescent()
    except AssertionError as error:
        report.fail("recovered store not quiescent: %s" % error)

    recovered = db.snapshot()
    violation = scenario.invariant(recovered)
    report.invariant_ok = violation is None
    if violation is not None:
        report.fail("invariant violated after crash: %s" % violation)

    report.ledger_value = recovered.get(ledger_obj, 0)
    floor = report.acked_programs * ledger_unit
    ceiling = (report.acked_programs + threads) * ledger_unit
    if report.ledger_value < floor:
        report.fail(
            "lost acked programs: %s=%d < %d acked units"
            % (ledger_obj, report.ledger_value, floor)
        )
    if report.ledger_value > ceiling:
        report.fail(
            "%s=%d exceeds acked+threads bound %d (double replay?)"
            % (ledger_obj, report.ledger_value, ceiling)
        )

    if post_slice > 0:
        # Build on the recovered state: a certified slice of the same
        # scenario must run clean from whatever the crash left behind.
        slice_programs = [
            p for p in scenario.programs if not p.read_only
        ][:post_slice]
        post = execute(db, slice_programs, threads=2, seed=seed + 1)
        report.post_committed = post.committed_programs
        if post.committed_programs != len(slice_programs):
            report.fail(
                "post-recovery slice committed %d/%d programs"
                % (post.committed_programs, len(slice_programs))
            )
        violation = scenario.invariant(db.snapshot())
        if violation is not None:
            report.fail("invariant violated after post-recovery run: %s"
                        % violation)
    if db.certifier is not None:
        verdict = db.certifier.finish()
        report.post_certified = bool(verdict.ok)
        if not verdict.ok:
            report.fail(
                "streaming certifier flagged post-recovery trace: %s"
                % verdict.violations[0].message
            )
    db.close()
    return report
