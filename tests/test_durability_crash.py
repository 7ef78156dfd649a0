"""Crash-restart tests: SIGKILL a durable worker process, recover, verify.

Each test runs the kill-and-recover harness from
``repro.durability.crashtest`` on its counter workload: spawn a worker
process hammering a durable engine from multiple threads, SIGKILL it
mid-workload, recover over the same directory, and check the durability
contract — every acknowledged (fsync'd) commit survives, no uncommitted
write survives, recovery is deterministic and quiescent, and a
post-recovery workload passes the serializability oracle.  The judge's
verdicts are pinned one by one, without a subprocess, in
``tests/test_crash_judge.py``.
"""

import pytest

from repro.durability.crashtest import run_crash

pytestmark = pytest.mark.crash

# The byte-identical ``[striped]`` rerun of this test is retired; the
# surviving ``[global]`` id is the one the suite's floor list pins.
PINNED_GLOBAL = pytest.mark.parametrize(
    "retired_latch_axis", ["global"], indirect=True
)


def _check(report):
    assert report.ok, "durability contract violated: %s" % report.failures
    assert report.acked_programs > 0
    assert report.recovered_units >= report.acked_units > 0
    assert report.invariant_ok and report.deterministic
    assert report.oracle_ok
    assert report.streaming_ok is True


@pytest.mark.usefixtures("retired_latch_axis")
@PINNED_GLOBAL
def test_crash_recovery_per_commit_sync(tmp_path):
    report = run_crash(str(tmp_path), sync="commit", seed=1, min_acks=30)
    _check(report)
    assert report.sync == "commit"
    assert report.workload == "counters"


def test_crash_recovery_group_commit(tmp_path):
    report = run_crash(str(tmp_path), sync="group", seed=2, min_acks=30)
    _check(report)


def test_crash_recovery_across_checkpoint(tmp_path):
    """Kill after at least one fuzzy checkpoint: recovery must overlay the
    snapshot and replay only the log suffix, losing nothing."""
    report = run_crash(
        str(tmp_path),
        sync="commit",
        seed=3,
        min_acks=60,
        checkpoint_interval=20,
    )
    _check(report)
    assert report.checkpoint_seq >= 1
    # The suffix replayed over the checkpoint is shorter than the run.
    assert report.commits_replayed < report.recovered_units


def test_worker_that_dies_is_a_harness_error(tmp_path):
    # The worker's WAL rejects the sync policy, so it exits before
    # acking anything.
    with pytest.raises(RuntimeError, match="exited early"):
        run_crash(str(tmp_path), sync="no-such-policy", timeout=30.0)


def test_too_few_acks_is_a_harness_error(tmp_path):
    with pytest.raises(RuntimeError, match="before timeout"):
        run_crash(str(tmp_path), min_acks=10**6, timeout=0.2)
