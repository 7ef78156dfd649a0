"""Crash-restart tests: SIGKILL a durable worker process, recover, verify.

Each test runs the full harness from ``repro.durability.crashtest``:
spawn a worker process hammering a durable engine from multiple threads,
SIGKILL it mid-workload, recover over the same directory, and check the
durability contract — every acknowledged (fsync'd) commit survives, no
uncommitted write survives, recovery is deterministic and quiescent, and
a post-recovery workload passes the serializability oracle.
"""

import pytest

from repro.durability.crashtest import POISON, run_crash_recovery_scenario

pytestmark = pytest.mark.crash


def _check(report):
    assert report.ok, "durability contract violated: %s" % report.failures
    assert report.acked_commits > 0
    assert report.recovered_total >= report.acked_commits
    assert report.recovered_total < POISON
    assert report.oracle_ok


@pytest.mark.usefixtures("retired_latch_axis")
def test_crash_recovery_per_commit_sync(tmp_path):
    report = run_crash_recovery_scenario(
        str(tmp_path), sync="commit", seed=1, min_acks=30
    )
    _check(report)
    assert report.sync == "commit"


def test_crash_recovery_group_commit(tmp_path):
    report = run_crash_recovery_scenario(
        str(tmp_path), sync="group", seed=2, min_acks=30
    )
    _check(report)


def test_crash_recovery_across_checkpoint(tmp_path):
    """Kill after at least one fuzzy checkpoint: recovery must overlay the
    snapshot and replay only the log suffix, losing nothing."""
    report = run_crash_recovery_scenario(
        str(tmp_path),
        sync="commit",
        seed=3,
        min_acks=60,
        checkpoint_interval=20,
    )
    _check(report)
    assert report.checkpoint_seq >= 1
    # The suffix replayed over the checkpoint is shorter than the run.
    assert report.commits_replayed < report.recovered_total
