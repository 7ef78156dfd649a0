"""The crash harness's judge, one hand-made input per verdict.

``repro.durability.crashtest.judge`` is a pure function of (workload,
acks, the two standalone replays, the engine's recovered snapshot,
threads), so each verdict is pinned here without a subprocess: a clean
crash passes, and each kind of broken recovery fails with its own
message.
"""

import pytest

from repro.durability.crashtest import POISON, build_workload, judge

THREADS = 2


def counters():
    return build_workload("counters", objects=4, programs=12, seed=5)


def bank():
    return build_workload("bank", programs=30, users=5_000, seed=4)


WORKLOADS = {"counters": counters, "bank": bank}


def applied(workload, labels):
    """The state a recovery that kept exactly ``labels`` would hold."""
    programs = {p.label: p for p in workload.programs}
    state = dict(workload.initial)
    for label in labels:
        for op in workload.applied_ops(programs[label].root):
            if op.kind in ("rmw", "increment"):
                state[op.obj] += op.value
            elif op.kind == "write":
                state[op.obj] = op.value
    return state


def crash(workload, acked=6, unacked=1):
    """Labels acked, and labels durable at the kill (acked + unacked)."""
    labels = [p.label for p in workload.committable()]
    return labels[:acked], labels[: acked + unacked]


def verdict(workload, acks, recovered, first=None, second=None):
    first = recovered if first is None else first
    second = first if second is None else second
    return judge(workload, acks, first, second, recovered, THREADS)


def only(report, needle):
    assert not report.ok
    assert [f for f in report.failures if needle in f] == report.failures, (
        report.failures
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_clean_crash_passes(name):
    workload = WORKLOADS[name]()
    acks, durable = crash(workload)
    report = verdict(workload, acks, applied(workload, durable))
    assert report.ok, report.failures
    assert report.deterministic and report.invariant_ok
    assert report.acked_programs == 6
    assert report.recovered_units > report.acked_units > 0


def test_counter_units_count_programs():
    workload = counters()
    acks, durable = crash(workload, acked=6, unacked=THREADS)
    report = verdict(workload, acks, applied(workload, durable))
    assert report.ok, report.failures
    assert (report.acked_units, report.recovered_units) == (6, 8)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_lost_acked_commit_fails(name):
    workload = WORKLOADS[name]()
    acks, _ = crash(workload)
    report = verdict(workload, acks, applied(workload, acks[:-1]))
    only(report, "lost acked commit")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_double_replay_exceeds_thread_bound(name):
    workload = WORKLOADS[name]()
    acks, _ = crash(workload)
    report = verdict(workload, acks, applied(workload, acks + acks))
    assert not report.ok
    assert any("thread bound" in f for f in report.failures), report.failures


def test_unacked_surplus_beyond_threads_fails():
    workload = counters()
    acks, durable = crash(workload, acked=6, unacked=THREADS + 1)
    report = verdict(workload, acks, applied(workload, durable))
    only(report, "thread bound")


def test_surviving_poison_write_fails():
    workload = counters()
    acks, durable = crash(workload)
    recovered = applied(workload, durable)
    recovered["o1"] = POISON
    report = verdict(workload, acks, recovered)
    assert not report.invariant_ok
    assert any("poison" in f for f in report.failures), report.failures


def test_negative_counter_fails():
    workload = counters()
    acks, durable = crash(workload)
    recovered = applied(workload, durable)
    recovered["o0"] = -1
    report = verdict(workload, acks, recovered)
    assert not report.invariant_ok
    assert any("non-counter value" in f for f in report.failures), (
        report.failures
    )


def test_broken_scenario_invariant_fails():
    workload = bank()
    acks, durable = crash(workload)
    recovered = applied(workload, durable)
    # The debited account of an acked transfer: money leaks, but no
    # progress object (those only ever rise) moves.
    debited = workload.committable()[0].root.children[0].obj
    recovered[debited] -= 1
    report = verdict(workload, acks, recovered)
    only(report, "money not conserved")
    assert not report.invariant_ok


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_replays_that_disagree_fail(name):
    workload = WORKLOADS[name]()
    acks, durable = crash(workload)
    recovered = applied(workload, durable)
    report = verdict(
        workload, acks, recovered, second=applied(workload, acks)
    )
    only(report, "not deterministic")
    assert not report.deterministic


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_engine_recovery_that_differs_from_replay_fails(name):
    workload = WORKLOADS[name]()
    acks, durable = crash(workload)
    report = verdict(
        workload, acks, applied(workload, acks), first=applied(workload, durable)
    )
    only(report, "disagrees with standalone replay")
    assert report.deterministic


def test_ack_of_an_unknown_program_fails():
    workload = counters()
    acks, durable = crash(workload)
    report = verdict(workload, acks + ["nobody#1"], applied(workload, durable))
    only(report, "no program of the workload")
