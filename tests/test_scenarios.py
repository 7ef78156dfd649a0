"""Scenario fleet: compilation, chaos schedules, certified runs, crashes.

The fleet's promise is that *modeled applications at user scale* run on
the nested engine streaming-certified while chaos fires — and that every
run is self-judging via a conservation invariant.  These tests pin the
pieces: the O(1) Zipf sampler, sparse materialization, the declarative
chaos schedules (including determinism, which the seeded retry-jitter
bugfix in this PR makes meaningful end to end), the runner's verdicts,
fsync poisoning, and the SIGKILL crash stage.
"""

from __future__ import annotations

import collections
import random

import pytest

from repro.durability.crashtest import run_crash
from repro.scenarios import (
    SCENARIOS,
    ApproxZipf,
    ChaosSchedule,
    build_scenario,
    run_fsync_poison_scenario,
    run_scenario,
)
from repro.scenarios.chaos import ChaosPhase, with_hot_keys
from repro.workload.executor import all_failure_points
from repro.workload.shapes import Block, Op


class TestApproxZipf:
    def test_deterministic_for_seed(self):
        a = ApproxZipf(1_000_000, 0.9, random.Random(7))
        b = ApproxZipf(1_000_000, 0.9, random.Random(7))
        assert [a.sample() for _ in range(200)] == [b.sample() for _ in range(200)]

    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0, 1.2])
    def test_samples_in_range(self, theta):
        zipf = ApproxZipf(5_000_000, theta, random.Random(0))
        for _ in range(500):
            assert 0 <= zipf.sample() < 5_000_000

    def test_skew_concentrates_on_head(self):
        """At theta=1.1 the hottest rank dominates; at theta=0 it doesn't."""
        hot = ApproxZipf(100_000, 1.1, random.Random(1))
        counts = collections.Counter(hot.sample() for _ in range(5_000))
        assert counts[0] > 500  # rank 0 takes a large share
        uniform = ApproxZipf(100_000, 0.0, random.Random(1))
        flat_counts = collections.Counter(uniform.sample() for _ in range(5_000))
        assert flat_counts[0] < 50

    def test_constant_time_at_any_population(self):
        # The point of the approximation: no per-rank table, so a
        # 50-million-user population constructs instantly.
        zipf = ApproxZipf(50_000_000, 0.99, random.Random(2))
        assert 0 <= zipf.sample() < 50_000_000

    def test_validation(self):
        with pytest.raises(ValueError):
            ApproxZipf(0, 0.5, random.Random(0))
        with pytest.raises(ValueError):
            ApproxZipf(10, -0.1, random.Random(0))


class TestScenarioCompilation:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_compiles_and_materializes_sparsely(self, name):
        scenario = build_scenario(name, programs=50, users=1_000_000, seed=3)
        assert len(scenario.programs) == 50
        assert scenario.users == 1_000_000
        touched = {
            op.obj for p in scenario.programs for op in p.root.ops()
        }
        # Sparse: initial covers what the programs touch (plus ledgers),
        # and is nowhere near the logical population.
        assert touched <= set(scenario.initial)
        assert len(scenario.initial) < 5_000
        assert scenario.hot_keys
        assert set(scenario.hot_keys) <= set(scenario.initial)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_invariant_holds_on_initial_state(self, name):
        scenario = build_scenario(name, programs=30, users=100_000, seed=0)
        assert scenario.invariant(dict(scenario.initial)) is None

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_compilation_is_deterministic(self, name):
        a = build_scenario(name, programs=40, users=200_000, seed=9)
        b = build_scenario(name, programs=40, users=200_000, seed=9)
        assert [p.label for p in a.programs] == [p.label for p in b.programs]
        assert a.initial == b.initial

    def test_bank_invariant_catches_lost_money(self):
        scenario = build_scenario("bank", programs=20, users=10_000, seed=0)
        broken = dict(scenario.initial)
        first_account = next(k for k in broken if k.startswith("acct:"))
        broken[first_account] -= 1  # money vanished
        assert scenario.invariant(broken) is not None

    def test_social_invariant_catches_torn_fanout(self):
        scenario = build_scenario("social", programs=20, users=10_000, seed=0)
        broken = dict(scenario.initial)
        broken["social:deliveries"] += 3  # ledger without feed writes
        assert scenario.invariant(broken) is not None

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            build_scenario("nosuch")


class TestChaosSchedule:
    def test_phase_validation(self):
        with pytest.raises(ValueError):
            ChaosPhase(0.5, 0.5)
        with pytest.raises(ValueError):
            ChaosPhase(0.0, 1.0, failure_prob=1.5)
        with pytest.raises(ValueError):
            ChaosPhase(-0.1, 0.5)

    def test_burst_shape(self):
        schedule = ChaosSchedule.burst(0.05, window=(0.4, 0.6), prob=0.8)
        block = Block([Op("rmw", "x", 1)], failure_point=True)
        assert schedule.prob_for(0.1, block) == 0.05
        assert schedule.prob_for(0.5, block) == 0.8
        assert schedule.prob_for(0.9, block) == 0.05

    def test_ramp_monotone(self):
        schedule = ChaosSchedule.ramp(0.0, 1.0, steps=5)
        block = Block([Op("rmw", "x", 1)], failure_point=True)
        probs = [schedule.prob_for(p / 10, block) for p in range(10)]
        assert probs == sorted(probs)
        assert probs[0] < probs[-1]

    def test_storm_targets_hot_keys_only(self):
        schedule = ChaosSchedule.storm(hot_prob=0.9, hot_keys=frozenset({"hot"}))
        hot_block = Block([Op("increment", "hot", 1)], failure_point=True)
        cold_block = Block([Op("increment", "cold", 1)], failure_point=True)
        assert schedule.prob_for(0.5, hot_block) == pytest.approx(0.9)
        assert schedule.prob_for(0.5, cold_block) == 0.0

    def test_with_hot_keys_fills_targets(self):
        schedule = ChaosSchedule.storm(hot_prob=0.5)
        filled = with_hot_keys(schedule, ["a", "b"])
        assert filled.hot_keys == frozenset({"a", "b"})
        assert filled.phases == schedule.phases

    def test_firing_is_deterministic(self):
        """Same (schedule, seed, programs) → bit-identical injections."""
        scenario = build_scenario("bank", programs=30, users=10_000, seed=5)
        schedule = ChaosSchedule.steady(0.5, seed=5)

        def fired_sets():
            factory = schedule.firing_factory(len(scenario.programs))
            out = []
            for index, program in enumerate(scenario.programs):
                firing = factory(program, index)
                out.append(
                    sorted(
                        i
                        for i, b in enumerate(all_failure_points(program))
                        if firing.fires(b)
                    )
                )
            return out

        assert fired_sets() == fired_sets()

    def test_describe_is_json_ready(self):
        import json

        schedule = ChaosSchedule.burst(0.1, seed=2, fsync_fail_at=7)
        summary = json.loads(json.dumps(schedule.describe()))
        assert summary["seed"] == 2
        assert summary["fsync_fail_at"] == 7
        assert len(summary["phases"]) == 3


class TestRunScenario:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_certified_run_with_chaos(self, name):
        result = run_scenario(
            name,
            programs=25,
            users=20_000,
            threads=4,
            seed=1,
            chaos=ChaosSchedule.steady(0.4, seed=1),
        )
        assert result.ok, result.as_dict()
        assert result.certified is True
        assert result.invariant_ok
        assert result.quiescent
        assert result.committed + result.failed == result.programs
        assert result.injected > 0
        # Containment: every injected failure died as a child abort.
        assert result.containment == 1.0

    def test_clean_run(self):
        result = run_scenario("bank", programs=20, users=10_000, threads=2)
        assert result.ok
        assert result.injected == 0
        assert result.containment == 1.0
        assert result.failed == 0

    def test_hot_key_storm_fills_targets_from_scenario(self):
        result = run_scenario(
            "social",
            programs=25,
            users=20_000,
            threads=2,
            seed=2,
            chaos=ChaosSchedule.storm(hot_prob=0.9, seed=2),
        )
        assert result.ok, result.as_dict()
        assert result.chaos["hot_keys"]  # filled from scenario.hot_keys

    def test_certification_can_be_disabled(self):
        result = run_scenario(
            "marketplace", programs=10, users=5_000, threads=2, certify=None
        )
        assert result.certified is None
        assert result.ok  # invariant + quiescence still judged


class TestFsyncPoisonScenario:
    def test_poison_surfaces_and_recovery_is_consistent(self, tmp_path):
        outcome = run_fsync_poison_scenario(
            "bank",
            str(tmp_path),
            fsync_fail_at=4,
            programs=25,
            users=10_000,
            threads=2,
            seed=3,
        )
        # Pre-bugfix the WalSyncError killed a worker thread silently;
        # now it surfaces out of execute() and the run reports poisoned.
        assert outcome["poisoned"] is True
        assert outcome["invariant_ok"], outcome
        # The durable prefix is a real prefix: at least one commit can
        # exist, but the horizon never advanced past the failed fsync.
        assert outcome["committed_before_poison"] < 25


@pytest.mark.crash
class TestScenarioCrash:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_kill_recover_judge(self, name, tmp_path):
        report = run_crash(
            str(tmp_path),
            name,
            programs=30,
            users=20_000,
            seed=6,
            threads=2,
            min_acks=8,
            post=4,
        )
        assert report.ok, report.failures
        assert report.workload == name
        assert report.deterministic
        assert report.invariant_ok
        assert report.acked_programs >= 8
        assert report.recovered_units >= report.acked_units > 0
        assert report.post_committed == 4
        assert report.oracle_ok
        assert report.streaming_ok is True
