"""Tests for the SPES online provisioning policy (Algorithm 1)."""

import numpy as np
import pytest

from repro.core import SpesConfig, SpesPolicy
from repro.core.categories import FunctionCategory
from repro.simulation import simulate_policy
from repro.traces import FunctionRecord, Trace, TriggerType
from repro.traces.schema import MINUTES_PER_DAY, TraceMetadata
from repro.simulation.spec import RunSpec


def build_trace(counts, records, name="t"):
    duration = len(next(iter(counts.values())))
    return Trace(records, counts, TraceMetadata(name=name, duration_minutes=duration))


def periodic(duration, period, phase=0):
    series = np.zeros(duration, dtype=np.int64)
    series[phase::period] = 1
    return series


class TestRegularProvisioning:
    def test_periodic_function_prewarmed_with_little_waste(self):
        duration_train = 4 * MINUTES_PER_DAY
        duration_sim = MINUTES_PER_DAY
        records = [FunctionRecord("timer", "a", "o", TriggerType.TIMER)]
        training = build_trace({"timer": periodic(duration_train, 60)}, records, "train")
        simulation = build_trace({"timer": periodic(duration_sim, 60)}, records, "sim")
        result = simulate_policy(
            SpesPolicy(), simulation, training, spec=RunSpec(warmup_minutes=120)
        )
        stats = result.per_function["timer"]
        assert stats.cold_start_rate < 0.1
        # Pre-warming costs at most ~2 * theta_prewarm + 1 idle minutes per cycle.
        assert stats.wasted_memory_time <= stats.invocations * 6

    def test_always_warm_function_never_evicted(self):
        duration = MINUTES_PER_DAY
        records = [FunctionRecord("hot", "a", "o", TriggerType.HTTP)]
        training = build_trace({"hot": np.ones(duration, dtype=np.int64)}, records, "train")
        simulation = build_trace({"hot": np.ones(duration, dtype=np.int64)}, records, "sim")
        result = simulate_policy(
            SpesPolicy(), simulation, training, spec=RunSpec(warmup_minutes=60)
        )
        assert result.per_function["hot"].cold_starts == 0


class TestBurstyProvisioning:
    def test_successive_function_cold_only_at_burst_heads(self):
        duration = 2 * MINUTES_PER_DAY
        series = np.zeros(duration, dtype=np.int64)
        for start in range(100, duration - 40, 700):
            series[start : start + 20] = 1
        records = [FunctionRecord("bursty", "a", "o", TriggerType.HTTP)]
        training = build_trace({"bursty": series}, records, "train")
        simulation = build_trace({"bursty": series}, records, "sim")
        result = simulate_policy(SpesPolicy(), simulation, training, spec=RunSpec(warmup_minutes=0))
        stats = result.per_function["bursty"]
        bursts = max(1, round(duration / 700))
        # At most one cold start per burst (plus slack for the boundary).
        assert stats.cold_starts <= bursts + 1
        assert stats.cold_start_rate < 0.15


class TestCorrelatedProvisioning:
    def _chained_traces(self):
        duration = 4 * MINUTES_PER_DAY
        rng = np.random.default_rng(3)
        minutes = np.sort(rng.choice(duration - 10, size=400, replace=False))
        parent = np.zeros(duration, dtype=np.int64)
        parent[minutes] = 1
        child = np.zeros(duration, dtype=np.int64)
        child[minutes + 3] = 1
        records = [
            FunctionRecord("parent", "app", "owner", TriggerType.ORCHESTRATION),
            FunctionRecord("child", "app", "owner", TriggerType.QUEUE),
        ]
        training = build_trace({"parent": parent, "child": child}, records, "train")
        simulation = build_trace({"parent": parent, "child": child}, records, "sim")
        return training, simulation

    def test_correlated_child_rarely_cold(self):
        training, simulation = self._chained_traces()
        policy = SpesPolicy()
        result = simulate_policy(policy, simulation, training, spec=RunSpec(warmup_minutes=0))
        child_stats = result.per_function["child"]
        assert child_stats.cold_start_rate < 0.3

    def test_disabling_correlation_hurts_child(self):
        training, simulation = self._chained_traces()
        with_corr = simulate_policy(
            SpesPolicy(), simulation, training, spec=RunSpec(warmup_minutes=0)
        )
        without_corr = simulate_policy(
            SpesPolicy(SpesConfig(enable_correlation=False, enable_online_correlation=False)),
            simulation,
            training,
            spec=RunSpec(warmup_minutes=0),
        )
        assert (
            with_corr.per_function["child"].cold_starts
            <= without_corr.per_function["child"].cold_starts
        )


class TestUnseenFunctions:
    def test_unseen_function_tracked_online(self):
        duration = 2 * MINUTES_PER_DAY
        records = [
            FunctionRecord("known", "app", "o", TriggerType.HTTP),
            FunctionRecord("unseen", "app", "o", TriggerType.HTTP),
        ]
        training = build_trace(
            {"known": periodic(duration, 10), "unseen": np.zeros(duration, dtype=np.int64)},
            records,
            "train",
        )
        sim_unseen = periodic(MINUTES_PER_DAY, 10, phase=3)
        simulation = build_trace(
            {"known": periodic(MINUTES_PER_DAY, 10), "unseen": sim_unseen}, records, "sim"
        )
        policy = SpesPolicy()
        result = simulate_policy(policy, simulation, training, spec=RunSpec(warmup_minutes=0))
        assert result.per_function["unseen"].invocations > 0
        # The unseen function should not be always cold thanks to online
        # correlation / promotion.
        assert result.per_function["unseen"].cold_start_rate < 1.0


class TestPolicyIntrospection:
    def test_category_assignments_exposed(self, small_split):
        policy = SpesPolicy()
        simulate_policy(
            policy, small_split.simulation, small_split.training, spec=RunSpec(warmup_minutes=0)
        )
        assignments = policy.category_assignments()
        assert assignments
        assert all(isinstance(value, FunctionCategory) for value in assignments.values())

    def test_states_and_resident_set_available(self, small_split):
        policy = SpesPolicy()
        simulate_policy(
            policy, small_split.simulation, small_split.training, spec=RunSpec(warmup_minutes=0)
        )
        assert policy.states
        assert isinstance(policy.resident_functions, set)

    def test_policy_without_training_still_works(self):
        duration = 600
        records = [FunctionRecord("f", "a", "o")]
        simulation = build_trace({"f": periodic(duration, 10)}, records, "sim")
        result = simulate_policy(SpesPolicy(), simulation, None, spec=RunSpec(warmup_minutes=0))
        assert result.per_function["f"].invocations == 60

    def test_invocation_conservation(self, small_split):
        policy = SpesPolicy()
        result = simulate_policy(
            policy, small_split.simulation, small_split.training, spec=RunSpec(warmup_minutes=0)
        )
        expected = sum(
            1
            for fid in small_split.simulation.function_ids
            for count in small_split.simulation.series(fid)
            if count > 0
        )
        assert result.total_invocations == expected

    def test_cold_starts_never_exceed_invocations(self, small_split):
        result = simulate_policy(
            SpesPolicy(),
            small_split.simulation,
            small_split.training,
            spec=RunSpec(warmup_minutes=0),
        )
        for stats in result.per_function.values():
            assert 0 <= stats.cold_starts <= stats.invocations


class TestAblationFlags:
    @pytest.mark.parametrize(
        "flag",
        ["enable_correlation", "enable_online_correlation", "enable_forgetting", "enable_adjusting"],
    )
    def test_each_flag_can_be_disabled(self, small_split, flag):
        config = SpesConfig(**{flag: False})
        result = simulate_policy(
            SpesPolicy(config),
            small_split.simulation,
            small_split.training,
            spec=RunSpec(warmup_minutes=0),
        )
        assert 0.0 <= result.overall_cold_start_rate <= 1.0
