"""Tests for result-cache hygiene and runner resource warnings (satellite #2)."""

import os
import time

import pytest

from repro.experiments import ParallelRunner, PolicySpec, ResultCache
from repro.simulation import SimulationResult
from repro.traces import AzureTraceGenerator, GeneratorProfile, split_trace
from repro.simulation.spec import RunSpec


@pytest.fixture(scope="module")
def split():
    trace = AzureTraceGenerator(GeneratorProfile.small(seed=4)).generate()
    return split_trace(trace, training_days=2.0)


class TestResultCachePrune:
    def test_prunes_only_entries_older_than_the_horizon(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("old", SimulationResult(policy_name="p", duration_minutes=1))
        cache.put("new", SimulationResult(policy_name="p", duration_minutes=1))
        stale = tmp_path / "old.pkl"
        two_days_ago = time.time() - 2 * 86400
        os.utime(stale, (two_days_ago, two_days_ago))

        removed = cache.prune(max_age_days=1)

        assert removed == 1
        assert not stale.exists()
        assert cache.get("new") is not None

    def test_prune_sweeps_stray_temporary_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        stray = tmp_path / "deadbeef.12345.tmp"
        stray.write_bytes(b"crashed writer leftovers")
        old = time.time() - 10 * 86400
        os.utime(stray, (old, old))

        assert cache.prune(max_age_days=7) == 1
        assert not stray.exists()

    def test_prune_zero_days_clears_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a", SimulationResult(policy_name="p", duration_minutes=1))
        cache.put("b", SimulationResult(policy_name="p", duration_minutes=1))
        assert cache.prune(max_age_days=0) == 2
        assert cache.get("a") is None

    def test_negative_age_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path).prune(max_age_days=-1)


class TestWorkerOversubscriptionWarning:
    def test_warns_when_workers_exceed_cpu_count(self, split):
        excessive = (os.cpu_count() or 1) + 1
        with pytest.warns(RuntimeWarning, match="exceeds"):
            ParallelRunner({"w": split}, workers=excessive, spec=RunSpec(warmup_minutes=0))

    def test_no_warning_at_or_below_cpu_count(self, split, recwarn):
        ParallelRunner({"w": split}, workers=1, spec=RunSpec(warmup_minutes=0))
        assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]


class TestClusterCacheKeys:
    def test_cluster_configuration_is_part_of_the_cache_key(self, split):
        from repro.simulation import ClusterModel

        spec = PolicySpec.of("fixed-10min")
        uncapped = ParallelRunner({"w": split}, spec=RunSpec(warmup_minutes=0))
        capped = ParallelRunner(
            {"w": split},
            spec=RunSpec(warmup_minutes=0),
            clusters={"w": ClusterModel(memory_capacity=8, n_nodes=2)},
        )
        cell_a = uncapped.cell("c", spec, "w")
        cell_b = capped.cell("c", spec, "w")
        assert uncapped.cache_key(cell_a) != capped.cache_key(cell_b)

    def test_clusters_must_reference_known_trace_keys(self, split):
        from repro.simulation import ClusterModel

        with pytest.raises(KeyError, match="unknown trace key"):
            ParallelRunner(
                {"w": split},
                spec=RunSpec(warmup_minutes=0),
                clusters={"elsewhere": ClusterModel(memory_capacity=4)},
            )
