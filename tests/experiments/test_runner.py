"""Tests for the experiment runner and the RQ modules (on a small workload)."""

import numpy as np
import pytest

from repro.core import SpesConfig
from repro.experiments import ExperimentConfig, ExperimentRunner, rq1_coldstart, rq2_memory
from repro.experiments.rq3_tradeoff import givenup_sweep, linear_fit, prewarm_sweep, sweep_table
from repro.experiments.rq4_ablation import (
    ablation_table,
    adaptivity_ablation,
    correlation_ablation,
)
from repro.simulation import RunSpec


@pytest.fixture(scope="module")
def runner():
    config = ExperimentConfig(
        n_functions=60,
        seed=41,
        duration_days=4.0,
        training_days=3.0,
    )
    return ExperimentRunner(config, spec=RunSpec(warmup_minutes=360))


@pytest.fixture(scope="module")
def all_results(runner):
    return runner.run_all()


class TestRunner:
    def test_trace_built_once(self, runner):
        assert runner.trace is runner.trace
        assert runner.trace.duration_minutes == 4 * 1440

    def test_split_matches_config(self, runner):
        assert runner.split.training.duration_minutes == 3 * 1440
        assert runner.split.simulation.duration_minutes == 1440

    def test_run_all_contains_spes_and_baselines(self, all_results):
        assert "spes" in all_results
        assert "fixed-10min" in all_results
        assert "hybrid-application" in all_results
        assert "faascache" in all_results

    def test_results_cached(self, runner):
        first = runner.run_spes()
        second = runner.run_spes()
        assert first is second

    def test_variant_run_with_custom_config(self, runner):
        variants = {"variant-test": SpesConfig(theta_prewarm=1)}
        result = runner.run_spes_variants(variants)["variant-test"]
        assert result.policy_name == "spes"
        assert runner.run_spes_variants(variants)["variant-test"] is result

    def test_lcs_included_when_requested(self):
        config = ExperimentConfig(
            n_functions=40, seed=1, duration_days=3.0, training_days=2.0, include_lcs=True
        )
        assert "lcs" in ExperimentRunner(config).baseline_specs()


class TestRq1(object):
    def test_cdf_table_has_policy_columns(self, all_results):
        table = rq1_coldstart.csr_cdf_table(all_results)
        assert set(all_results).issubset(set(table.columns))
        assert len(table.rows) == 21

    def test_headline_improvements_table(self, all_results):
        table = rq1_coldstart.headline_improvements(all_results)
        spes_row = next(row for row in table.rows if row["policy"] == "spes")
        assert spes_row["q3_reduction_by_spes"] is None

    def test_memory_and_always_cold_normalized_to_spes(self, all_results):
        table = rq1_coldstart.memory_and_always_cold(all_results)
        spes_row = next(row for row in table.rows if row["policy"] == "spes")
        assert spes_row["normalized_memory"] == pytest.approx(1.0)

    def test_per_category_csr(self, runner):
        rates = rq1_coldstart.per_category_csr(runner.spes_policy(), runner.run_spes())
        assert rates
        assert all(0.0 <= value <= 1.0 for value in rates.values())

    def test_per_category_table_renders(self, runner):
        table = rq1_coldstart.per_category_csr_table(runner.spes_policy(), runner.run_spes())
        assert table.rows


class TestRq2:
    def test_wmt_emcr_table(self, all_results):
        table = rq2_memory.wmt_and_emcr_table(all_results)
        spes_row = next(row for row in table.rows if row["policy"] == "spes")
        assert spes_row["normalized_wmt"] == pytest.approx(1.0)

    def test_wmt_ratio_per_type(self, runner):
        ratios = rq2_memory.wmt_ratio_per_type(runner.spes_policy(), runner.run_spes())
        assert all(value >= 0.0 for value in ratios.values())

    def test_overhead_table(self, all_results):
        table = rq2_memory.overhead_comparison(all_results)
        assert len(table.rows) == len(all_results)


class TestRq3:
    def test_prewarm_sweep_points(self, runner):
        points = prewarm_sweep(runner, values=(1, 2))
        assert len(points) == 2
        assert all(point.normalized_memory > 0 for point in points)

    def test_givenup_sweep_memory_monotonic_trend(self, runner):
        points = givenup_sweep(runner, scales=(1, 5))
        assert points[1].normalized_memory >= points[0].normalized_memory

    def test_linear_fit_and_table(self, runner):
        points = prewarm_sweep(runner, values=(1, 2, 3))
        slope, intercept = linear_fit(points)
        assert np.isfinite(slope) and np.isfinite(intercept)
        table = sweep_table(points, "theta_prewarm", "sweep")
        assert len(table.rows) == 3

    def test_linear_fit_requires_two_points(self, runner):
        points = prewarm_sweep(runner, values=(2,))
        with pytest.raises(ValueError):
            linear_fit(points)


class TestRq4:
    def test_correlation_ablation_variants(self, runner):
        results = correlation_ablation(runner)
        assert set(results) == {"spes", "w/o-corr", "w/o-online-corr"}

    def test_adaptivity_ablation_variants(self, runner):
        results = adaptivity_ablation(runner)
        assert set(results) == {"spes", "w/o-forgetting", "w/o-adjusting"}

    def test_ablation_table_normalized_to_full_spes(self, runner):
        results = correlation_ablation(runner)
        table = ablation_table(results, "ablation")
        spes_row = next(row for row in table.rows if row["variant"] == "spes")
        assert spes_row["normalized_memory"] == pytest.approx(1.0)
        assert spes_row["normalized_wmt"] == pytest.approx(1.0)
