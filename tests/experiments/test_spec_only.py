"""A run is configured through its RunSpec alone.

Warm-up, engine and the other run-shape fields reach a simulation only from
the :class:`~repro.simulation.spec.RunSpec` an entry point receives; the
experiment configuration describes the workload, not the run.  Per-trace-key
overrides on the parallel runner resolve into per-cell specs when the runner
is built, so an invalid one fails there, with the spec's own message.
"""

from __future__ import annotations

import pytest

from pin_workload import pin_split
from repro.experiments import ExperimentConfig, ExperimentRunner, ExperimentSuite, ParallelRunner
from repro.experiments.parallel import PolicySpec
from repro.simulation import ClusterModel, EventConfig, RunSpec, simulate_policy

FIXED = PolicySpec.of("fixed-10min")
COLD = RunSpec(warmup_minutes=0)


def _direct_fingerprint(split, spec: RunSpec) -> str:
    return simulate_policy(
        FIXED.build(), split.simulation, split.training, spec=spec
    ).deterministic_fingerprint()


class TestWarmupComesFromTheSpec:
    def test_experiment_config_has_no_warmup(self):
        with pytest.raises(TypeError):
            ExperimentConfig(warmup_minutes=0)

    def test_suite_simulates_with_the_spec_warmup(self):
        config = ExperimentConfig(n_functions=12, seed=5, duration_days=2.0, training_days=1.0)
        suite = ExperimentSuite(config=config, seeds=[5], policies=("fixed-10min",), spec=COLD)
        result = suite.run().results[5]["fixed-10min"]
        split = suite.traces()[suite.trace_key(5)]
        cold = _direct_fingerprint(split, COLD)
        assert result.deterministic_fingerprint() == cold
        # The workload is warm-up sensitive, so the check above has teeth.
        assert _direct_fingerprint(split, RunSpec()) != cold

    def test_runner_simulates_with_the_spec_warmup(self):
        split = pin_split()
        runner = ExperimentRunner(split=split, spec=COLD)
        cold = _direct_fingerprint(split, COLD)
        fanned_out = runner.run_specs({"fixed": FIXED})["fixed"]
        in_process = runner.simulate(FIXED.build())
        assert fanned_out.deterministic_fingerprint() == cold
        assert in_process.deterministic_fingerprint() == cold
        assert _direct_fingerprint(split, RunSpec()) != cold


class TestPerKeyConfigFailsAtConstruction:
    def test_event_config_on_a_minute_engine(self):
        with pytest.raises(ValueError, match="an EventConfig requires an event engine"):
            ParallelRunner({"t": pin_split()}, events={"t": EventConfig(seed=1)})

    def test_cluster_on_the_reference_engine(self):
        with pytest.raises(ValueError, match="cluster mode requires a mask-based engine"):
            ParallelRunner(
                {"t": pin_split()},
                clusters={"t": ClusterModel(memory_capacity=4)},
                spec=RunSpec(engine="reference"),
            )

    def test_per_key_event_config_reaches_the_cell(self):
        events = EventConfig(seed=1)
        runner = ParallelRunner(
            {"t": pin_split()}, events={"t": events}, spec=RunSpec(engine="event")
        )
        assert runner.cell_run_spec("t").events == events
