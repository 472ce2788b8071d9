"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation.
The underlying simulations are expensive, so they run once per benchmark
session in the fixtures below; the timed portion of each benchmark is the
derivation of the reported rows/series from the cached simulation results.
Each benchmark also writes its table to ``benchmarks/output/`` so the numbers
can be inspected after the run (see EXPERIMENTS.md).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import ExperimentConfig, ExperimentRunner

#: Workload used by every benchmark: 14 days, 12-day training window, a few
#: hundred functions so the whole suite completes in minutes on a laptop.
BENCHMARK_CONFIG = ExperimentConfig(
    n_functions=250,
    seed=2024,
    duration_days=14.0,
    training_days=12.0,
)

OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    """The shared experiment runner (workload generated lazily)."""
    return ExperimentRunner(BENCHMARK_CONFIG)


@pytest.fixture(scope="session")
def trace(runner):
    """The full 14-day synthetic workload."""
    return runner.trace


@pytest.fixture(scope="session")
def all_results(runner):
    """Simulation results of SPES and every baseline (computed once)."""
    return runner.run_all()


@pytest.fixture(scope="session")
def spes_policy(runner):
    """The prepared SPES policy behind the cached SPES result."""
    runner.run_spes()
    return runner.spes_policy()


@pytest.fixture(scope="session")
def output_dir() -> Path:
    """Directory collecting the rendered tables."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


def save_and_print(output_dir: Path, name: str, text: str) -> None:
    """Print a rendered table and persist it under ``benchmarks/output``."""
    print()
    print(text)
    (output_dir / f"{name}.txt").write_text(text + "\n")
