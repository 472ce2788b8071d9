"""Cross-layer validation parity: one bad configuration, one message.

Every entry point takes one :class:`~repro.simulation.spec.RunSpec` and
re-validates it on entry (an unpickled frozen spec never ran
``__post_init__``), so all of them reject the same invalid spec with the
*identical* ``ValueError`` message that constructing the spec raises.  The
only rule that lives outside the spec is the suite's: its CPU/SLO overlays
need an event engine.
"""

from __future__ import annotations

import dataclasses

import pytest

from pin_workload import pin_split
from repro.experiments import ExperimentConfig, ExperimentRunner, ExperimentSuite, ParallelRunner
from repro.simulation import RunSpec, Simulator

#: Invalid spec fields, with the start of the message each must raise.
BAD_CONFIGS = {
    "mb-on-reference": (
        dict(engine="reference", memory_mode="mb"),
        "MB-mode accounting requires a mask-based engine",
    ),
    "unknown-engine": (dict(engine="quantum"), "unknown engine 'quantum'"),
    "unknown-memory-mode": (dict(memory_mode="gb"), "unknown memory_mode 'gb'"),
    "negative-shards": (dict(shards=-1), "shards must be non-negative"),
}


def _unvalidated(**fields) -> RunSpec:
    """A spec that skipped ``__post_init__``, as an unpickled one does."""
    spec = object.__new__(RunSpec)
    for field in dataclasses.fields(RunSpec):
        object.__setattr__(spec, field.name, fields.get(field.name, field.default))
    return spec


def _raised_message(exercise) -> str:
    with pytest.raises(ValueError) as excinfo:
        exercise()
    return str(excinfo.value)


@pytest.mark.parametrize("fields, prefix", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
def test_all_layers_raise_the_identical_message(fields, prefix):
    split = pin_split()
    config = ExperimentConfig(n_functions=4)
    spec_message = _raised_message(lambda: RunSpec(**fields))
    assert spec_message.startswith(prefix)
    bad = _unvalidated(**fields)
    entry_points = {
        "simulator": lambda: Simulator(split.simulation, split.training, spec=bad),
        "runner": lambda: ParallelRunner({"t": split}, spec=bad),
        "suite": lambda: ExperimentSuite(config=config, spec=bad),
        "experiment-runner": lambda: ExperimentRunner(config=config, split=split, spec=bad),
    }
    for name, build in entry_points.items():
        assert _raised_message(build) == spec_message, name


def test_suite_cpu_overlays_require_an_event_engine():
    for overlay in (dict(cores=2), dict(slo_ms=100.0), dict(cores=2, scheduler="rr")):
        with pytest.raises(ValueError, match="require an event engine, not 'vectorized'"):
            ExperimentSuite(**overlay)
        ExperimentSuite(**overlay, spec=RunSpec(engine="event"))
