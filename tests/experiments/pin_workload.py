"""The frozen workload and configuration matrix behind the cache-key pins.

The golden cache-key suite (``test_cache_key_pins.py``) asserts that the
:meth:`~repro.experiments.parallel.ParallelRunner.cache_key` digests of a
representative configuration matrix never change: every digest was computed
with the hand-assembled pre-``RunSpec`` key derivation and pinned, so the
``canonical()``-derived keys must reproduce them byte-for-byte — otherwise
every user's on-disk result cache would silently go cold.

Everything here is hand-built and arithmetic-deterministic (no RNG, no
generator), so the pins depend only on the cache-key derivation itself plus
the trace fingerprint format — exactly the contract under test.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.experiments.parallel import ParallelRunner, PolicySpec
from repro.simulation import ClusterModel, EventConfig, RunSpec
from repro.simulation.scheduling import CpuConfig
from repro.traces import FunctionRecord, Trace, TriggerType, split_trace
from repro.traces.schema import TraceMetadata

#: Minutes in the frozen workload (2 days; the split trains on day 1).
PIN_DURATION = 2880

TRIGGER_CYCLE = (
    TriggerType.HTTP,
    TriggerType.TIMER,
    TriggerType.QUEUE,
    TriggerType.OTHERS,
)


def pin_split():
    """A 6-function, 2-day train/simulation split built from arithmetic."""
    records = []
    counts: Dict[str, np.ndarray] = {}
    for i in range(6):
        function_id = f"pin-{i:02d}"
        records.append(
            FunctionRecord(
                function_id=function_id,
                app_id=f"app-{i // 2:02d}",
                owner_id=f"owner-{i // 3:02d}",
                trigger=TRIGGER_CYCLE[i % len(TRIGGER_CYCLE)],
                archetype="periodic",
            )
        )
        series = np.zeros(PIN_DURATION, dtype=np.int64)
        series[:: 7 + i] = 1 + (i % 2)
        counts[function_id] = series
    metadata = TraceMetadata(name="cache-key-pin", duration_minutes=PIN_DURATION, seed=0)
    return split_trace(Trace(records, counts, metadata), training_days=1.0)


def pin_specs() -> Dict[str, PolicySpec]:
    """The policy specs every pinned configuration is keyed with."""
    return {
        "fixed-10min": PolicySpec.of("fixed-keepalive", keep_alive_minutes=10),
        "hybrid-function": PolicySpec.of("hybrid-function"),
    }


def pin_runners(split) -> Dict[str, ParallelRunner]:
    """The representative configuration matrix, one runner per scenario."""
    traces = {"t": split}
    return {
        "default": ParallelRunner(traces, spec=RunSpec(warmup_minutes=1440)),
        "event-cpu": ParallelRunner(
            traces,
            spec=RunSpec(warmup_minutes=1440, engine="event"),
            events={
                "t": EventConfig(
                    seed=7,
                    cpu=CpuConfig(cores_per_node=2, scheduler="srtf"),
                    slo_ms=500.0,
                )
            },
        ),
        "sharded": ParallelRunner(
            traces, spec=RunSpec(warmup_minutes=1440, shards=4, shard_placement="least-loaded")
        ),
        "mb": ParallelRunner(traces, spec=RunSpec(warmup_minutes=1440, memory_mode="mb")),
        "streaming": ParallelRunner(traces, spec=RunSpec(warmup_minutes=0, streaming=True)),
        "cluster": ParallelRunner(
            traces,
            spec=RunSpec(warmup_minutes=1440),
            clusters={"t": ClusterModel(memory_capacity=8, n_nodes=2)},
        ),
    }


def compute_keys() -> Dict[str, str]:
    """``{"config/policy": cache_key}`` over the whole matrix."""
    split = pin_split()
    keys: Dict[str, str] = {}
    for config_name, runner in pin_runners(split).items():
        for spec_name, spec in pin_specs().items():
            cell = runner.cell(spec_name, spec, "t", base_seed=0)
            keys[f"{config_name}/{spec_name}"] = runner.cache_key(cell)
    return keys


if __name__ == "__main__":
    for name, key in compute_keys().items():
        print(f'    "{name}": "{key}",')
