"""The benchmark's workloads: inputs built from a seed, sweeps, checks.

Each workload is a fixed sweep run to completion:

* ``paper-suite`` — the paper's six-policy comparison on a 14-day synthetic
  Azure-like trace (12 days training, 2 simulated), run serially through
  ``ParallelRunner.run_cells``.  Offline mining dominates.
* ``latency-cpu`` — fixed keep-alive on the event engine over a capped
  4-node cluster, once per CPU discipline.  Event expansion, CPU scheduling
  and the cluster arbiter dominate.
* ``sharded-scale`` — a wide sparse CSR trace run with 2 workers and
  ``shards=2`` into an empty result cache, then replayed from the cache.
  Pool start-up, trace pickling, shard merge and cache I/O dominate.

Every entry point is built from a ``RunSpec`` and every policy is named by
its ``*-indexed`` registry key.  ``sweep`` is the untraced path the
end-to-end metrics time; ``traced_sweep`` runs the same cells with a span
around each call into a layer, and must reproduce the same fingerprints.
"""

from __future__ import annotations

import json
import pickle
import shutil
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.experiments.parallel import (
    ParallelRunner,
    PolicySpec,
    ResultCache,
    SweepCell,
    derive_cell_seed,
)
from repro.simulation import (
    ClusterModel,
    CpuConfig,
    EventConfig,
    RunSpec,
    ShardFallbackWarning,
    SimulationResult,
    Simulator,
    shard_assignment,
)
from repro.traces import (
    MINUTES_PER_DAY,
    AzureTraceGenerator,
    GeneratorProfile,
    SparseTrace,
    Trace,
    TraceSplit,
    split_trace,
)
from repro.traces.schema import FunctionRecord, TraceMetadata

from tracing import Tracer

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: Layer that owns each policy's ``prepare`` and per-minute decisions.
POLICY_LAYER = {
    "spes-indexed": "core",
    "defuse-indexed": "baselines.defuse",
    "hybrid-function-indexed": "baselines.hybrid",
    "hybrid-application-indexed": "baselines.hybrid",
    "fixed-10min-indexed": "baselines.fixed",
    "faascache-indexed": "baselines.faascache",
}

#: Generator seed of the population shape of the synthetic workloads.  The
#: run's ``--seed`` rotates each application's timeline (see
#: :func:`rotate_applications`), so every seed simulates different inputs
#: while the per-application mining cost, which is heavy-tailed in the
#: population shape, stays nearly the same from seed to seed.
SHAPE_SEED = 2024

Problem = Tuple[str, str]


class _NoTracer:
    """Stands in for a :class:`Tracer` on the untraced path."""

    @staticmethod
    def span(name: str, cell: str | None = None) -> nullcontext:
        return nullcontext({})


NO_TRACER = _NoTracer()


@dataclass
class Inputs:
    """A workload's inputs: the trace split plus workload-specific extras."""

    seed: int
    split: TraceSplit
    cluster: ClusterModel | None = None


@dataclass
class Sweep:
    """What one sweep produced."""

    #: Results the sweep computed (a cache replay only checks them).
    results: Dict[str, SimulationResult]
    problems: List[Problem] = field(default_factory=list)
    #: Per-layer metrics, filled by a traced sweep only.
    layers: Dict[str, float] = field(default_factory=dict)
    #: Traced seconds of the work the untraced sweep does, when a traced
    #: sweep does more (``None``: the whole traced sweep is that work).
    comparable_seconds: float | None = None


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #
def rotate_applications(trace: Trace, seed: int) -> Trace:
    """Rotate each application's series by a seeded offset under one day.

    Functions of one application shift together, so chains and co-occurrence
    inside an application survive while the alignment between applications
    changes.  An offset under a day moves little activity across the
    training/simulation boundary, so the work a seed asks for stays close to
    that of any other seed.  Functions the generator confined to the final
    window ("unseen" in training) and never-invoked functions keep their
    series.
    """
    rng = np.random.default_rng(seed)
    shift_of: Dict[str, int] = {}
    counts = {}
    for record in trace.records():
        series = trace.series(record.function_id)
        archetype = record.archetype or ""
        if archetype.startswith("unseen") or archetype == "never_invoked":
            counts[record.function_id] = series
            continue
        if record.app_id not in shift_of:
            shift_of[record.app_id] = int(rng.integers(0, MINUTES_PER_DAY))
        counts[record.function_id] = np.roll(series, shift_of[record.app_id])
    return Trace(trace.records(), counts, trace.metadata)


def synthetic_split(
    seed: int, n_functions: int, days: float, training_days: float, tracer
):
    with tracer.span("traces.generate"):
        profile = GeneratorProfile(
            n_functions=n_functions,
            duration_days=days,
            unseen_window_days=min(2.0, days - training_days),
            seed=SHAPE_SEED,
        )
        trace = rotate_applications(AzureTraceGenerator(profile).generate(), seed)
    with tracer.span("traces.split"):
        split = split_trace(trace, training_days=training_days)
    with tracer.span("traces.index"):
        split.training.invocation_index()
        split.simulation.invocation_index()
    return split


def azure2019_csr_trace(seed: int, n_functions: int, days: int) -> SparseTrace:
    """A sparse trace in the Azure-2019 shape, drawn directly as CSR.

    About nine active minutes per function per day, uniformly placed, with
    one to three invocations per active minute; functions are grouped into
    2,000 applications of 400 owners as in the public dataset's id layout.
    """
    rng = np.random.default_rng(seed)
    duration = days * MINUTES_PER_DAY
    active = rng.poisson(9 * days, n_functions).astype(np.int64) + 1
    rows = np.repeat(np.arange(n_functions, dtype=np.int64), active)
    minutes = rng.integers(0, duration, rows.size, dtype=np.int64)
    keys = np.unique(rows * np.int64(duration) + minutes)
    fn_indptr = np.zeros(n_functions + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // duration, minlength=n_functions), out=fn_indptr[1:])
    fn_counts = rng.integers(1, 4, keys.size, dtype=np.int64)
    records = [
        FunctionRecord(
            function_id=f"u{i % 400}/a{i % 2000}/f{i}",
            app_id=f"u{i % 400}/a{i % 2000}",
            owner_id=f"u{i % 400}",
        )
        for i in range(n_functions)
    ]
    metadata = TraceMetadata(name=f"csr-{n_functions}f-{days}d", duration_minutes=duration)
    return SparseTrace(records, fn_indptr, keys % duration, fn_counts, duration, metadata)


# --------------------------------------------------------------------- #
# Simulated outputs, pins and checks
# --------------------------------------------------------------------- #
def outputs(result: SimulationResult) -> Dict[str, object]:
    """The simulated outputs a run reports and checks (never ranks)."""
    values: Dict[str, object] = {
        "fingerprint": result.deterministic_fingerprint(),
        "q3_cold_start_rate": result.q3_cold_start_rate,
        "total_wasted_memory_time": int(result.total_wasted_memory_time),
        "cold_starts": int(result.total_cold_starts),
    }
    if result.latency is not None:
        values["latency_p99_ms"] = result.latency.p99_ms
        values["slowdown_p99"] = result.latency.slowdown_p99
        values["slo_violation_rate"] = result.latency.slo_violation_rate
    return values


def load_pins() -> Dict[str, Dict[str, Dict[str, Dict[str, object]]]]:
    if not PINS_PATH.exists():
        return {}
    return json.loads(PINS_PATH.read_text())


def write_pins(workload: str, seed: int, results: Dict[str, SimulationResult]) -> None:
    pins = load_pins()
    pins.setdefault(workload, {})[str(seed)] = {
        name: outputs(result) for name, result in results.items()
    }
    pins[workload] = dict(sorted(pins[workload].items(), key=lambda item: int(item[0])))
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def check_pins(
    pinned: Dict[str, Dict[str, object]], results: Dict[str, SimulationResult]
) -> List[Problem]:
    problems: List[Problem] = []
    if set(pinned) != set(results):
        problems.append(("*", f"cells {sorted(results)} differ from pinned {sorted(pinned)}"))
    for name in sorted(set(pinned) & set(results)):
        got = outputs(results[name])
        differ = [
            key
            for key in sorted(set(got) | set(pinned[name]))
            if json.dumps(got.get(key)) != json.dumps(pinned[name].get(key))
        ]
        if differ:
            problems.append((name, f"differs from its pin in {', '.join(differ)}"))
    return problems


def same_fingerprints(
    expected: Dict[str, SimulationResult], got: Dict[str, SimulationResult], what: str
) -> List[Problem]:
    problems: List[Problem] = []
    for name, result in expected.items():
        other = got.get(name)
        if other is None:
            problems.append((name, f"missing from the {what}"))
        elif other.deterministic_fingerprint() != result.deterministic_fingerprint():
            problems.append((name, f"fingerprint differs in the {what}"))
    return problems


# --------------------------------------------------------------------- #
# Traced execution of one cell
# --------------------------------------------------------------------- #
@dataclass
class TracedCell:
    result: SimulationResult
    policy: object
    seconds: float


def run_traced(
    tracer: Tracer, simulator: Simulator, spec: PolicySpec, seed: int, cell: str
) -> TracedCell:
    """``Simulator.run`` split into its prepare and minute-loop spans.

    Equivalent to ``simulator.run(spec.build(seed))``: the offline phase gets
    the same records and training window the simulator would pass it.
    """
    layer = POLICY_LAYER[spec.policy]
    with tracer.span("cell", cell=cell) as cell_span:
        policy = spec.build(seed=seed)
        with tracer.span(f"{layer}.prepare"):
            policy.prepare(simulator.simulation_trace.records(), simulator.training_trace)
        with tracer.span("simulation.run") as run_span:
            result = simulator.run(policy, prepare=False)
        run_span["policy"] = spec.policy
        run_span["overhead_s"] = result.overhead_seconds
    return TracedCell(result, policy, tracer.duration(cell_span))


def cell_simulator(runner: ParallelRunner, cell: SweepCell) -> Simulator:
    split = runner.traces[cell.trace_key]
    return Simulator(
        split.simulation,
        training_trace=split.training,
        spec=runner.cell_run_spec(cell.trace_key),
    )


def policy_layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """``prepare``/decide/engine seconds per layer from the traced spans."""
    metrics = {
        "core.prepare_s": tracer.total("core.prepare"),
        "baselines.defuse.prepare_s": tracer.total("baselines.defuse.prepare"),
        "baselines.hybrid.prepare_s": tracer.total("baselines.hybrid.prepare"),
        "core.decide_s": 0.0,
        "baselines.defuse.decide_s": 0.0,
        "baselines.hybrid.decide_s": 0.0,
        "simulation.engine_s": 0.0,
    }
    for record in tracer.spans:
        if record["name"] != "simulation.run":
            continue
        overhead = float(record["overhead_s"])
        metrics["simulation.engine_s"] += tracer.duration(record) - overhead
        decide = f"{POLICY_LAYER[str(record['policy'])]}.decide_s"
        if decide in metrics:
            metrics[decide] += overhead
    return metrics


def result_counts(
    results: Dict[str, SimulationResult], window_events: int
) -> Dict[str, float]:
    """Counts over the sweep's results; they must repeat exactly.

    ``simulation.events`` counts the invocation events each cell simulated:
    the event engine's own count where it ran, else the window's total.
    """
    counts = dict.fromkeys(
        (
            "simulation.events",
            "simulation.cold_starts",
            "simulation.wmt",
            "simulation.cpu_delayed_events",
            "simulation.evictions",
            "simulation.capacity_cold_starts",
        ),
        0,
    )
    for result in results.values():
        counts["simulation.cold_starts"] += result.total_cold_starts
        counts["simulation.wmt"] += int(result.total_wasted_memory_time)
        if result.latency is None:
            counts["simulation.events"] += window_events
        else:
            counts["simulation.events"] += result.latency.total_events
            counts["simulation.cpu_delayed_events"] += result.latency.cpu_delayed_events
        if result.cluster is not None:
            counts["simulation.evictions"] += result.cluster.evictions
            counts["simulation.capacity_cold_starts"] += result.cluster.capacity_cold_starts
    return counts


# --------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------- #
class Workload:
    name: str

    def setup(self, seed: int, tracer=NO_TRACER) -> Inputs:
        raise NotImplementedError

    def sweep(self, inputs: Inputs) -> Sweep:
        raise NotImplementedError

    def traced_sweep(self, inputs: Inputs, tracer: Tracer) -> Sweep:
        raise NotImplementedError

    def verify(self, inputs: Inputs, sweep: Sweep) -> List[Problem]:
        """Checks that cost extra work; run once per benchmark run."""
        return []


class PaperSuite(Workload):
    name = "paper-suite"
    n_functions = 100
    days = 14.0
    training_days = 12.0
    spec = RunSpec(engine="vectorized", warmup_minutes=1440)
    baselines = (
        "fixed-10min-indexed",
        "hybrid-function-indexed",
        "hybrid-application-indexed",
        "defuse-indexed",
    )

    def setup(self, seed: int, tracer=NO_TRACER) -> Inputs:
        split = synthetic_split(seed, self.n_functions, self.days, self.training_days, tracer)
        return Inputs(seed=seed, split=split)

    def _runner(self, inputs: Inputs) -> ParallelRunner:
        return ParallelRunner({"suite": inputs.split}, workers=0, spec=self.spec)

    def _spes_cell(self, runner: ParallelRunner, seed: int) -> SweepCell:
        return runner.cell("spes-indexed", PolicySpec.of("spes-indexed"), "suite", seed)

    def _baseline_cells(
        self, runner: ParallelRunner, seed: int, spes: SimulationResult
    ) -> List[SweepCell]:
        # FaaSCache's capacity is SPES's peak, as ExperimentSuite sets it.
        capacity = max(1, int(spes.peak_memory_usage))
        specs = [PolicySpec.of(name) for name in self.baselines]
        specs.append(PolicySpec.of("faascache-indexed", capacity=capacity))
        return [runner.cell(spec.policy, spec, "suite", seed) for spec in specs]

    def sweep(self, inputs: Inputs) -> Sweep:
        runner = self._runner(inputs)
        results = runner.run_cells([self._spes_cell(runner, inputs.seed)])
        cells = self._baseline_cells(runner, inputs.seed, results["spes-indexed"])
        results.update(runner.run_cells(cells))
        return Sweep(results=results)

    def traced_sweep(self, inputs: Inputs, tracer: Tracer) -> Sweep:
        runner = self._runner(inputs)
        spes_cell = self._spes_cell(runner, inputs.seed)
        spes = run_traced(
            tracer, cell_simulator(runner, spes_cell), spes_cell.spec, spes_cell.seed,
            spes_cell.name,
        )
        results = {spes_cell.name: spes.result}
        for cell in self._baseline_cells(runner, inputs.seed, spes.result):
            results[cell.name] = run_traced(
                tracer, cell_simulator(runner, cell), cell.spec, cell.seed, cell.name
            ).result
        layers = policy_layer_metrics(tracer)
        links = spes.policy.categorization.predictor_index().values()
        layers["core.links"] = float(sum(len(targets) for targets in links))
        return Sweep(results=results, layers=layers)


DISCIPLINES = ("fifo", "rr", "srtf", "las")


class LatencyCpu(Workload):
    name = "latency-cpu"
    n_functions = 400
    days = 2.0
    training_days = 1.0
    nodes = 4
    cores_per_node = 2
    slo_ms = 500.0
    capacity_factor = 2.5
    policy = PolicySpec.of("fixed-10min-indexed")

    def setup(self, seed: int, tracer=NO_TRACER) -> Inputs:
        split = synthetic_split(seed, self.n_functions, self.days, self.training_days, tracer)
        index = split.simulation.invocation_index()
        mean_active = float(np.diff(index.indptr).mean())
        cluster = ClusterModel(
            memory_capacity=max(8, int(round(mean_active * self.capacity_factor))),
            n_nodes=self.nodes,
            placement="least-loaded",
        )
        return Inputs(seed=seed, split=split, cluster=cluster)

    def _runners(self, inputs: Inputs) -> Tuple[ParallelRunner, ParallelRunner]:
        split = inputs.split
        minute_runner = ParallelRunner(
            {"uncapped": split, "capped": split},
            workers=0,
            clusters={"capped": inputs.cluster},
            spec=RunSpec(engine="vectorized", warmup_minutes=1440),
        )
        events = {"event": EventConfig(seed=inputs.seed)}
        for discipline in DISCIPLINES:
            events[discipline] = EventConfig(
                seed=inputs.seed,
                cpu=CpuConfig(cores_per_node=self.cores_per_node, scheduler=discipline),
                slo_ms=self.slo_ms,
            )
        event_runner = ParallelRunner(
            {key: split for key in events},
            workers=0,
            events=events,
            spec=RunSpec(engine="event", cluster=inputs.cluster, warmup_minutes=1440),
        )
        return minute_runner, event_runner

    def _cells(self, inputs: Inputs) -> List[Tuple[ParallelRunner, List[SweepCell]]]:
        """One cell per trace key of each runner, named after the key."""
        return [
            (runner, [runner.cell(key, self.policy, key, inputs.seed) for key in runner.traces])
            for runner in self._runners(inputs)
        ]

    def sweep(self, inputs: Inputs) -> Sweep:
        results: Dict[str, SimulationResult] = {}
        for runner, cells in self._cells(inputs):
            results.update(runner.run_cells(cells))
        return Sweep(results=results)

    def traced_sweep(self, inputs: Inputs, tracer: Tracer) -> Sweep:
        results: Dict[str, SimulationResult] = {}
        run_seconds: Dict[str, float] = {}
        for runner, cells in self._cells(inputs):
            for cell in cells:
                traced = run_traced(
                    tracer, cell_simulator(runner, cell), cell.spec, cell.seed, cell.name
                )
                results[cell.name] = traced.result
                run_seconds[cell.name] = traced.seconds
        layers = policy_layer_metrics(tracer)
        layers["simulation.cluster_s"] = run_seconds["capped"] - run_seconds["uncapped"]
        layers["simulation.events_s"] = run_seconds["event"] - run_seconds["capped"]
        for discipline in DISCIPLINES:
            layers[f"simulation.cpu.{discipline}_s"] = (
                run_seconds[discipline] - run_seconds["event"]
            )
        layers["simulation.latency_mb"] = sum(
            len(pickle.dumps(result.latency, protocol=pickle.HIGHEST_PROTOCOL))
            for result in results.values()
            if result.latency is not None
        ) / 1e6
        return Sweep(results=results, layers=layers)

    def verify(self, inputs: Inputs, sweep: Sweep) -> List[Problem]:
        # The event and CPU layers only observe: every capped cell simulates
        # the same minute-granular run.
        problems: List[Problem] = []
        window_events = inputs.split.simulation.total_invocations()
        capped = sweep.results["capped"].deterministic_fingerprint()
        for name in ("event", *DISCIPLINES):
            result = sweep.results[name]
            if result.deterministic_fingerprint() != capped:
                problems.append((name, "fingerprint differs from the capped vectorized run"))
            latency = result.latency
            if latency is None or latency.total_events != window_events:
                problems.append((name, "event count differs from the trace's invocations"))
            elif name != "event" and not (
                latency.cpu_scheduled_events
                == latency.slo_checked_events
                == latency.total_events
            ):
                problems.append((name, "not every event was CPU-scheduled and SLO-checked"))
        return problems


class ShardedScale(Workload):
    name = "sharded-scale"
    n_functions = 10_000
    days = 4
    training_days = 2.0
    workers = 2
    spec = RunSpec(engine="vectorized", shards=2, warmup_minutes=0)
    policies = ("fixed-10min-indexed", "hybrid-function-indexed")

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch

    def setup(self, seed: int, tracer=NO_TRACER) -> Inputs:
        with tracer.span("traces.generate"):
            trace = azure2019_csr_trace(seed, self.n_functions, self.days)
        with tracer.span("traces.split"):
            split = split_trace(trace, training_days=self.training_days)
        with tracer.span("traces.index"):
            split.training.invocation_index()
            split.simulation.invocation_index()
        return Inputs(seed=seed, split=split)

    def _runner(self, inputs: Inputs, cache_dir: Path) -> ParallelRunner:
        return ParallelRunner(
            {"scale": inputs.split},
            workers=self.workers,
            cache_dir=cache_dir,
            spec=self.spec,
        )

    def _cells(self, runner: ParallelRunner, seed: int) -> List[SweepCell]:
        return [runner.cell(name, PolicySpec.of(name), "scale", seed) for name in self.policies]

    def _fresh_cache(self) -> Path:
        cache_dir = self.scratch / "cache"
        shutil.rmtree(cache_dir, ignore_errors=True)
        return cache_dir

    def _pooled(self, runner: ParallelRunner, cells: List[SweepCell]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ShardFallbackWarning)
            results = runner.run_cells(cells)
        problems: List[Problem] = []
        for warning in caught:
            if issubclass(warning.category, ShardFallbackWarning):
                named = [cell.name for cell in cells if repr(cell.name) in str(warning.message)]
                problems.append((named[0] if named else "*", str(warning.message)))
        return results, problems

    def _replay(self, inputs: Inputs, cache_dir: Path, expected) -> Tuple[float, List[Problem]]:
        replay = self._runner(inputs, cache_dir)
        replayed = replay.run_cells(self._cells(replay, inputs.seed))
        attempts = replay.cache.hits + replay.cache.misses
        problems = same_fingerprints(expected, replayed, "cache replay")
        if replay.cache.misses:
            problems.append(("*", f"{replay.cache.misses} cache miss(es) on the replay"))
        return replay.cache.hits / attempts, problems

    def sweep(self, inputs: Inputs) -> Sweep:
        cache_dir = self._fresh_cache()
        try:
            runner = self._runner(inputs, cache_dir)
            results, problems = self._pooled(runner, self._cells(runner, inputs.seed))
            problems += self._replay(inputs, cache_dir, results)[1]
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return Sweep(results=results, problems=problems)

    def traced_sweep(self, inputs: Inputs, tracer: Tracer) -> Sweep:
        cache_dir = self._fresh_cache()
        try:
            runner = self._runner(inputs, cache_dir)
            cells = self._cells(runner, inputs.seed)
            with tracer.span("experiments.run_cells") as pooled_span:
                results, problems = self._pooled(runner, cells)
            with tracer.span("experiments.replay") as replay_span:
                hit_frac, replay_problems = self._replay(inputs, cache_dir, results)
            problems += replay_problems
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

        # The same shards in-process: per-shard time, then the merge.
        assignment = shard_assignment(
            self.spec.shards,
            inputs.split.simulation,
            self.spec.shard_placement,
            training_trace=inputs.split.training,
        )
        critical = mean_total = merge_s = 0.0
        for cell in cells:
            simulator = cell_simulator(runner, cell)
            shard_results, shard_seconds = [], []
            for shard in range(self.spec.shards):
                positions = np.flatnonzero(assignment == shard)
                sub = simulator.shard_simulator(positions)
                traced = run_traced(
                    tracer, sub, cell.spec, cell.seed, f"{cell.name}/shard{shard}"
                )
                shard_results.append(traced.result)
                shard_seconds.append(traced.seconds)
            with tracer.span("simulation.merge", cell=cell.name) as merge_span:
                merged = SimulationResult.merge_shards(shard_results)
            merge_s += tracer.duration(merge_span)
            critical += max(shard_seconds)
            mean_total += float(np.mean(shard_seconds))
            pooled = results[cell.name].deterministic_fingerprint()
            if merged.deterministic_fingerprint() != pooled:
                problems.append((cell.name, "in-process shards merge to another fingerprint"))

        cache = ResultCache(self.scratch / "direct-cache")
        try:
            for name, result in results.items():
                with tracer.span("experiments.cache.put", cell=name):
                    cache.put(name, result)
            for name in results:
                with tracer.span("experiments.cache.get", cell=name):
                    cache.get(name)
        finally:
            shutil.rmtree(cache.cache_dir, ignore_errors=True)

        with tracer.span("experiments.pickle_traces"):
            payload = len(pickle.dumps(runner.traces, protocol=pickle.HIGHEST_PROTOCOL))

        layers = policy_layer_metrics(tracer)
        # The pooled shard runs are not visible to the parent: the engine time
        # reported is that of the in-process shards.
        layers.update(
            {
                "simulation.merge_s": merge_s,
                "experiments.pool_s": tracer.duration(pooled_span) - critical - merge_s,
                "experiments.payload_mb": payload / 1e6,
                "experiments.shard_imbalance": critical / mean_total,
                "experiments.cache_put_s": tracer.total("experiments.cache.put"),
                "experiments.cache_get_s": tracer.total("experiments.cache.get"),
                "experiments.cache_hit_frac": hit_frac,
            }
        )
        return Sweep(
            results=results,
            problems=problems,
            layers=layers,
            comparable_seconds=tracer.duration(pooled_span) + tracer.duration(replay_span),
        )

    def verify(self, inputs: Inputs, sweep: Sweep) -> List[Problem]:
        """The pooled sharded results equal an in-process unsharded run."""
        unsharded = {}
        for name in self.policies:
            simulator = Simulator(
                inputs.split.simulation,
                training_trace=inputs.split.training,
                spec=self.spec.override(shards=0),
            )
            spec = PolicySpec.of(name)
            unsharded[name] = simulator.run(spec.build(seed=derive_cell_seed(inputs.seed, spec)))
        return same_fingerprints(unsharded, sweep.results, "sharded pool run")


def workloads(scratch: Path) -> Dict[str, Callable[[], Workload]]:
    return {
        PaperSuite.name: PaperSuite,
        LatencyCpu.name: LatencyCpu,
        ShardedScale.name: lambda: ShardedScale(scratch),
    }
