"""End-to-end benchmark of the SPES simulator.

Run from the repository root:

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 30 --trace 0

The workload's inputs are built from ``--seed`` several times; then the
workload's sweep repeats for about ``--seconds`` seconds of wall time, at
least once.  ``setup_s`` and ``cpu_s`` are medians over the builds and over
the sweeps of each one's CPU time (this process's plus its pool workers')
divided by the host-speed gauge read just before and after it (see
:class:`Gauge`), given in seconds at the gauge's reference speed.  CPU time, because on a
shared virtual host wall time also counts the time the hypervisor gives
other guests; the gauge, because CPU time still follows the host's speed.
Every sweep's simulated outputs are checked: fingerprints must match across
repeats and, for the seeds in ``pins.json``, match their pins.

``--trace 1`` adds one traced sweep that records a span around each call
into a layer of the simulator, writes the spans as JSON under
``.perfbench/`` when the run ends, and reports the per-layer metrics instead
of the end-to-end ones.  ``--write-pins`` records the outputs of the seed's
first sweep in ``pins.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy loads: the only
# parallelism measured is the sharded workload's process pool.
for _variable in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_variable] = "1"

import argparse
import json
import pickle
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Spans and temporary result caches; removed caches, kept span files.
OUTPUT = ROOT / ".perfbench"
#: Input builds per run; ``setup_s`` is their median.
SETUP_REPEATS = 9
#: Gauge calls per reading between sweeps (one between input builds, which
#: take about as long as one call); a reading is their median.
GAUGE_REPEATS = 5
#: CPU seconds one gauge call is taken to need at the reference speed; the
#: end-to-end times are CPU seconds at that speed.
GAUGE_REFERENCE_S = 0.08

END_TO_END_UNITS = {"setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "result_mb": "MB"}
PER_LAYER_UNITS = {
    "traces.generate_s": "s",
    "traces.split_s": "s",
    "traces.index_s": "s",
    "traces.functions": "count",
    "traces.invocations": "count",
    "core.prepare_s": "s",
    "core.decide_s": "s",
    "core.links": "count",
    "baselines.defuse.prepare_s": "s",
    "baselines.defuse.decide_s": "s",
    "baselines.hybrid.prepare_s": "s",
    "baselines.hybrid.decide_s": "s",
    "simulation.engine_s": "s",
    "simulation.cluster_s": "s",
    "simulation.events_s": "s",
    "simulation.cpu.fifo_s": "s",
    "simulation.cpu.rr_s": "s",
    "simulation.cpu.srtf_s": "s",
    "simulation.cpu.las_s": "s",
    "simulation.latency_mb": "MB",
    "simulation.merge_s": "s",
    "simulation.events": "count",
    "simulation.cold_starts": "count",
    "simulation.wmt": "count",
    "simulation.cpu_delayed_events": "count",
    "simulation.evictions": "count",
    "simulation.capacity_cold_starts": "count",
    "experiments.pool_s": "s",
    "experiments.payload_mb": "MB",
    "experiments.shard_imbalance": "ratio",
    "experiments.cache_put_s": "s",
    "experiments.cache_get_s": "s",
    "experiments.cache_hit_frac": "frac",
    "tracing.overhead_s": "s",
    "tracing.self_time_coverage": "frac",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true")
    return parser.parse_args(argv)


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    """CPU seconds used so far by this process and its reaped children.

    Pool workers count once they have been joined, which ``run_cells`` does
    before it returns.
    """
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Gauge:
    """CPU seconds of a fixed piece of work: how fast the host runs now.

    A shared host's CPU speed drifts, by half and more within minutes, as
    other guests contend for its caches and memory; CPU time drifts with it.
    Each timed piece of work is therefore divided by the mean of the gauge
    readings taken just before and just after it.  The gauge mixes
    interpreted Python, small numpy operations and passes over arrays larger
    than the L2 cache, as the simulator does, and imports nothing from the
    simulator, so no change to the simulator can move it.
    """

    def __init__(self) -> None:
        # Allocated once, before the inputs: the gauge adds the same few MB
        # to every peak RSS and allocates nothing large while it runs.
        self.small = np.arange(20_000, dtype=np.float64) * 0.618
        self.small_order = (np.arange(20_000, dtype=np.int64) * 7919) % 20_000
        size = 100_000
        self.large = np.arange(size, dtype=np.float64) * 0.618
        self.large_order = (np.arange(size, dtype=np.int64) * 7919) % size
        self.gathered = np.empty(size, dtype=np.float64)

    def _work(self) -> None:
        table: dict = {}
        for i in range(80_000):
            key = i % 997
            table[key] = table.get(key, 0) + (i * i) % 7
        for _ in range(80):
            shuffled = np.sort(self.small[self.small_order] % 1.0)
            np.cumsum(shuffled)[shuffled > 0.5].sum()
        for _ in range(20):
            np.take(self.large, self.large_order, out=self.gathered)
            np.add(self.gathered, 1.0, out=self.gathered)
            self.gathered.sort()

    def read(self, repeats: int = 1) -> float:
        """Median CPU seconds of ``repeats`` calls."""
        seconds = []
        for _ in range(repeats):
            started = cpu_seconds()
            self._work()
            seconds.append(cpu_seconds() - started)
        return statistics.median(seconds)


def gauged(times, readings) -> float:
    """Median of ``times`` in CPU seconds at the gauge's reference speed.

    ``readings[i]`` and ``readings[i + 1]`` are the gauge readings taken
    just before and just after ``times[i]``.
    """
    return GAUGE_REFERENCE_S * statistics.median(
        spent * 2.0 / (before + after)
        for spent, before, after in zip(times, readings, readings[1:])
    )


def pickled_mb(results) -> float:
    return sum(len(pickle.dumps(r, protocol=pickle.HIGHEST_PROTOCOL)) for r in results) / 1e6


class Tally:
    """Cells attempted and the distinct cells that failed, per sweep."""

    def __init__(self) -> None:
        self.cells: list[int] = []
        self.failing: list[set] = []
        self.messages: list[str] = []

    def add(self, cells: int, problems, sweep: int | None = None) -> None:
        """Record a new sweep's problems, or later-found ones of ``sweep``."""
        if sweep is None:
            self.cells.append(cells)
            self.failing.append(set())
            sweep = len(self.cells) - 1
        self.failing[sweep] |= {cell for cell, _ in problems}
        self.messages += [f"{cell}: {message}" for cell, message in problems]

    @property
    def attempted(self) -> int:
        return sum(self.cells)

    @property
    def failed(self) -> int:
        return sum(min(cells, len(bad)) for cells, bad in zip(self.cells, self.failing))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads as wl

    OUTPUT.mkdir(exist_ok=True)
    scratch = OUTPUT / f"run-{os.getpid()}"
    catalog = wl.workloads(scratch)
    if args.workload not in catalog:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(catalog)}",
              file=sys.stderr)
        return 2
    workload = catalog[args.workload]()
    try:
        return run(args, workload, wl)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run(args, workload, wl) -> int:
    tally = Tally()
    setup_tracer = wl.Tracer() if args.trace else wl.NO_TRACER

    gauge = Gauge()
    setup_seconds, setup_readings = [], [gauge.read()]
    inputs = None
    for _ in range(SETUP_REPEATS):
        inputs = None  # release the previous build before timing the next
        with setup_tracer.span("setup"):
            started = cpu_seconds()
            inputs = workload.setup(args.seed, setup_tracer)
            setup_seconds.append(cpu_seconds() - started)
        setup_readings.append(gauge.read())

    # Only sweeps count against --seconds; the checks that cost a run of
    # their own (workload.verify) follow the timed loop.
    walls, cpus, sweep_readings, first = [], [], [gauge.read(GAUGE_REPEATS)], None
    while sum(walls) + (statistics.median(walls) if walls else 0.0) <= args.seconds:
        started, started_cpu = time.perf_counter(), cpu_seconds()
        sweep = workload.sweep(inputs)
        walls.append(time.perf_counter() - started)
        cpus.append(cpu_seconds() - started_cpu)
        problems = list(sweep.problems)
        if first is None:
            first = sweep
            # Later sweeps only fragment this process's heap further: how
            # many of them fit in --seconds would move its peak.
            self_peak_mb = peak_rss_mb(resource.RUSAGE_SELF)
        else:
            problems += wl.same_fingerprints(first.results, sweep.results, "repeated sweep")
        tally.add(len(sweep.results), problems)
        # Hold at most two sweeps' results, however many sweeps fit.
        sweep = None
        sweep_readings.append(gauge.read(GAUGE_REPEATS))

    problems = workload.verify(inputs, first)
    pinned = wl.load_pins().get(workload.name, {}).get(str(args.seed))
    if args.write_pins:
        if not problems and not tally.messages:
            wl.write_pins(workload.name, args.seed, first.results)
    elif pinned is not None:
        problems += wl.check_pins(pinned, first.results)
    tally.add(0, problems, sweep=0)

    wall_s = statistics.median(walls)  # tracing overhead is a wall time
    if args.trace:
        tracer = wl.Tracer()
        with tracer.span("sweep") as root:
            traced = workload.traced_sweep(inputs, tracer)
        problems = list(traced.problems)
        problems += wl.same_fingerprints(first.results, traced.results, "traced sweep")
        tally.add(len(traced.results), problems)
        traced_wall = tracer.duration(root)
        trace_path = OUTPUT / f"spans-{workload.name}-seed{args.seed}.json"
        metrics = layer_metrics(wl, inputs, setup_tracer, tracer, traced, wall_s, traced_wall)
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": gauged(setup_seconds, setup_readings),
            "cpu_s": gauged(cpus, sweep_readings),
            # Each sweep starts its pool afresh; the workers' peak over all
            # sweeps is the steadier estimate of one sweep's.
            "peak_rss_mb": max(self_peak_mb, peak_rss_mb(resource.RUSAGE_CHILDREN)),
            "result_mb": pickled_mb(first.results.values()),
        }
        units = END_TO_END_UNITS

    report(wl, workload, args, first, walls, cpus, setup_seconds, pinned, tally)
    print("gauge readings, setups: " + " ".join(f"{g:.4f}" for g in setup_readings)
          + f" s, median {statistics.median(setup_readings):.6f} s")
    print("gauge readings, sweeps: " + " ".join(f"{g:.4f}" for g in sweep_readings)
          + f" s, median {statistics.median(sweep_readings):.6f} s "
          f"(reference {GAUGE_REFERENCE_S} s)")
    for name, value in metrics.items():
        print(f"{name:36s} {value:14.6f} {units[name]}")
    if args.trace:
        payload = {"setup": setup_tracer.spans, "sweep": tracer.spans}
        trace_path.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    correct = tally.failed == 0 and not tally.messages
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def layer_metrics(wl, inputs, setup_tracer, tracer, traced, wall_s, traced_wall):
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for name in ("generate", "split", "index"):
        durations = [
            setup_tracer.duration(span)
            for span in setup_tracer.spans
            if span["name"] == f"traces.{name}"
        ]
        metrics[f"traces.{name}_s"] = statistics.median(durations)
    trace = inputs.split.simulation
    training = inputs.split.training
    metrics["traces.functions"] = float(len(trace))
    metrics["traces.invocations"] = float(
        training.total_invocations() + trace.total_invocations()
    )
    metrics.update(wl.result_counts(traced.results, trace.total_invocations()))
    metrics.update(traced.layers)
    comparable = traced.comparable_seconds
    metrics["tracing.overhead_s"] = (traced_wall if comparable is None else comparable) - wall_s
    metrics["tracing.self_time_coverage"] = tracer.layer_coverage(traced_wall)
    return {name: float(metrics[name]) for name in PER_LAYER_UNITS}


def report(wl, workload, args, first, walls, cpus, setup_seconds, pinned, tally) -> None:
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print(f"sweeps {len(walls)}, wall: " + " ".join(f"{w:.3f}" for w in walls) + " s")
    print(f"sweeps {len(cpus)}, cpu:  " + " ".join(f"{c:.3f}" for c in cpus) + " s")
    print(f"median sweep: wall {statistics.median(walls):.6f} s, "
          f"cpu {statistics.median(cpus):.6f} s")
    print("setups, cpu: " + " ".join(f"{s:.3f}" for s in setup_seconds) + " s, "
          f"median {statistics.median(setup_seconds):.6f} s")
    pin_state = "written" if args.write_pins else ("checked" if pinned else "none for this seed")
    print(f"pins: {pin_state}")
    for name, result in first.results.items():
        values = wl.outputs(result)
        shown = " ".join(
            f"{key}={value}" for key, value in values.items() if key != "fingerprint"
        )
        print(f"  {name:28s} {values['fingerprint'][:12]} {shown}")
    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"cells attempted {tally.attempted}, failed {tally.failed} "
          f"(failed_frac {failed_frac:.4f})")
    for message in tally.messages:
        print(f"  CHECK FAILED {message}")


if __name__ == "__main__":
    sys.exit(main())
