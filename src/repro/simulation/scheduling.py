"""Intra-node CPU scheduling for the event engines.

The event layer (:mod:`repro.simulation.events`) models *queueing for
provisioning*: cold invocations wait for their function's container to come
up.  This module adds the next stage of the pipeline — *queueing for CPU*.
Each node exposes a finite pool of cores, and every invocation that survives
provisioning must be scheduled onto a core before it can execute.  The pool
is driven by a pluggable :class:`InvocationScheduler`; four textbook
disciplines ship in the registry:

``fifo``
    Non-preemptive first-come-first-served over ``M`` cores.  An invocation
    grabs the earliest-free core and runs to completion.
``rr``
    Round-robin: jobs take turns in fixed quanta (:data:`QUANTUM_S`); a job
    that exhausts its quantum rejoins the tail of the ready queue.
``srtf``
    Shortest-remaining-time-first, fully preemptive: at every instant the
    ``M`` jobs with the least remaining service hold the cores.  Exact
    (event-driven), not quantum-approximated.
``las``
    Least-attained-service: the jobs that have received the least CPU so far
    run next, approximated with the same quantum as ``rr``.  Favours short
    jobs without knowing service times in advance.

The contract is deliberately tiny: a scheduler receives per-invocation
arrival and service times (seconds, within one minute of one node) and
returns completion times.  Pools are *memoryless across minutes* — the
minute-granular engines assume executions complete within their minute, and
the CPU layer inherits that assumption rather than leaking backlog across
the observer boundary (which would desynchronise the fingerprinted minute
aggregates).

Determinism: schedulers are pure functions of their inputs (no RNG), so the
only randomness in the CPU layer is the arrival jitter drawn by
:class:`~repro.simulation.events.EventTracker` from its own seeded stream.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

__all__ = [
    "QUANTUM_S",
    "CpuConfig",
    "InvocationScheduler",
    "FifoScheduler",
    "RoundRobinScheduler",
    "SrtfScheduler",
    "LasScheduler",
    "register_scheduler",
    "get_scheduler",
    "scheduler_names",
]

#: Time slice, in seconds, used by the quantum-based disciplines (``rr`` and
#: ``las``).  50 ms matches the order of magnitude of real CFS slices and is
#: short relative to the default 100 ms execution profile, so sharing is
#: visible without making the simulation loop pathological.
QUANTUM_S = 0.05

_EPS = 1e-9


class InvocationScheduler:
    """Base class for intra-node CPU scheduling disciplines.

    Subclasses implement :meth:`schedule`; instances are stateless and
    shared via the module registry, so ``schedule`` must not keep state
    between calls.
    """

    #: Registry key; subclasses override.
    name = "base"

    def schedule(
        self,
        arrival_s: np.ndarray,
        service_s: np.ndarray,
        cores: int,
    ) -> np.ndarray:
        """Return per-invocation completion times.

        Parameters
        ----------
        arrival_s:
            Time (seconds) each invocation becomes ready to run, i.e. after
            any provisioning wait.  Not necessarily sorted.
        service_s:
            CPU service demand of each invocation, in seconds (``>= 0``).
        cores:
            Number of cores in the pool (``>= 1``).

        Returns
        -------
        numpy.ndarray
            ``completion_s[i] >= arrival_s[i] + service_s[i]`` for every
            invocation; the difference beyond service time is CPU queueing
            delay under this discipline.
        """

        raise NotImplementedError


class FifoScheduler(InvocationScheduler):
    """Non-preemptive first-come-first-served over ``M`` cores."""

    name = "fifo"

    def schedule(
        self, arrival_s: np.ndarray, service_s: np.ndarray, cores: int
    ) -> np.ndarray:
        n = arrival_s.size
        completion = np.empty(n, dtype=np.float64)
        if n == 0:
            return completion
        order = np.argsort(arrival_s, kind="stable")
        free = [0.0] * cores
        heapq.heapify(free)
        for i in order:
            core_free = heapq.heappop(free)
            start = core_free if core_free > arrival_s[i] else arrival_s[i]
            done = start + service_s[i]
            completion[i] = done
            heapq.heappush(free, done)
        return completion


def _preemptive_schedule(
    arrival_s: np.ndarray,
    service_s: np.ndarray,
    cores: int,
    discipline: str,
    quantum: float | None,
) -> np.ndarray:
    """Shared event loop for the preemptive disciplines.

    ``discipline`` selects the priority key of each ready job (lower runs
    first, ties broken by admission order):

    - ``"srtf"``: remaining service.
    - ``"las"``: attained service.
    - ``"rr"``: time of last scheduling decision (least-recently-run first),
      which with a quantum reproduces round-robin turn taking.

    ``quantum`` bounds each dispatch; ``None`` runs until the next arrival
    or completion (only sound for ``srtf``, whose priorities are stable
    while a job runs).
    """

    n = arrival_s.size
    completion = np.empty(n, dtype=np.float64)
    if n == 0:
        return completion

    # Zero-service jobs complete the instant they arrive; keeping them out of
    # the loop avoids zero-length dispatch steps.
    runnable = service_s > _EPS
    completion[~runnable] = arrival_s[~runnable] + service_s[~runnable]

    order = np.argsort(arrival_s, kind="stable")
    order = order[runnable[order]]
    n_jobs = order.size
    if n_jobs == 0:
        return completion

    remaining = service_s.astype(np.float64).copy()
    attained = np.zeros(n, dtype=np.float64)
    priority = np.zeros(n, dtype=np.float64)
    seq = np.zeros(n, dtype=np.int64)

    active: list[int] = []
    t = 0.0
    next_arrival = 0  # index into ``order``
    finished = 0
    stamp = 0  # monotonically increasing admission / dispatch counter

    while finished < n_jobs:
        if not active:
            job = int(order[next_arrival])
            t = max(t, float(arrival_s[job]))
        # Admit everything that has arrived by ``t``.
        while next_arrival < n_jobs and arrival_s[order[next_arrival]] <= t + _EPS:
            job = int(order[next_arrival])
            seq[job] = stamp
            priority[job] = float(stamp)  # rr: new arrivals join the tail
            stamp += 1
            active.append(job)
            next_arrival += 1

        if discipline == "srtf":
            key = remaining
        elif discipline == "las":
            key = attained
        else:  # rr
            key = priority
        active.sort(key=lambda j: (key[j], seq[j]))
        run = active[:cores]

        # Length of this dispatch: bounded by the shortest remaining service
        # in the run set, the quantum, and the next arrival (which may
        # preempt under srtf / reorder the queue under rr/las).
        step = min(float(remaining[j]) for j in run)
        if quantum is not None and quantum < step:
            step = quantum
        if next_arrival < n_jobs:
            until_arrival = float(arrival_s[order[next_arrival]]) - t
            if until_arrival < step:
                step = max(until_arrival, 0.0)
        if step <= _EPS:
            # Next arrival is (numerically) simultaneous: admit it and
            # re-evaluate the run set before burning CPU time.
            t = float(arrival_s[order[next_arrival]])
            continue

        t += step
        for j in run:
            remaining[j] -= step
            attained[j] += step
            priority[j] = float(stamp)  # rr: just ran -> back of the queue
            stamp += 1
            if remaining[j] <= _EPS:
                completion[j] = t
                finished += 1
        active = [j for j in active if remaining[j] > _EPS]

    return completion


class RoundRobinScheduler(InvocationScheduler):
    """Quantum-based round-robin (:data:`QUANTUM_S` time slices)."""

    name = "rr"

    def schedule(
        self, arrival_s: np.ndarray, service_s: np.ndarray, cores: int
    ) -> np.ndarray:
        return _preemptive_schedule(arrival_s, service_s, cores, "rr", QUANTUM_S)


class SrtfScheduler(InvocationScheduler):
    """Preemptive shortest-remaining-time-first (exact, event-driven)."""

    name = "srtf"

    def schedule(
        self, arrival_s: np.ndarray, service_s: np.ndarray, cores: int
    ) -> np.ndarray:
        return _preemptive_schedule(arrival_s, service_s, cores, "srtf", None)


class LasScheduler(InvocationScheduler):
    """Least-attained-service, quantum-approximated."""

    name = "las"

    def schedule(
        self, arrival_s: np.ndarray, service_s: np.ndarray, cores: int
    ) -> np.ndarray:
        return _preemptive_schedule(arrival_s, service_s, cores, "las", QUANTUM_S)


_SCHEDULERS: Dict[str, InvocationScheduler] = {}


def register_scheduler(scheduler: InvocationScheduler) -> InvocationScheduler:
    """Add ``scheduler`` to the registry under its :attr:`name`."""

    _SCHEDULERS[scheduler.name] = scheduler
    return scheduler


def get_scheduler(name: str) -> InvocationScheduler:
    """Look up a scheduler by registry name.

    Raises
    ------
    KeyError
        If ``name`` is not registered; the message lists valid names.
    """

    try:
        return _SCHEDULERS[name]
    except KeyError:
        raise KeyError(
            f"unknown scheduler {name!r}; registered: {', '.join(scheduler_names())}"
        ) from None


def scheduler_names() -> Tuple[str, ...]:
    """Registered scheduler names, in registration order (fifo, rr, srtf, las first)."""

    return tuple(_SCHEDULERS)


register_scheduler(FifoScheduler())
register_scheduler(RoundRobinScheduler())
register_scheduler(SrtfScheduler())
register_scheduler(LasScheduler())


@dataclass(frozen=True)
class CpuConfig:
    """Finite-core configuration for the event engines' CPU layer.

    Attributes
    ----------
    cores_per_node:
        Number of cores in each node's pool.  With a cluster configured the
        pool is per node (placement decides which functions contend); without
        one, every function shares a single node-wide pool.
    scheduler:
        Registry name of the :class:`InvocationScheduler` driving the pool
        (``fifo``, ``rr``, ``srtf``, or ``las``).

    Leaving :attr:`~repro.simulation.events.EventConfig.cpu` as ``None``
    models infinitely many cores: no CPU queueing, no extra RNG draws, and
    byte-identical results to the pre-CPU event layer.
    """

    cores_per_node: int
    scheduler: str = "fifo"

    def __post_init__(self) -> None:
        if self.cores_per_node < 1:
            raise ValueError(
                f"cores_per_node must be >= 1, got {self.cores_per_node}"
            )
        if self.scheduler not in _SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; "
                f"registered: {', '.join(scheduler_names())}"
            )
