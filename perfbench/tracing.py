"""In-memory span recorder for the benchmark's traced runs.

Spans are opened by the benchmark's own code around each call into a layer
of the simulator (``traces``, ``core``, ``baselines``, ``simulation``,
``experiments``).  Each span records its name, start, end, parent span and
the sweep cell it belongs to; the spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List

#: Span-name prefixes that belong to a layer of the simulator.  Spans outside
#: these prefixes (the sweep and per-cell envelopes) are benchmark glue.
LAYERS = ("traces.", "core.", "baselines.", "simulation.", "experiments.")


class Tracer:
    """Records nested spans; times are seconds since the tracer was created."""

    def __init__(self) -> None:
        self._origin = time.perf_counter()
        self._stack: List[int] = []
        self.spans: List[Dict[str, object]] = []

    @contextmanager
    def span(self, name: str, cell: str | None = None) -> Iterator[Dict[str, object]]:
        parent = self._stack[-1] if self._stack else None
        if cell is None and parent is not None:
            cell = self.spans[parent]["cell"]
        record: Dict[str, object] = {
            "id": len(self.spans),
            "name": name,
            "parent": parent,
            "cell": cell,
            "start": time.perf_counter() - self._origin,
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._origin
            self._stack.pop()

    @staticmethod
    def duration(record: Dict[str, object]) -> float:
        return float(record["end"]) - float(record["start"])

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(self.duration(s) for s in self.spans if s["name"] == name)

    def self_times(self) -> List[float]:
        """Each span's duration minus the part its direct children cover."""
        own = [self.duration(s) for s in self.spans]
        for record in self.spans:
            if record["parent"] is not None:
                own[int(record["parent"])] -= self.duration(record)
        return own

    def layer_coverage(self, wall_seconds: float) -> float:
        """Share of ``wall_seconds`` covered by the self times of layer spans."""
        covered = sum(
            own
            for record, own in zip(self.spans, self.self_times())
            if str(record["name"]).startswith(LAYERS)
        )
        return covered / wall_seconds if wall_seconds > 0 else 0.0
