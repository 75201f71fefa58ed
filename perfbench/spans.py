"""In-memory span recorder for the traced run.

A span is one timed call into a layer of the solver package, made from
the benchmark's own code or from a proxy the benchmark handed to the
program.  Span names are ``<layer>.<operation>``, where the layer is the
module under ``src/repro`` the call enters.  Spans nest: a call made
while another span is open becomes its child, and a layer's *self time*
is its spans' durations minus the part covered by their children.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    start: float
    end: float = float("nan")

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans on a monotonic clock; nothing is written until :meth:`to_dict`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        sp = Span(id=len(self.spans), name=name, parent=parent, start=self._clock())
        self.spans.append(sp)
        self._stack.append(sp.id)
        try:
            yield sp
        finally:
            sp.end = self._clock()
            self._stack.pop()

    def durations(self, name: str) -> List[float]:
        """Durations of every closed span called *name*, in call order."""
        return [s.duration for s in self.spans if s.name == name]

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_times(self) -> Dict[str, float]:
        """Seconds each layer spent outside its child spans."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        out: Dict[str, float] = {}
        for s in self.spans:
            own = s.duration - covered(s.start, s.end, children.get(s.id, []))
            out[s.layer] = out.get(s.layer, 0.0) + own
        return out

    def to_dict(self) -> Dict[str, object]:
        return {
            "spans": [
                {"id": s.id, "name": s.name, "parent": s.parent, "start": s.start, "end": s.end}
                for s in self.spans
            ]
        }


def covered(lo: float, hi: float, intervals: List[Tuple[float, float]]) -> float:
    """Length of ``[lo, hi]`` covered by the union of *intervals*."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total
