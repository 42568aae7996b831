"""Spans recorded by the benchmark around its own calls into zeroruns.

A span is [name, start, end, parent index, operation id, failed].  Spans stay
in memory and the worker writes them out when it ends.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter


class NullTracer:
    """The untraced path.  Its `call` adds the same single frame as
    Tracer.call, so a recursive kernel hits the interpreter's recursion limit
    at the same depth whether or not the run is traced."""

    op = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = None
        self._parent = None

    def call(self, name, fn, *args, **kwargs):
        span = [name, 0.0, 0.0, self._parent, self.op, False]
        parent, self._parent = self._parent, len(self.spans)
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            span[5] = True
            raise
        finally:
            span[2] = perf_counter()
            self._parent = parent


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover.  Children
    of one span run one after another, so their durations simply add."""
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def tail(values: list[float]) -> tuple[float, int]:
    """(value, percentile) at the highest whole percentile that leaves at
    least ten values beyond it, by nearest rank; the maximum when there are
    ten values or fewer."""
    n = len(values)
    if n == 0:
        return 0.0, 100
    ordered = sorted(values)
    if n <= 10:
        return ordered[-1], 100
    pct = (100 * (n - 10)) // n
    return ordered[max(math.ceil(pct * n / 100), 1) - 1], pct


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
