"""Windowed statistics collection for the dynamic-environment experiments.

Figures 9 and 10 plot the evolution of per-query averages over the stream of
queries in a churning system.  :class:`SeriesCollector` buckets observations
into fixed-size windows (e.g. one point per 10^5 queries, the figures'
x-axis unit) and reports per-window means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

__all__ = ["Summary", "summarize", "SeriesCollector"]


@dataclass(frozen=True)
class Summary:
    """Basic descriptive statistics of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    median: float

    @classmethod
    def empty(cls) -> "Summary":
        """Summary of an empty sample (all-zero)."""
        return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0)


def summarize(values: Sequence[float]) -> Summary:
    """Compute a :class:`Summary` of *values* (empty-safe)."""
    n = len(values)
    if n == 0:
        return Summary.empty()
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    ordered = sorted(values)
    mid = n // 2
    median = ordered[mid] if n % 2 == 1 else 0.5 * (ordered[mid - 1] + ordered[mid])
    return Summary(
        count=n,
        mean=mean,
        std=math.sqrt(var),
        minimum=ordered[0],
        maximum=ordered[-1],
        median=median,
    )


class SeriesCollector:
    """Accumulate per-query observations into fixed-size windows.

    Each ``add`` records one observation; once *window* observations have
    accumulated, the window's mean is appended to :attr:`points` and a new
    window starts.
    """

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self._window = window
        self._current: List[float] = []
        self._points: List[float] = []

    @property
    def window(self) -> int:
        """Number of observations per emitted point."""
        return self._window

    @property
    def points(self) -> List[float]:
        """Means of the completed windows so far."""
        return list(self._points)

    @property
    def pending(self) -> int:
        """Observations in the not-yet-complete window."""
        return len(self._current)

    def add(self, value: float) -> Optional[float]:
        """Record an observation; returns the window mean if one completed."""
        self._current.append(value)
        if len(self._current) >= self._window:
            mean = sum(self._current) / len(self._current)
            self._points.append(mean)
            self._current = []
            return mean
        return None

    def flush(self) -> Optional[float]:
        """Close a partial window (if any) and return its mean."""
        if not self._current:
            return None
        mean = sum(self._current) / len(self._current)
        self._points.append(mean)
        self._current = []
        return mean
