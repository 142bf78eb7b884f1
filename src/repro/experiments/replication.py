"""Seed replication: run an experiment across seeds, report mean +/- std.

The paper averages its results over "10 physical topologies" per
configuration; single-seed numbers at laptop scale are noisy (the static
response-time reduction, for instance, swings by tens of percent between
seeds).  :func:`replicate` runs any seed-parameterized experiment over a
seed list and summarizes each extracted metric, so claims can be asserted
on means instead of lucky draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

__all__ = ["MetricSummary", "ReplicationResult", "replicate"]


@dataclass(frozen=True)
class MetricSummary:
    """Mean/std/min/max of one metric across seeds."""

    name: str
    values: tuple
    mean: float
    std: float
    minimum: float
    maximum: float

    @property
    def n(self) -> int:
        """Number of replications."""
        return len(self.values)

    def format(self, precision: int = 2) -> str:
        """Human-readable ``mean +/- std [min, max] (n)`` rendering."""
        return (
            f"{self.name}: {self.mean:.{precision}f} ± {self.std:.{precision}f} "
            f"[{self.minimum:.{precision}f}, {self.maximum:.{precision}f}] "
            f"(n={self.n})"
        )


@dataclass
class ReplicationResult:
    """All metric summaries of one replicated experiment."""

    metrics: Dict[str, MetricSummary] = field(default_factory=dict)
    seeds: tuple = ()

    def __getitem__(self, name: str) -> MetricSummary:
        return self.metrics[name]

    def summary(self, precision: int = 2) -> str:
        """Multi-line rendering of every metric."""
        return "\n".join(
            self.metrics[name].format(precision) for name in sorted(self.metrics)
        )


def _summarize(name: str, values: Sequence[float]) -> MetricSummary:
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return MetricSummary(
        name=name,
        values=tuple(values),
        mean=mean,
        std=math.sqrt(var),
        minimum=min(values),
        maximum=max(values),
    )


def replicate(
    experiment: Callable[[int], Mapping[str, float]],
    seeds: Sequence[int],
) -> ReplicationResult:
    """Run ``experiment(seed) -> {metric: value}`` for every seed.

    Every run must report the same metric names; raises ``ValueError``
    otherwise (a silently missing metric would skew the mean).
    """
    if not seeds:
        raise ValueError("need at least one seed")
    per_metric: Dict[str, List[float]] = {}
    expected: Optional[set] = None
    for seed in seeds:
        outcome = dict(experiment(int(seed)))
        names = set(outcome)
        if expected is None:
            expected = names
        elif names != expected:
            raise ValueError(
                f"seed {seed} reported metrics {sorted(names)} but earlier "
                f"seeds reported {sorted(expected)}"
            )
        for name, value in outcome.items():
            per_metric.setdefault(name, []).append(float(value))
    return ReplicationResult(
        metrics={
            name: _summarize(name, values)
            for name, values in per_metric.items()
        },
        seeds=tuple(int(s) for s in seeds),
    )
