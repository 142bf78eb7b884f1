"""Optimization rate — the paper's gain/penalty analysis (Section 4.2).

"Optimization rate is defined as gain/penalty ratio, i.e., the ratio of query
traffic reduction and overhead traffic increment ...  We define frequency
ratio, R, as the ratio of query frequency to ... the frequency of cost
information changes.  ACE is worth to use only if the gain/penalty ratio is
larger than 1."

Between two reconstructions of the overlay trees (one "cost information
change" period), the system issues ``R`` queries per peer-optimization; the
gain of that period is the per-query traffic saved times the number of
queries, the penalty is the overhead traffic of one reconstruction.  Figures
13-16 sweep the closure depth *h* and the frequency ratio *R* to find the
minimal *h* with optimization rate > 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

__all__ = [
    "optimization_rate",
    "OptimizationTradeoff",
    "minimal_depth_for_gain",
]


def optimization_rate(
    traffic_saved_per_query: float,
    overhead_per_reconstruction: float,
    frequency_ratio: float,
) -> float:
    """Gain/penalty ratio for one reconstruction period.

    Parameters
    ----------
    traffic_saved_per_query:
        Blind-flooding traffic minus optimized query traffic, cost units.
    overhead_per_reconstruction:
        Phase 1-3 traffic of one optimization round, cost units.
    frequency_ratio:
        R = query frequency / cost-information change frequency, i.e. the
        number of queries amortizing one reconstruction.
    """
    if frequency_ratio < 0:
        raise ValueError("frequency_ratio must be non-negative")
    if overhead_per_reconstruction <= 0:
        return float("inf") if traffic_saved_per_query > 0 else 0.0
    return frequency_ratio * traffic_saved_per_query / overhead_per_reconstruction


@dataclass(frozen=True)
class OptimizationTradeoff:
    """Measured gain/penalty inputs for one (topology, depth) configuration.

    Produced by the depth-sweep experiment; Figures 13-16 are pure functions
    of a collection of these.
    """

    depth: int
    avg_degree: float
    baseline_traffic_per_query: float
    optimized_traffic_per_query: float
    overhead_per_reconstruction: float

    @property
    def traffic_saved_per_query(self) -> float:
        """Per-query traffic reduction over blind flooding."""
        return self.baseline_traffic_per_query - self.optimized_traffic_per_query

    @property
    def reduction_percent(self) -> float:
        """Query-traffic reduction rate (%) — Figure 11's y-axis."""
        if self.baseline_traffic_per_query <= 0:
            return 0.0
        return 100.0 * self.traffic_saved_per_query / self.baseline_traffic_per_query

    def rate(self, frequency_ratio: float) -> float:
        """Optimization rate at a given R — Figures 13-16's y-axis."""
        return optimization_rate(
            self.traffic_saved_per_query,
            self.overhead_per_reconstruction,
            frequency_ratio,
        )


def minimal_depth_for_gain(
    tradeoffs: Sequence[OptimizationTradeoff],
    frequency_ratio: float,
) -> Optional[int]:
    """Smallest closure depth whose optimization rate exceeds 1 at *R*.

    The paper: "The minimal value of h is defined as the value of h that
    leads to an optimization rate of 1."  Returns ``None`` when no swept
    depth achieves a rate above 1 (e.g. R = 1 in Figure 13).
    """
    qualifying = [t.depth for t in tradeoffs if t.rate(frequency_ratio) > 1.0]
    return min(qualifying) if qualifying else None
