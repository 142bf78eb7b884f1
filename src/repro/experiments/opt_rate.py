"""Optimization-rate figures (13-16): pure transforms of the depth sweep.

Figures 13/14 plot optimization rate versus closure depth h for several
frequency ratios R at a fixed average degree (C=10 and C=4); Figures 15/16
plot it versus R for several depths.  All four are functions of the
(C, h) trade-off measurements produced by
:func:`repro.experiments.depth_sweep.run_depth_sweep`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..metrics.optimization import minimal_depth_for_gain
from .depth_sweep import DepthSweepResult

__all__ = [
    "rate_vs_depth",
    "rate_vs_frequency_ratio",
    "minimal_depths_table",
    "PAPER_R_VALUES_C10",
    "PAPER_R_VALUES_C4",
    "REPRO_R_VALUES",
]

#: R values on the paper's Figure 13 (C = 10).
PAPER_R_VALUES_C10: Tuple[float, ...] = (1.0, 1.2, 1.4, 1.6, 1.8, 2.0)
#: R values on the paper's Figure 14 (C = 4) extend further right.
PAPER_R_VALUES_C4: Tuple[float, ...] = (1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.5, 3.0)
#: R values for this reproduction's figures.  Our cost model charges the
#: full periodic table gossip as overhead and our laptop-scale networks have
#: a smaller per-query traffic base than the paper's 8000-peer systems, so
#: the rate-crossing-1 frequency ratios land higher than the paper's 1.5-2;
#: the *shape* claims (R=1 never profitable, minimal h falls as R or C
#: grows) are unchanged.  See EXPERIMENTS.md.
REPRO_R_VALUES: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 24.0)


def rate_vs_depth(
    sweep: DepthSweepResult,
    degree: int,
    r_values: Sequence[float],
) -> Dict[float, List[Tuple[int, float]]]:
    """Figure 13/14 series: for each R, (h, optimization rate) points."""
    tradeoffs = sweep.for_degree(degree)
    if not tradeoffs:
        raise ValueError(f"sweep holds no data for degree {degree}")
    return {
        r: [(t.depth, t.rate(r)) for t in tradeoffs]
        for r in r_values
    }


def rate_vs_frequency_ratio(
    sweep: DepthSweepResult,
    degree: int,
    r_values: Sequence[float],
    depths: Optional[Sequence[int]] = None,
) -> Dict[int, List[Tuple[float, float]]]:
    """Figure 15/16 series: for each depth h, (R, optimization rate) points."""
    tradeoffs = {t.depth: t for t in sweep.for_degree(degree)}
    if not tradeoffs:
        raise ValueError(f"sweep holds no data for degree {degree}")
    if depths is None:
        depths = sorted(tradeoffs)
    out: Dict[int, List[Tuple[float, float]]] = {}
    for h in depths:
        t = tradeoffs.get(h)
        if t is None:
            raise ValueError(f"sweep holds no depth {h} for degree {degree}")
        out[h] = [(r, t.rate(r)) for r in r_values]
    return out


def minimal_depths_table(
    sweep: DepthSweepResult,
    r_values: Sequence[float],
) -> Dict[int, Dict[float, Optional[int]]]:
    """Minimal h with optimization rate > 1 for every (degree, R).

    The paper's headline observations: at R=1 no depth pays off; the minimal
    h shrinks as R grows; and denser overlays (larger C) need a smaller
    minimal h for the same R.
    """
    out: Dict[int, Dict[float, Optional[int]]] = {}
    for degree in sweep.degrees():
        tradeoffs = sweep.for_degree(degree)
        out[degree] = {
            r: minimal_depth_for_gain(tradeoffs, r) for r in r_values
        }
    return out
