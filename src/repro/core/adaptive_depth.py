"""Adaptive closure-depth selection — the paper's Section 5.3 program.

"For a given P2P network topology, if the frequency of the topology and
cost changes and query frequency can be measured so that R is determined,
we should be able to adjust the value of h to achieve optimal gain/penalty
ratio."  The paper measures the trade-off curves; this module closes the
loop it proposes:

* :class:`DepthAdvisor` answers the offline question — given a measured
  trade-off sweep (Figures 11-12) and a frequency ratio R, which depth
  maximizes the optimization rate, and which is the *minimal* profitable
  depth;
* :class:`FrequencyEstimator` measures R online from observed query and
  topology-change events (exponentially weighted rates);
* :class:`AdaptiveAceProtocol` runs ACE while re-tuning its closure depth
  between steps from the estimator's R and the advisor's tables.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..metrics.optimization import OptimizationTradeoff
from ..topology.overlay import Overlay
from .ace import AceConfig, AceProtocol, StepReport

__all__ = ["DepthAdvisor", "FrequencyEstimator", "AdaptiveAceProtocol"]


class DepthAdvisor:
    """Choose closure depths from a measured (depth -> trade-off) table."""

    def __init__(self, tradeoffs: Sequence[OptimizationTradeoff]) -> None:
        if not tradeoffs:
            raise ValueError("need at least one trade-off measurement")
        self._by_depth: Dict[int, OptimizationTradeoff] = {}
        for t in tradeoffs:
            self._by_depth[t.depth] = t

    @property
    def depths(self) -> List[int]:
        """Depths covered by the measurements."""
        return sorted(self._by_depth)

    def rate_at(self, depth: int, frequency_ratio: float) -> float:
        """Optimization rate of one measured depth at the given R."""
        return self._by_depth[depth].rate(frequency_ratio)

    def best_depth(self, frequency_ratio: float) -> Tuple[int, float]:
        """The depth maximizing the optimization rate at R (ties: shallower)."""
        best = min(
            self.depths,
            key=lambda h: (-self.rate_at(h, frequency_ratio), h),
        )
        return best, self.rate_at(best, frequency_ratio)

    def minimal_profitable_depth(self, frequency_ratio: float) -> Optional[int]:
        """Smallest depth with rate > 1, or ``None`` (ACE not worth running)."""
        for h in self.depths:
            if self.rate_at(h, frequency_ratio) > 1.0:
                return h
        return None

    def recommend(self, frequency_ratio: float) -> Optional[int]:
        """The depth to run: the best one, provided it is profitable."""
        best, rate = self.best_depth(frequency_ratio)
        return best if rate > 1.0 else None


class FrequencyEstimator:
    """Online estimate of R = query frequency / cost-change frequency.

    Rates are exponentially weighted counts per unit time; both event
    streams share the clock the caller supplies.  Until both streams have
    been observed the estimate falls back to *default_ratio*.
    """

    def __init__(self, half_life: float = 300.0, default_ratio: float = 1.0) -> None:
        if half_life <= 0:
            raise ValueError("half_life must be positive")
        self.half_life = half_life
        self.default_ratio = default_ratio
        self._decay = math.log(2.0) / half_life
        self._query_rate = 0.0
        self._change_rate = 0.0
        self._last_time: Optional[float] = None

    def _advance(self, now: float) -> None:
        if self._last_time is None:
            self._last_time = now
            return
        dt = max(0.0, now - self._last_time)
        factor = math.exp(-self._decay * dt)
        self._query_rate *= factor
        self._change_rate *= factor
        self._last_time = now

    def observe_query(self, now: float, count: int = 1) -> None:
        """Record *count* issued queries at time *now*."""
        self._advance(now)
        self._query_rate += count * self._decay

    def observe_change(self, now: float, count: int = 1) -> None:
        """Record *count* cost-information changes (joins, leaves, rewires)."""
        self._advance(now)
        self._change_rate += count * self._decay

    @property
    def frequency_ratio(self) -> float:
        """Current R estimate (``default_ratio`` until both streams seen)."""
        if self._query_rate <= 0.0 or self._change_rate <= 0.0:
            return self.default_ratio
        return self._query_rate / self._change_rate


class AdaptiveAceProtocol(AceProtocol):
    """ACE that re-tunes its closure depth from the measured R.

    Before each step the protocol asks the advisor for the best depth at
    the estimator's current R (clamped to the advisor's measured range) and
    rebuilds its configuration if the recommendation changed.  When no
    depth is profitable it *parks* — Phases 1-3 are skipped entirely (the
    paper: "ACE is worth to use only if the gain/penalty ratio is larger
    than 1") and only trees are kept fresh.
    """

    def __init__(
        self,
        overlay: Overlay,
        advisor: DepthAdvisor,
        estimator: Optional[FrequencyEstimator] = None,
        config: Optional[AceConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(overlay, config, rng=rng)
        self.advisor = advisor
        self.estimator = estimator or FrequencyEstimator()
        self.depth_history: List[int] = []
        self.parked_steps = 0

    def step(self, peers=None) -> StepReport:
        """One optimization round at the advisor-recommended depth."""
        ratio = self.estimator.frequency_ratio
        recommendation = self.advisor.recommend(ratio)
        if recommendation is None:
            # Not profitable at this R: keep routing state fresh, skip the
            # expensive phases.
            self.parked_steps += 1
            self.rebuild_all_trees()
            report = StepReport(step_index=self.steps_run)
            self._steps_run += 1
            return report
        if recommendation != self.config.depth:
            self.config = replace(self.config, depth=recommendation)
        self.depth_history.append(recommendation)
        return super().step(peers=peers)
