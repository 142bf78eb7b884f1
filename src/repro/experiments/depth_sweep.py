"""Closure-depth sweep: Figures 11 and 12 (inputs to Figures 13-16).

Section 5.3 studies "the impact of optimization depth": for overlays with
average neighbor counts C in {4, 6, 8, 10} and closure depths h = 1..8,

* Figure 11 — the query-traffic reduction rate over blind flooding grows
  with both h and C and saturates past a threshold depth, and
* Figure 12 — the overhead traffic of tree (re)construction grows with both
  h and C (the closure, hence the exchanged cost-table volume, grows like
  C^h).

:func:`run_depth_sweep` measures both for every (C, h) pair, returning
:class:`~repro.metrics.optimization.OptimizationTradeoff` records that the
optimization-rate module turns into Figures 13-16.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.ace import AceConfig, AceProtocol
from ..metrics.optimization import OptimizationTradeoff
from ..search.flooding import blind_flooding_strategy
from ..search.tree_routing import ace_strategy
from .setup import Scenario, ScenarioConfig, build_scenario
from .static_env import measure_queries

__all__ = ["DepthSweepConfig", "DepthSweepResult", "run_depth_sweep"]


@dataclass(frozen=True)
class DepthSweepConfig:
    """Sweep parameters (paper defaults: C in 4..10, h in 1..8)."""

    degrees: Tuple[int, ...] = (4, 6, 8, 10)
    depths: Tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
    convergence_steps: int = 8
    query_samples: int = 24
    base: ScenarioConfig = field(default_factory=ScenarioConfig)


@dataclass
class DepthSweepResult:
    """All (C, h) trade-off measurements of one sweep."""

    tradeoffs: Dict[Tuple[int, int], OptimizationTradeoff] = field(
        default_factory=dict
    )

    def for_degree(self, degree: int) -> List[OptimizationTradeoff]:
        """Trade-offs of one overlay density, ordered by depth."""
        out = [t for (c, _h), t in self.tradeoffs.items() if c == degree]
        out.sort(key=lambda t: t.depth)
        return out

    def degrees(self) -> List[int]:
        """Swept average-degree values."""
        return sorted({c for c, _h in self.tradeoffs})

    def depths(self) -> List[int]:
        """Swept closure depths."""
        return sorted({h for _c, h in self.tradeoffs})


def _measure_depth(
    scenario: Scenario,
    depth: int,
    config: DepthSweepConfig,
    baseline_traffic: float,
) -> OptimizationTradeoff:
    overlay = scenario.fresh_overlay()
    rng = np.random.default_rng(scenario.config.seed + 7919 * depth)
    ace_config = AceConfig(depth=depth)
    protocol = AceProtocol(overlay, ace_config, rng=rng)

    reports = protocol.run(config.convergence_steps)
    # Steady-state reconstruction cost: the last step's Phase 1-3 traffic.
    overhead = reports[-1].total_overhead

    peers = overlay.peers()
    src_rng = np.random.default_rng(scenario.config.seed + 0xBEEF)
    sources = [peers[int(i)] for i in src_rng.integers(0, len(peers), size=config.query_samples)]
    traffic, _response, _scope = measure_queries(
        overlay, ace_strategy(protocol), sources, scenario.catalog,
        np.random.default_rng(scenario.config.seed + 0xF00D),
    )
    return OptimizationTradeoff(
        depth=depth,
        avg_degree=scenario.config.avg_degree,
        baseline_traffic_per_query=baseline_traffic,
        optimized_traffic_per_query=traffic,
        overhead_per_reconstruction=overhead,
    )


def run_depth_sweep(config: Optional[DepthSweepConfig] = None) -> DepthSweepResult:
    """Measure the gain/penalty trade-off for every (C, h) combination.

    For each average degree C a fresh scenario is built (same underlay seed
    family); the blind-flooding baseline is measured once per C, then each
    depth h gets an independent copy of the overlay, ACE run to convergence,
    and its converged query traffic and per-step overhead recorded.
    """
    config = config or DepthSweepConfig()
    result = DepthSweepResult()
    for degree in config.degrees:
        scenario = build_scenario(replace(config.base, avg_degree=float(degree)))
        peers = scenario.overlay.peers()
        src_rng = np.random.default_rng(scenario.config.seed + 0xBEEF)
        sources = [
            peers[int(i)]
            for i in src_rng.integers(0, len(peers), size=config.query_samples)
        ]
        baseline_traffic, _resp, _scope = measure_queries(
            scenario.overlay,
            blind_flooding_strategy(scenario.overlay),
            sources,
            scenario.catalog,
            np.random.default_rng(scenario.config.seed + 0xF00D),
        )
        for depth in config.depths:
            result.tradeoffs[(degree, depth)] = _measure_depth(
                scenario, depth, config, baseline_traffic
            )
    return result
