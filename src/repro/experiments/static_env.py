"""Static-environment experiment: Figures 7 and 8.

Section 5.1: "the first goal of ACE schemes is to reduce traffic cost as much
as possible while retaining the same search scope ...  the traffic cost
decreases when ACE is conducted multiple times, where the search scope is all
peers.  ACE may reduce traffic cost by around 50% and it converges in around
10 steps ...  ACE can shorten the query response time by about 35% after 10
steps."

:func:`run_static_experiment` measures, after each ACE optimization step, the
average full-coverage traffic cost and average response time over a sample of
queries.  Step 0 is the unoptimized overlay under blind flooding — the
baseline both figures normalize against.

:func:`run_static_trials` fans independent trials (different configs/seeds)
out through the shared :mod:`~repro.experiments.parallel` harness: only the
small, picklable :class:`~repro.experiments.setup.ScenarioConfig` crosses
the process boundary, workers attach the underlay zero-copy from shared
memory instead of regenerating it, and each worker's perf-counter delta is
merged back into the parent's totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.ace import AceConfig, AceProtocol
from ..search.batch import run_queries
from ..search.flooding import blind_flooding_strategy
from ..search.tree_routing import ace_strategy
from ..sim.workload import ObjectCatalog
from .parallel import run_trials
from .setup import Scenario, ScenarioConfig, build_scenario

__all__ = [
    "StaticSeries",
    "measure_queries",
    "run_static_experiment",
    "run_static_trials",
]


@dataclass
class StaticSeries:
    """Per-step averages for one (scenario, ACE config) run.

    Index 0 is the unoptimized blind-flooding baseline; index *k* is after
    *k* ACE steps.
    """

    avg_degree: float
    steps: List[int] = field(default_factory=list)
    traffic_per_query: List[float] = field(default_factory=list)
    response_time: List[float] = field(default_factory=list)
    search_scope: List[float] = field(default_factory=list)
    step_overhead: List[float] = field(default_factory=list)

    @property
    def traffic_reduction_percent(self) -> float:
        """Final traffic reduction over the step-0 baseline, in percent."""
        if not self.traffic_per_query or self.traffic_per_query[0] <= 0:
            return 0.0
        first, last = self.traffic_per_query[0], self.traffic_per_query[-1]
        return 100.0 * (first - last) / first

    @property
    def response_reduction_percent(self) -> float:
        """Final response-time reduction over the baseline, in percent."""
        if not self.response_time or self.response_time[0] <= 0:
            return 0.0
        first, last = self.response_time[0], self.response_time[-1]
        return 100.0 * (first - last) / first


def measure_queries(
    overlay,
    strategy,
    sources: Sequence[int],
    catalog: ObjectCatalog,
    rng: np.random.Generator,
    ttl: Optional[int] = None,
) -> Tuple[float, float, float]:
    """Average (traffic, response time, scope) over the sampled queries.

    Full coverage (``ttl=None``) matches the figures' "search scope is all
    peers" setting.  Response time averages over successful queries only.

    Object sampling stays sequential per present source (the draw order is
    part of the seeded contract); the propagations themselves run through
    the batched kernel in one shot (:func:`repro.search.batch.run_queries`),
    which falls back to the scalar engine per query when the strategy does
    not compile.
    """
    queries: List[Tuple[int, Tuple[int, ...]]] = []
    for src in sources:
        if not overlay.has_peer(src):
            continue
        obj = catalog.sample_object(rng)
        queries.append((src, catalog.holders_of(obj)))
    traffic = 0.0
    scope = 0.0
    responses: List[float] = []
    for result in run_queries(overlay, strategy, queries, ttl=ttl):
        traffic += result.traffic_cost
        scope += result.search_scope
        if result.first_response_time is not None:
            responses.append(result.first_response_time)
    n = max(1, len(sources))
    avg_response = sum(responses) / len(responses) if responses else 0.0
    return traffic / n, avg_response, scope / n


def run_static_experiment(
    scenario: Scenario,
    steps: int = 10,
    ace_config: Optional[AceConfig] = None,
    query_samples: int = 32,
    ttl: Optional[int] = None,
) -> StaticSeries:
    """Run ACE for *steps* optimization steps on a static overlay.

    Uses a fixed set of query sources across steps (paired samples) so the
    per-step series isolates the topology's improvement from sampling noise.
    Returns the per-step series including the step-0 blind-flooding baseline.
    """
    overlay = scenario.fresh_overlay()
    rng = np.random.default_rng(scenario.config.seed + 0x5EED)
    protocol = AceProtocol(overlay, ace_config or AceConfig(), rng=rng)

    peers = overlay.peers()
    source_idx = rng.integers(0, len(peers), size=query_samples)
    sources = [peers[int(i)] for i in source_idx]

    # Pre-warm the working set the queries touch: all logical edge costs, in
    # one batched underlay solve.  Queries read edge costs only (repro.search
    # never calls the oracle), so measurement faults no Dijkstra.
    overlay.warm_edge_costs()

    series = StaticSeries(avg_degree=overlay.average_degree())

    query_rng = np.random.default_rng(scenario.config.seed + 0xCAFE)
    traffic, response, scope = measure_queries(
        overlay, blind_flooding_strategy(overlay), sources, scenario.catalog,
        query_rng, ttl=ttl,
    )
    series.steps.append(0)
    series.traffic_per_query.append(traffic)
    series.response_time.append(response)
    series.search_scope.append(scope)
    series.step_overhead.append(0.0)

    strategy = ace_strategy(protocol)
    for k in range(1, steps + 1):
        report = protocol.step()
        query_rng = np.random.default_rng(scenario.config.seed + 0xCAFE)
        traffic, response, scope = measure_queries(
            overlay, strategy, sources, scenario.catalog, query_rng, ttl=ttl
        )
        series.steps.append(k)
        series.traffic_per_query.append(traffic)
        series.response_time.append(response)
        series.search_scope.append(scope)
        series.step_overhead.append(report.total_overhead)
    return series


def _static_trial(payload: Tuple) -> StaticSeries:
    """Worker entry point: rebuild the world from its config and run it."""
    config, steps, ace_config, query_samples, ttl = payload
    scenario = build_scenario(config)
    return run_static_experiment(
        scenario,
        steps=steps,
        ace_config=ace_config,
        query_samples=query_samples,
        ttl=ttl,
    )


def run_static_trials(
    configs: Sequence[ScenarioConfig],
    steps: int = 10,
    ace_config: Optional[AceConfig] = None,
    query_samples: int = 32,
    ttl: Optional[int] = None,
    max_workers: Optional[int] = None,
) -> List[StaticSeries]:
    """Run one static experiment per config, fanning out over processes.

    Each trial is independent (its own scenario, built from seed over the
    shared underlay inside the worker), so results are byte-identical
    whatever the worker count.  *max_workers* defaults to the
    ``REPRO_WORKERS`` environment knob; ``1`` runs everything inline in
    this process.  Worker perf counters are merged into the parent's.
    """
    payloads = [
        (config, steps, ace_config, query_samples, ttl) for config in configs
    ]
    return run_trials(
        _static_trial,
        payloads,
        shared_underlays=configs,
        max_workers=max_workers,
    )
