"""Dynamic-environment experiment: Figures 9 and 10 (and the caching study).

Section 5.2's setting: "peer average lifetime in a P2P system is 10 minutes;
0.3 queries are issued by each peer per minute; and the frequency for ACE at
every peer to conduct optimization operations is twice per minute."  Figure 9
plots the average traffic cost per query — *including* the ACE optimization
overhead — for a Gnutella-like system versus an ACE-enabled one, over the
query stream; Figure 10 does the same for response time.

The driver runs a discrete-event simulation: peer departures/arrivals from
the churn model, Poisson query arrivals from the workload, and periodic ACE
optimization rounds.  Optionally a per-peer response index cache (Section
5.2's "ACE with index cache") is enabled on top.

The treatment arms of Figures 9-10 — gnutella-like, ACE, ACE + index cache —
are fully independent simulations, so :func:`run_dynamic_trials` fans them
out through the same :mod:`~repro.experiments.parallel` harness as the
static trials: one shared-memory underlay export, per-arm deterministic
seeding from the :class:`~repro.experiments.setup.ScenarioConfig`, and
worker perf counters merged back into the parent.  Results are
byte-identical to running the arms serially.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.ace import AceConfig, AceProtocol
from ..core.batch_ace import churn_refresh
from ..perf import counters
from ..metrics.collector import SeriesCollector
from ..search.batch import run_queries
from ..search.caching import IndexCacheStore, cached_query
from ..search.flooding import blind_flooding_strategy
from ..search.tree_routing import ace_strategy
from ..sim.churn import ChurnConfig, ChurnModel
from ..sim.engine import EventLoop
from ..sim.workload import QueryWorkload
from .parallel import run_trials
from .setup import Scenario, ScenarioConfig, build_scenario

__all__ = [
    "DynamicConfig",
    "DynamicSeries",
    "run_dynamic_experiment",
    "run_dynamic_trials",
]


@dataclass(frozen=True)
class DynamicConfig:
    """Parameters of one dynamic-environment run."""

    total_queries: int = 2000
    window: int = 200
    enable_ace: bool = True
    optimization_interval: float = 30.0  # "twice per minute"
    ace: AceConfig = field(default_factory=AceConfig)
    churn: ChurnConfig = field(default_factory=ChurnConfig)
    offline_fraction: float = 0.5
    enable_cache: bool = False
    cache_capacity: int = 100
    ttl: Optional[int] = None

    def __post_init__(self) -> None:
        if self.total_queries < 1:
            raise ValueError("total_queries must be >= 1")
        if not 1 <= self.window <= self.total_queries:
            raise ValueError("window must be in [1, total_queries]")
        if self.optimization_interval <= 0:
            raise ValueError("optimization_interval must be positive")


@dataclass
class DynamicSeries:
    """Windowed per-query averages over a dynamic run."""

    window: int
    traffic_points: List[float] = field(default_factory=list)
    response_points: List[float] = field(default_factory=list)
    success_points: List[float] = field(default_factory=list)
    scope_points: List[float] = field(default_factory=list)
    total_queries: int = 0
    total_overhead: float = 0.0
    departures: int = 0
    duration: float = 0.0

    @property
    def mean_traffic(self) -> float:
        """Mean of the windowed traffic points."""
        pts = self.traffic_points
        return sum(pts) / len(pts) if pts else 0.0

    @property
    def mean_response(self) -> float:
        """Mean of the windowed response-time points."""
        pts = self.response_points
        return sum(pts) / len(pts) if pts else 0.0


def _build_churn(
    scenario: Scenario, config: DynamicConfig, rng: np.random.Generator
) -> ChurnModel:
    overlay = scenario.overlay
    used_hosts = {overlay.host_of(p) for p in overlay.peers()}
    pool = [
        h
        for h in scenario.physical.largest_component_nodes()
        if h not in used_hosts
    ]
    n_offline = int(config.offline_fraction * overlay.num_peers)
    n_offline = min(n_offline, len(pool))
    idx = rng.choice(len(pool), size=n_offline, replace=False) if n_offline else []
    next_id = max(overlay.peers(), default=-1) + 1
    offline_hosts = {next_id + i: pool[int(j)] for i, j in enumerate(idx)}
    return ChurnModel(overlay, offline_hosts, rng, config=config.churn)


def run_dynamic_experiment(
    scenario: Scenario,
    config: Optional[DynamicConfig] = None,
) -> DynamicSeries:
    """Simulate a churning Gnutella-like system, with or without ACE.

    The per-query traffic observation amortizes protocol overhead: the
    overhead of each optimization round is spread over the queries of the
    window it lands in (Figure 9 "the traffic cost includes the overhead
    needed by each ACE operation").

    The scenario's overlay is mutated in place; build a fresh scenario (or
    copy the overlay) per treatment arm.
    """
    config = config or DynamicConfig()
    rng = np.random.default_rng(scenario.config.seed + 0xD1CE)
    loop = EventLoop()
    churn = _build_churn(scenario, config, rng)
    churn.start_initial_sessions(now=0.0)
    overlay = scenario.overlay
    # Bulk-fill the edge-cost cache for the initial topology; churn and ACE
    # keep it consistent through the overlay's mutation hooks, and rewired
    # edges are re-warmed by each ACE round.
    overlay.warm_edge_costs()
    workload = QueryWorkload(scenario.catalog, rng)

    protocol: Optional[AceProtocol] = None
    if config.enable_ace:
        protocol = AceProtocol(overlay, config.ace, rng=rng)
    caches: Optional[IndexCacheStore] = None
    if config.enable_cache:
        caches = IndexCacheStore(config.cache_capacity)

    series = DynamicSeries(window=config.window)
    traffic_collector = SeriesCollector(config.window)
    response_collector = SeriesCollector(config.window)
    success_collector = SeriesCollector(config.window)
    scope_collector = SeriesCollector(config.window)
    pending_overhead = [0.0]
    queries_done = [0]

    # ---------------------------------------------------------------- churn
    def schedule_departure(peer: int) -> None:
        record = churn.records[peer]
        if record.departs_at is None:
            return
        when = max(record.departs_at, loop.now)

        def depart() -> None:
            if not overlay.has_peer(peer):
                return
            epoch_before = overlay.epoch
            affected = set(overlay.neighbors(peer))
            if protocol is not None:
                protocol.handle_peer_left(peer)
            if caches is not None:
                caches.drop_peer(peer)
                caches.invalidate_holder(peer)
            replacement = churn.depart(peer, loop.now)
            if protocol is not None:
                protocol.handle_peer_joined(replacement)
            churn.repair_isolated()
            if protocol is not None:
                # A servent reacts to connection changes immediately.  The
                # joiner runs a full Phase 1 (its new links must be probed —
                # overhead charged); the ex-neighbors and new neighbors
                # merely rebuild their trees from cost information they
                # already hold, which costs CPU, not traffic.
                affected |= set(overlay.neighbors(replacement))
                affected.discard(replacement)
                if protocol.flat_store is not None:
                    # Vectorized churn driver: the whole mutation batch
                    # above already sits in the array engine's edit buffer;
                    # re-warm the touched cost rows once and re-extract the
                    # joiner plus every affected peer in one batched sweep.
                    counters.churn_batch_mutations += overlay.epoch - epoch_before
                    overhead = churn_refresh(protocol, replacement, affected)
                else:
                    _state, phase1 = protocol.refresh_peer(replacement)
                    overhead = phase1.total_overhead
                    for p in affected:
                        if overlay.has_peer(p):
                            protocol.recompute_tree(p)
                pending_overhead[0] += overhead
                series.total_overhead += overhead
            # Re-warm the edges the churn event created, in the canonical
            # direction.  A lazily filled cost can differ in the last ulp
            # depending on which endpoint's delay vector happens to be
            # cached, and the object and batched engines fault edges in
            # different orders — warming here keeps the cost cache (and so
            # the figures) engine-independent.
            overlay.warm_edge_costs()
            series.departures += 1
            schedule_departure(replacement)

        loop.schedule_at(when, depart)

    for p in list(overlay.peers()):
        schedule_departure(p)

    # ----------------------------------------------------------- optimization
    if protocol is not None:

        def optimize() -> None:
            report = protocol.step()
            pending_overhead[0] += report.total_overhead
            series.total_overhead += report.total_overhead
            if queries_done[0] < config.total_queries:
                loop.schedule_in(config.optimization_interval, optimize)

        loop.schedule_in(config.optimization_interval, optimize)

    # ---------------------------------------------------------------- queries
    strategy = (
        ace_strategy(protocol) if protocol is not None
        else blind_flooding_strategy(overlay)
    )

    def issue_query() -> None:
        if queries_done[0] >= config.total_queries:
            return
        online = overlay.peers()
        if len(online) >= 2:
            event = workload.next_query(loop.now, online)
            holders = scenario.catalog.holders_of(event.object_id)
            if caches is not None:
                # stop_at flows stay on the scalar reference engine.
                result = cached_query(
                    overlay, event.source, event.object_id, holders,
                    strategy, caches, ttl=config.ttl,
                )
            else:
                # Batched kernel; the compiled graph is memoized per
                # overlay epoch / ACE state version, so the stretches of
                # queries between churn events and optimization rounds
                # share one compilation.  Under churn that is still a
                # recompile every few queries, lowered from the overlay's
                # CSR and the flat state store in one pass.
                (result,) = run_queries(
                    overlay, strategy, [(event.source, holders)],
                    ttl=config.ttl,
                )
            # Amortize accumulated optimization overhead over this query.
            observed = result.traffic_cost + pending_overhead[0]
            pending_overhead[0] = 0.0
            traffic_collector.add(observed)
            scope_collector.add(float(result.search_scope))
            success_collector.add(1.0 if result.success else 0.0)
            if result.first_response_time is not None:
                response_collector.add(result.first_response_time)
            queries_done[0] += 1
        if queries_done[0] < config.total_queries:
            loop.schedule_in(workload.next_interarrival(max(1, len(online))), issue_query)

    loop.schedule_in(workload.next_interarrival(max(1, overlay.num_peers)), issue_query)

    # Run until the query budget is exhausted (drain events as they come).
    while queries_done[0] < config.total_queries and loop.step():
        pass

    series.total_queries = queries_done[0]
    series.duration = loop.now
    traffic_collector.flush()
    response_collector.flush()
    success_collector.flush()
    scope_collector.flush()
    series.traffic_points = traffic_collector.points
    series.response_points = response_collector.points
    series.success_points = success_collector.points
    series.scope_points = scope_collector.points
    return series


def _dynamic_trial(
    payload: Tuple[ScenarioConfig, Optional[DynamicConfig]],
) -> DynamicSeries:
    """Worker entry point: build the arm's world from seed and simulate it.

    The scenario is rebuilt per arm — over the process's attached
    shared-memory underlay when one matches, from the seeded generator
    otherwise — because :func:`run_dynamic_experiment` mutates the overlay
    in place.  Seeding comes entirely from the (picklable) configs, so an
    arm's result does not depend on which process ran it.
    """
    scenario_config, dynamic_config = payload
    scenario = build_scenario(scenario_config)
    return run_dynamic_experiment(scenario, dynamic_config)


def run_dynamic_trials(
    trials: Sequence[Tuple[ScenarioConfig, Optional[DynamicConfig]]],
    max_workers: Optional[int] = None,
) -> List[DynamicSeries]:
    """Run one dynamic experiment per ``(scenario, dynamic)`` config pair.

    The Figure 9/10 arms (gnutella / ace / ace+cache) are independent, so
    they fan out over worker processes exactly like the static trials:
    *max_workers* defaults to the ``REPRO_WORKERS`` environment knob, the
    underlay crosses the process boundary via shared memory (never by
    regeneration or pickling), per-arm seeding is deterministic from the
    configs, and results come back in submission order — byte-identical to
    a serial run.  Worker perf counters are merged into the parent's.
    """
    payloads = list(trials)
    return run_trials(
        _dynamic_trial,
        payloads,
        shared_underlays=[scenario for scenario, _ in payloads],
        max_workers=max_workers,
    )
