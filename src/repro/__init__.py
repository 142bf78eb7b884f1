"""repro — reproduction of "A Distributed Approach to Solving Overlay
Mismatching Problem" (Liu, Zhuang, Xiao, Ni — ICDCS 2004).

The package implements ACE (Adaptive Connection Establishment) together
with every substrate the paper's evaluation depends on:

* :mod:`repro.topology` — BRITE-style physical underlays and Gnutella-like
  logical overlays whose link costs are underlay shortest-path delays.
* :mod:`repro.oracle` — pluggable delay backends behind one seam: exact
  batched Dijkstra, or a k-landmark embedding with triangle-inequality
  error bounds.
* :mod:`repro.core` — the ACE protocol: neighbor cost tables (Phase 1),
  per-peer minimum spanning trees over h-neighbor closures (Phase 2), and
  adaptive connection replacement (Phase 3).
* :mod:`repro.search` — blind flooding, ACE tree routing, and response
  index caching.
* :mod:`repro.sim` — discrete-event kernel, churn, bootstrap, workload.
* :mod:`repro.metrics` — windowed series collection and the
  gain/penalty optimization-rate analysis.
* :mod:`repro.experiments` — drivers regenerating every evaluation figure.
* :mod:`repro.extensions` — AOTO and (simplified) LTM comparators.

Quickstart::

    import numpy as np
    from repro import (
        barabasi_albert, random_overlay, AceProtocol, AceConfig,
        blind_flooding_strategy, ace_strategy, propagate,
    )

    rng = np.random.default_rng(7)
    physical = barabasi_albert(1000, m=2, rng=rng)
    overlay = random_overlay(physical, 128, avg_degree=6, rng=rng)

    before = propagate(overlay, 0, blind_flooding_strategy(overlay), ttl=None)
    protocol = AceProtocol(overlay, AceConfig(depth=1), rng=rng)
    protocol.run(10)
    after = propagate(overlay, 0, ace_strategy(protocol), ttl=None)
    assert after.reached == before.reached          # same search scope
    assert after.traffic_cost < before.traffic_cost  # less traffic
"""

from .core import (
    AceConfig,
    AceProtocol,
    AdaptiveAceProtocol,
    DepthAdvisor,
    FrequencyEstimator,
    CandidatePolicy,
    ClosestPolicy,
    ClosureView,
    NaivePolicy,
    NeighborCostTable,
    PeerAceState,
    RandomPolicy,
    ReplacementAction,
    SpanningTree,
    StepReport,
    attempt_replacement,
    build_cost_table,
    make_policy,
    neighbor_closure,
    prim_mst,
    prim_mst_heap,
)
from .extensions import (
    AotoProtocol,
    LtmProtocol,
    aoto_config,
    hpf_strategy,
)
from .oracle import (
    DelayOracle,
    ExactOracle,
    LandmarkOracle,
    OracleSpec,
    make_oracle,
    parse_oracle_spec,
)
from .metrics import (
    OptimizationTradeoff,
    SeriesCollector,
    minimal_depth_for_gain,
    optimization_rate,
    summarize,
)
from .search import (
    GNUTELLA_TTL,
    RingResult,
    WalkResult,
    expanding_ring_query,
    random_walk_query,
    IndexCache,
    IndexCacheStore,
    QueryPropagation,
    QueryResult,
    ace_propagate,
    ace_query,
    ace_strategy,
    blind_flooding_strategy,
    cached_query,
    propagate,
    run_query,
)
from .sim import (
    BootstrapService,
    MessageNetwork,
    run_message_level_query,
    ChurnConfig,
    ChurnModel,
    EventLoop,
    LifetimeDistribution,
    ObjectCatalog,
    PeerRecord,
    QueryWorkload,
    WorkloadConfig,
)
from .topology import (
    AsTrafficReport,
    Overlay,
    TwoTierOverlay,
    as_traffic_report,
    build_two_tier,
    transit_stub,
    two_tier_query,
    PhysicalTopology,
    TopologyReport,
    analyze,
    barabasi_albert,
    glp,
    grid,
    paper_underlay,
    power_law_overlay,
    random_overlay,
    small_world_overlay,
    synthesize_gnutella_snapshot,
    watts_strogatz,
    waxman,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # topology
    "PhysicalTopology",
    "Overlay",
    "random_overlay",
    "power_law_overlay",
    "small_world_overlay",
    "barabasi_albert",
    "waxman",
    "glp",
    "watts_strogatz",
    "grid",
    "paper_underlay",
    "TopologyReport",
    "analyze",
    "synthesize_gnutella_snapshot",
    # core
    "AceProtocol",
    "AceConfig",
    "AdaptiveAceProtocol",
    "DepthAdvisor",
    "FrequencyEstimator",
    "PeerAceState",
    "StepReport",
    "ClosureView",
    "neighbor_closure",
    "NeighborCostTable",
    "build_cost_table",
    "SpanningTree",
    "prim_mst",
    "prim_mst_heap",
    "ReplacementAction",
    "attempt_replacement",
    "CandidatePolicy",
    "RandomPolicy",
    "ClosestPolicy",
    "NaivePolicy",
    "make_policy",
    # search
    "GNUTELLA_TTL",
    "QueryPropagation",
    "QueryResult",
    "propagate",
    "run_query",
    "blind_flooding_strategy",
    "ace_strategy",
    "ace_propagate",
    "ace_query",
    "IndexCache",
    "IndexCacheStore",
    "cached_query",
    # sim
    "EventLoop",
    "PeerRecord",
    "BootstrapService",
    "ChurnModel",
    "ChurnConfig",
    "LifetimeDistribution",
    "ObjectCatalog",
    "QueryWorkload",
    "WorkloadConfig",
    # metrics
    "SeriesCollector",
    "summarize",
    "OptimizationTradeoff",
    "optimization_rate",
    "minimal_depth_for_gain",
    # oracle
    "DelayOracle",
    "ExactOracle",
    "LandmarkOracle",
    "OracleSpec",
    "parse_oracle_spec",
    "make_oracle",
    # extensions
    "AotoProtocol",
    "aoto_config",
    "LtmProtocol",
    "hpf_strategy",
    # related-work search baselines
    "random_walk_query",
    "WalkResult",
    "expanding_ring_query",
    "RingResult",
    # message-level simulation
    "MessageNetwork",
    "run_message_level_query",
    # AS / two-tier substrates
    "transit_stub",
    "as_traffic_report",
    "AsTrafficReport",
    "build_two_tier",
    "two_tier_query",
    "TwoTierOverlay",
]
