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

Quickstart (the README's)::

    import numpy as np
    from repro import (
        barabasi_albert, small_world_overlay, AceProtocol, AceConfig,
        blind_flooding_strategy, ace_strategy, run_queries,
    )

    rng = np.random.default_rng(7)
    physical = barabasi_albert(1000, m=2, rng=rng)
    overlay = small_world_overlay(physical, 128, avg_degree=8, rng=rng)

    query = [(0, ())]                               # (source, holders)
    (before,) = run_queries(overlay, blind_flooding_strategy(overlay), query, ttl=None)
    protocol = AceProtocol(overlay, AceConfig(depth=1), rng=rng)
    protocol.run(10)
    (after,) = run_queries(overlay, ace_strategy(protocol), query, ttl=None)
    assert after.search_scope == before.search_scope  # same search scope
    assert after.traffic_cost < before.traffic_cost    # less traffic

Everything else is imported from the module that defines it.
"""

from .core.ace import AceConfig, AceProtocol
from .extensions.aoto import AotoProtocol
from .extensions.ltm import LtmProtocol
from .search.batch import run_queries
from .search.flooding import blind_flooding_strategy
from .search.tree_routing import ace_strategy
from .sim.workload import ObjectCatalog, WorkloadConfig
from .topology.generators import barabasi_albert
from .topology.overlay import small_world_overlay
from .topology.supernode import build_two_tier, two_tier_query

__version__ = "1.0.0"

__all__ = [
    # topology
    "barabasi_albert",
    "small_world_overlay",
    "build_two_tier",
    "two_tier_query",
    # core
    "AceProtocol",
    "AceConfig",
    # search
    "run_queries",
    "blind_flooding_strategy",
    "ace_strategy",
    # sim
    "ObjectCatalog",
    "WorkloadConfig",
    # extensions
    "AotoProtocol",
    "LtmProtocol",
]
