"""Flooding and saturated ACE against their definitions, on random worlds.

Two closed forms hold for any connected overlay, so they check the query
engines and the protocol without a second implementation to compare with:

* **Blind flooding at TTL = infinity.**  The source sends to each of its
  neighbors and every other peer, on first arrival, to each neighbor but
  the one it heard from.  A query therefore sends ``2|E| - (n - 1)``
  messages, of which all but the ``scope - 1`` first arrivals are
  duplicates, and its traffic is every link twice minus the first-arrival
  tree once: ``2 W(E) - W(tree)``.
* **ACE at closure depth >= the overlay's diameter.**  Every closure is the
  whole overlay, so after a step every peer's Phase-2 tree is the global
  minimum spanning tree of the final topology.  A query then sends exactly
  ``n - 1`` messages and its traffic is the MST weight.

At a finite TTL = k flooding has no closed form, only bounds: a peer first
reached over a cheap path of many hops forwards with the hops that path
left it, so the scope can fall short of the BFS ball of radius k.  It never
leaves the ball, and no peer hears the query sooner than at TTL = infinity.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import minimum_spanning_tree

from repro.core.ace import AceConfig, AceProtocol
from repro.experiments.setup import ScenarioConfig, build_scenario
from repro.search.batch import propagate_many
from repro.search.flooding import blind_flooding_strategy, propagate
from repro.search.tree_routing import ace_strategy

#: Sum-order slack between the engines' sequential float totals and the
#: exactly rounded closed forms, in ulps of the closed form (at most 10 seen
#: over 60 random worlds of up to a few hundred links).
ULPS = 64

worlds = st.builds(
    ScenarioConfig,
    physical_nodes=st.integers(80, 240),
    peers=st.integers(8, 48),
    avg_degree=st.sampled_from([3.0, 4.0, 6.0]),
    seed=st.integers(0, 2**16),
)
examples = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def within_ulps(value, exact):
    return abs(value - exact) <= ULPS * math.ulp(exact)


def build_world(config):
    overlay = build_scenario(config).overlay
    overlay.warm_edge_costs()
    return overlay


def link_weights(overlay):
    return {(u, v): overlay.cost(u, v) for u, v in overlay.edges()}


def queries(overlay, strategy, engine, ttl=None):
    """One query per peer, as ``QueryPropagation`` records."""
    sources = overlay.peers()
    if engine == "kernel":
        batch = propagate_many(overlay, sources, strategy, ttl=ttl)
        return [batch.result(i) for i in range(len(batch))]
    return [propagate(overlay, s, strategy, ttl=ttl) for s in sources]


def bfs_hops(overlay, source):
    """Overlay hop distance from *source* to every peer it can reach."""
    hops, frontier = {source: 0}, [source]
    while frontier:
        reached = []
        for u in frontier:
            for v in overlay.neighbors(u):
                if v not in hops:
                    hops[v] = hops[u] + 1
                    reached.append(v)
        frontier = reached
    return hops


def mst_weight(overlay):
    index = {p: i for i, p in enumerate(overlay.peers())}
    weights = link_weights(overlay)
    rows = [index[u] for u, _ in weights]
    cols = [index[v] for _, v in weights]
    n = len(index)
    matrix = coo_matrix((list(weights.values()), (rows, cols)), shape=(n, n))
    return float(minimum_spanning_tree(matrix.tocsr()).sum())


@pytest.mark.parametrize("engine", ["kernel", "scalar"])
@examples
@given(config=worlds)
def test_flooding_at_unbounded_ttl_matches_its_closed_form(engine, config):
    overlay = build_world(config)
    assert overlay.is_connected()
    n, weights = overlay.num_peers, link_weights(overlay)
    strategy = blind_flooding_strategy(overlay)
    for prop in queries(overlay, strategy, engine):
        assert prop.search_scope == n
        assert prop.messages == 2 * len(weights) - (n - 1)
        assert prop.duplicate_messages == prop.messages - (prop.search_scope - 1)
        tree = math.fsum(
            overlay.cost(parent, child) for child, parent in prop.parent.items()
        )
        expected = 2.0 * math.fsum(weights.values()) - tree
        assert within_ulps(prop.traffic_cost, expected)


@pytest.mark.parametrize("engine", ["kernel", "scalar"])
@examples
@given(config=worlds, ttl=st.integers(1, 4))
def test_flooding_at_ttl_k_stays_inside_the_bfs_ball(engine, config, ttl):
    overlay = build_world(config)
    strategy = blind_flooding_strategy(overlay)
    unbounded = queries(overlay, strategy, engine)
    for free, prop in zip(unbounded, queries(overlay, strategy, engine, ttl=ttl)):
        ball = bfs_hops(overlay, prop.source)
        assert prop.reached <= {p for p, d in ball.items() if d <= ttl}
        for peer, hops in prop.hops.items():
            assert ball[peer] <= hops <= ttl
            assert prop.arrival_time[peer] >= free.arrival_time[peer]


@pytest.mark.parametrize("engine", ["kernel", "scalar"])
@examples
@given(config=worlds)
def test_saturated_ace_routes_every_query_on_the_global_mst(engine, config):
    overlay = build_world(config)
    # A closure of depth n - 1 covers any connected overlay of n peers.
    protocol = AceProtocol(
        overlay,
        AceConfig(depth=max(1, overlay.num_peers - 1)),
        rng=np.random.default_rng(config.seed),
    )
    protocol.step()
    overlay.warm_edge_costs()
    assert overlay.is_connected()
    n, mst = overlay.num_peers, mst_weight(overlay)
    for prop in queries(overlay, ace_strategy(protocol), engine):
        assert prop.search_scope == n
        assert prop.messages == n - 1
        assert prop.duplicate_messages == 0
        assert within_ulps(prop.traffic_cost, mst)
