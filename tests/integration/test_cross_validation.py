"""Cross-validation against networkx reference implementations."""

import networkx as nx
import numpy as np
import pytest

from repro.search.flooding import blind_flooding_strategy, propagate
from repro.topology.generators import barabasi_albert
from repro.topology.overlay import small_world_overlay
from repro.topology.properties import (
    characteristic_path_length,
    clustering_coefficient,
)
from tests.reference.graphs import to_networkx


@pytest.fixture(scope="module")
def world():
    rng = np.random.default_rng(77)
    physical = barabasi_albert(300, m=2, rng=rng)
    overlay = small_world_overlay(physical, 60, avg_degree=6, rng=rng)
    return physical, overlay


class TestShortestPathsAgainstNetworkx:
    def test_underlay_delays(self, world):
        physical, _overlay = world
        g = to_networkx(physical)
        sources = [0, 50, 150]
        for s in sources:
            expected = nx.single_source_dijkstra_path_length(g, s, weight="delay")
            vec = physical.delays_from(s)
            for node, dist in expected.items():
                assert vec[node] == pytest.approx(dist)

    def test_flooding_arrival_times_are_overlay_dijkstra(self, world):
        """Blind flooding explores every path, so the first arrival at a
        peer equals the cost-weighted shortest path in the logical graph."""
        _physical, overlay = world
        g = to_networkx(overlay)
        source = overlay.peers()[0]
        prop = propagate(overlay, source, blind_flooding_strategy(overlay), ttl=None)
        expected = nx.single_source_dijkstra_path_length(g, source, weight="cost")
        for peer, t in prop.arrival_time.items():
            assert t == pytest.approx(expected[peer])

    def test_flooding_hops_are_bfs_levels(self, world):
        """TTL semantics follow hop counts of the first delivery; every
        reached peer's hop count is at least its BFS level."""
        _physical, overlay = world
        g = to_networkx(overlay)
        source = overlay.peers()[0]
        prop = propagate(overlay, source, blind_flooding_strategy(overlay), ttl=None)
        levels = nx.single_source_shortest_path_length(g, source)
        for peer, h in prop.hops.items():
            assert h >= levels[peer]


class TestGraphStatsAgainstNetworkx:
    def test_clustering_coefficient(self, world):
        _physical, overlay = world
        ours = clustering_coefficient(overlay)
        theirs = nx.average_clustering(to_networkx(overlay))
        assert ours == pytest.approx(theirs)

    def test_exact_path_length(self, world):
        _physical, overlay = world
        ours = characteristic_path_length(overlay, samples=overlay.num_peers)
        theirs = nx.average_shortest_path_length(to_networkx(overlay))
        assert ours == pytest.approx(theirs)

    def test_mst_weight_on_closures(self, world):
        from tests.reference.closure import neighbor_closure
        from tests.reference.spanning_tree import prim_mst_heap

        _physical, overlay = world
        for source in overlay.peers()[:5]:
            closure = neighbor_closure(overlay, source, 2)
            g = nx.Graph()
            for u, nbrs in closure.edges.items():
                for v, c in nbrs.items():
                    g.add_edge(u, v, weight=c)
            expected = sum(
                d["weight"]
                for _u, _v, d in nx.minimum_spanning_edges(g, data=True)
            )
            tree = prim_mst_heap(closure.edges, source)
            assert tree.total_cost == pytest.approx(expected)
