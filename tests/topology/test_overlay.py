"""Unit tests for the logical overlay."""

import numpy as np
import pytest

from repro.oracle import exact as exact_module
from repro.perf import counters, reset_counters
from repro.topology.overlay import (
    power_law_overlay,
    random_overlay,
    small_world_overlay,
)
from tests.reference.graphs import to_networkx
from tests.reference.overlay import Overlay


@pytest.fixture
def empty_overlay(grid_physical):
    return Overlay(grid_physical)


class TestPeers:
    def test_add_peer(self, empty_overlay):
        empty_overlay.add_peer(0, 5)
        assert empty_overlay.has_peer(0)
        assert empty_overlay.host_of(0) == 5
        assert empty_overlay.num_peers == 1

    def test_add_duplicate_peer_raises(self, empty_overlay):
        empty_overlay.add_peer(0, 5)
        with pytest.raises(ValueError, match="already exists"):
            empty_overlay.add_peer(0, 6)

    def test_add_peer_bad_host(self, empty_overlay):
        with pytest.raises(ValueError, match="out of range"):
            empty_overlay.add_peer(0, 999)

    def test_remove_peer_clears_edges(self, triangle_overlay):
        triangle_overlay.remove_peer(0)
        assert not triangle_overlay.has_peer(0)
        assert triangle_overlay.num_edges == 1
        assert 0 not in triangle_overlay.neighbors(1)

    def test_peers_sorted(self, empty_overlay):
        for p, h in [(3, 1), (1, 2), (2, 3)]:
            empty_overlay.add_peer(p, h)
        assert empty_overlay.peers() == [1, 2, 3]

    def test_constructor_hosts(self, grid_physical):
        ov = Overlay(grid_physical, {7: 0, 9: 1})
        assert ov.peers() == [7, 9]


class TestEdges:
    def test_connect_symmetric(self, empty_overlay):
        empty_overlay.add_peer(0, 0)
        empty_overlay.add_peer(1, 1)
        assert empty_overlay.connect(0, 1) is True
        assert empty_overlay.has_edge(0, 1)
        assert empty_overlay.has_edge(1, 0)
        assert 1 in empty_overlay.neighbors(0)
        assert 0 in empty_overlay.neighbors(1)

    def test_connect_existing_returns_false(self, triangle_overlay):
        assert triangle_overlay.connect(0, 1) is False

    def test_connect_self_raises(self, triangle_overlay):
        with pytest.raises(ValueError, match="itself"):
            triangle_overlay.connect(0, 0)

    def test_connect_unknown_peer_raises(self, triangle_overlay):
        with pytest.raises(KeyError):
            triangle_overlay.connect(0, 99)

    def test_disconnect(self, triangle_overlay):
        assert triangle_overlay.disconnect(0, 1) is True
        assert not triangle_overlay.has_edge(0, 1)
        assert triangle_overlay.disconnect(0, 1) is False

    def test_disconnect_unknown_raises(self, triangle_overlay):
        with pytest.raises(KeyError):
            triangle_overlay.disconnect(0, 99)

    def test_degree_and_average(self, triangle_overlay):
        assert triangle_overlay.degree(0) == 2
        assert triangle_overlay.average_degree() == pytest.approx(2.0)

    def test_average_degree_empty(self, empty_overlay):
        assert empty_overlay.average_degree() == 0.0

    def test_edges_iteration_ordered_pairs(self, triangle_overlay):
        assert sorted(triangle_overlay.edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_num_edges(self, triangle_overlay):
        assert triangle_overlay.num_edges == 3


class TestCosts:
    def test_cost_is_underlay_shortest_path(self, triangle_overlay):
        # Peers 0 and 1 live on grid hosts 0 and 3: 3 links of delay 10.
        assert triangle_overlay.cost(0, 1) == pytest.approx(30.0)

    def test_cost_symmetric(self, triangle_overlay):
        assert triangle_overlay.cost(1, 2) == triangle_overlay.cost(2, 1)

    def test_cost_same_host_zero(self, grid_physical):
        ov = Overlay(grid_physical, {0: 4, 1: 4})
        assert ov.cost(0, 1) == 0.0

    def test_cost_of_unconnected_pair_works(self, triangle_overlay):
        triangle_overlay.disconnect(0, 2)
        assert triangle_overlay.cost(0, 2) == pytest.approx(30.0)

    def test_costs_from_bulk_matches_single(self, triangle_overlay):
        bulk = triangle_overlay.costs_from(0, [1, 2])
        assert bulk[1] == pytest.approx(triangle_overlay.cost(0, 1))
        assert bulk[2] == pytest.approx(triangle_overlay.cost(0, 2))

    def test_costs_from_cached_pairs_skip_underlay(self, triangle_overlay):
        triangle_overlay.cost(0, 1)
        triangle_overlay.cost(0, 2)
        bulk = triangle_overlay.costs_from(0, [1, 2])
        assert bulk[1] == pytest.approx(30.0)

    def test_total_edge_cost(self, triangle_overlay):
        expected = sum(
            triangle_overlay.cost(u, v) for u, v in triangle_overlay.edges()
        )
        assert triangle_overlay.total_edge_cost() == pytest.approx(expected)

    def test_triangle_costs_exact(self, triangle_overlay):
        # Hosts 0, 3, 12 on a 4x4 grid with delay-10 links.
        assert triangle_overlay.cost(0, 1) == pytest.approx(30.0)
        assert triangle_overlay.cost(0, 2) == pytest.approx(30.0)
        assert triangle_overlay.cost(1, 2) == pytest.approx(60.0)


class TestConnectivity:
    def test_component_of(self, triangle_overlay):
        assert triangle_overlay.component_of(0) == {0, 1, 2}

    def test_components_split(self, grid_physical, overlay_class):
        ov = overlay_class(grid_physical, {i: i for i in range(4)})
        ov.connect(0, 1)
        ov.connect(2, 3)
        assert not ov.is_connected()
        assert [ov.component_of(p) for p in range(4)] == [{0, 1}, {0, 1}, {2, 3}, {2, 3}]

    def test_is_connected(self, triangle_overlay):
        assert triangle_overlay.is_connected()
        triangle_overlay.disconnect(0, 1)
        triangle_overlay.disconnect(1, 2)
        assert not triangle_overlay.is_connected()

    def test_empty_overlay_connected(self, empty_overlay):
        assert empty_overlay.is_connected()


class TestCopy:
    def test_copy_is_independent(self, triangle_overlay):
        clone = triangle_overlay.copy()
        clone.disconnect(0, 1)
        assert triangle_overlay.has_edge(0, 1)
        assert not clone.has_edge(0, 1)

    def test_copy_preserves_structure(self, triangle_overlay):
        clone = triangle_overlay.copy()
        assert clone.peers() == triangle_overlay.peers()
        assert sorted(clone.edges()) == sorted(triangle_overlay.edges())

    def test_copy_shares_physical(self, triangle_overlay):
        assert triangle_overlay.copy().physical is triangle_overlay.physical


class TestNetworkxExport:
    def test_to_networkx(self, triangle_overlay):
        # The cross-validation tests' view (tests/reference/graphs.py).
        g = to_networkx(triangle_overlay)
        assert g.number_of_nodes() == 3
        assert g.number_of_edges() == 3
        assert g[0][1]["cost"] == pytest.approx(30.0)
        assert g.nodes[1]["host"] == 3


@pytest.mark.parametrize(
    "factory",
    [random_overlay, power_law_overlay, small_world_overlay],
    ids=["random", "power_law", "small_world"],
)
class TestOverlayGenerators:
    def test_connected(self, ba_physical, factory):
        ov = factory(ba_physical, 50, avg_degree=6, rng=np.random.default_rng(3))
        assert ov.is_connected()

    def test_peer_count(self, ba_physical, factory):
        ov = factory(ba_physical, 50, avg_degree=6, rng=np.random.default_rng(3))
        assert ov.num_peers == 50

    def test_average_degree_close(self, ba_physical, factory):
        ov = factory(ba_physical, 50, avg_degree=6, rng=np.random.default_rng(3))
        assert 4.0 <= ov.average_degree() <= 7.0

    def test_distinct_hosts(self, ba_physical, factory):
        ov = factory(ba_physical, 50, avg_degree=6, rng=np.random.default_rng(3))
        hosts = [ov.host_of(p) for p in ov.peers()]
        assert len(set(hosts)) == len(hosts)

    def test_deterministic(self, ba_physical, factory):
        a = factory(ba_physical, 30, avg_degree=4, rng=np.random.default_rng(9))
        b = factory(ba_physical, 30, avg_degree=4, rng=np.random.default_rng(9))
        assert sorted(a.edges()) == sorted(b.edges())

    def test_too_many_peers_raises(self, grid_physical, factory):
        with pytest.raises(ValueError):
            factory(grid_physical, 100, avg_degree=4, rng=np.random.default_rng(0))


class TestGeneratorEdgeCases:
    def test_random_overlay_rejects_tiny_degree(self, ba_physical):
        with pytest.raises(ValueError, match="avg_degree"):
            random_overlay(ba_physical, 10, avg_degree=1)

    def test_small_world_rejects_bad_triad_probability(self, ba_physical):
        with pytest.raises(ValueError, match="triad_probability"):
            small_world_overlay(
                ba_physical, 20, triad_probability=1.5, rng=np.random.default_rng(0)
            )

    def test_small_world_clusters_more_than_random(self, ba_physical):
        from repro.topology.properties import clustering_coefficient

        rng = np.random.default_rng(4)
        sw = small_world_overlay(ba_physical, 60, avg_degree=6, rng=rng)
        rnd = random_overlay(ba_physical, 60, avg_degree=6, rng=rng)
        assert clustering_coefficient(sw) > 2 * clustering_coefficient(rnd)


class TestEdgeCostCache:
    """The persistent per-edge cost cache and its invalidation hooks."""

    def test_warm_edge_costs_fills_every_edge(self, triangle_overlay):
        filled = triangle_overlay.warm_edge_costs()
        assert filled == triangle_overlay.num_edges
        assert triangle_overlay.cached_edge_costs == triangle_overlay.num_edges

    def test_warm_edge_costs_idempotent(self, triangle_overlay):
        triangle_overlay.warm_edge_costs()
        assert triangle_overlay.warm_edge_costs() == 0

    def test_warmed_costs_match_underlay(self, triangle_overlay):
        triangle_overlay.warm_edge_costs()
        phys = triangle_overlay.physical
        for u, v in triangle_overlay.edges():
            hu, hv = triangle_overlay.host_of(u), triangle_overlay.host_of(v)
            assert triangle_overlay.cost(u, v) == pytest.approx(phys.delay(hu, hv))

    def test_warm_edge_costs_chunked(self, ba_physical, rng, monkeypatch):
        # The oracle streams the fill's rows four sources at a time.
        monkeypatch.setattr(exact_module, "_CHUNK", 4)
        ov = small_world_overlay(ba_physical, 30, avg_degree=6, rng=rng)
        reset_counters()
        assert ov.warm_edge_costs() == ov.num_edges
        assert counters.largest_batch == 4
        for u, v in ov.edges():
            hu, hv = ov.host_of(u), ov.host_of(v)
            assert ov.cost(u, v) == pytest.approx(ba_physical.delay(hu, hv))

    def test_disconnect_invalidates_entry(self, triangle_overlay):
        triangle_overlay.warm_edge_costs()
        triangle_overlay.disconnect(0, 1)
        assert triangle_overlay.cached_edge_costs == 2

    def test_remove_peer_invalidates_incident_entries(self, triangle_overlay):
        triangle_overlay.warm_edge_costs()
        triangle_overlay.remove_peer(0)
        assert triangle_overlay.cached_edge_costs == 1  # only edge 1-2 left

    def test_rewired_edge_reflects_new_underlay_delay(self, grid_physical):
        # ACE-style rewiring: cut 0-1, connect 0-2; the cached cost of the
        # old edge must not leak into the new one.
        ov = Overlay(grid_physical, {0: 0, 1: 3, 2: 12, 3: 15})
        ov.connect(0, 1)
        ov.warm_edge_costs()
        assert ov.cost(0, 1) == pytest.approx(30.0)
        ov.disconnect(0, 1)
        ov.connect(0, 2)
        assert ov.cost(0, 2) == pytest.approx(grid_physical.delay(0, 12))
        ov.warm_edge_costs()
        assert ov.cost(0, 2) == pytest.approx(30.0)

    def test_rejoin_on_different_host_gets_fresh_costs(self, grid_physical):
        # Churn: peer 1 leaves host 3 and rejoins on host 15; a stale cached
        # edge cost for (0, 1) would report the old host's delay.
        ov = Overlay(grid_physical, {0: 0, 1: 3})
        ov.connect(0, 1)
        ov.warm_edge_costs()
        assert ov.cost(0, 1) == pytest.approx(30.0)
        ov.remove_peer(1)
        ov.add_peer(1, 15)
        ov.connect(0, 1)
        ov.warm_edge_costs()
        assert ov.cost(0, 1) == pytest.approx(grid_physical.delay(0, 15))
        assert ov.cost(0, 1) != pytest.approx(30.0)

    def test_connect_seeds_cost_from_host_pair_cache(self, triangle_overlay):
        triangle_overlay.warm_edge_costs()
        triangle_overlay.disconnect(0, 1)
        # Reconnecting a known host pair fills the entry without any
        # underlay work.
        triangle_overlay.connect(0, 1)
        assert triangle_overlay.cached_edge_costs == 3

    def test_same_host_edge_costs_zero(self, grid_physical):
        ov = Overlay(grid_physical, {0: 5, 1: 5})
        ov.connect(0, 1)
        assert ov.warm_edge_costs() == 0  # filled inline, no underlay solve
        assert ov.cost(0, 1) == 0.0

    def test_copy_gets_private_edge_cost_cache(self, triangle_overlay):
        triangle_overlay.warm_edge_costs()
        clone = triangle_overlay.copy()
        clone.disconnect(0, 1)
        assert clone.cached_edge_costs == 2
        assert triangle_overlay.cached_edge_costs == 3

    def test_costs_from_populates_edge_cache_for_neighbors_only(
        self, triangle_overlay
    ):
        triangle_overlay.disconnect(1, 2)
        triangle_overlay.costs_from(0, [1, 2])  # both still neighbors of 0
        triangle_overlay.costs_from(1, [2])     # 2 is not 1's neighbor now
        assert triangle_overlay.cached_edge_costs == 2
