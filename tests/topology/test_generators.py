"""Unit tests for the BRITE-style topology generators."""

import numpy as np
import pytest

from repro.topology.generators import (
    barabasi_albert,
    glp,
    grid,
    paper_underlay,
    watts_strogatz,
    waxman,
)
from repro.topology.physical import DELAY_GRID

ALL_GENERATORS = [
    ("waxman", lambda rng: waxman(60, rng=rng)),
    ("ba", lambda rng: barabasi_albert(60, m=2, rng=rng)),
    ("glp", lambda rng: glp(60, m=2, rng=rng)),
    ("ws", lambda rng: watts_strogatz(60, k=4, rewire_p=0.2, rng=rng)),
]


@pytest.mark.parametrize("name,factory", ALL_GENERATORS)
class TestCommonProperties:
    def test_connected(self, name, factory):
        topo = factory(np.random.default_rng(7))
        assert topo.is_connected()

    def test_node_count(self, name, factory):
        topo = factory(np.random.default_rng(7))
        assert topo.num_nodes == 60

    def test_positive_delays(self, name, factory):
        topo = factory(np.random.default_rng(7))
        assert all(d > 0 for _, _, d in topo.edges())

    def test_coordinates_provided(self, name, factory):
        topo = factory(np.random.default_rng(7))
        assert topo.coordinates is not None
        assert topo.coordinates.shape == (60, 2)

    def test_deterministic_from_seed(self, name, factory):
        a = factory(np.random.default_rng(42))
        b = factory(np.random.default_rng(42))
        assert sorted(a.edges()) == sorted(b.edges())

    def test_different_seeds_differ(self, name, factory):
        a = factory(np.random.default_rng(1))
        b = factory(np.random.default_rng(2))
        # Edge sets should almost surely differ for random models.
        assert sorted(a.edges()) != sorted(b.edges())

    def test_delays_match_euclidean_distance(self, name, factory):
        # Within half a grid step: every link delay is snapped to the grid.
        topo = factory(np.random.default_rng(7))
        coords = topo.coordinates
        for u, v, d in topo.edges():
            expected = max(float(np.hypot(*(coords[u] - coords[v]))), 1.0)
            assert abs(d - expected) <= DELAY_GRID / 2
            assert d % DELAY_GRID == 0


class TestWaxman:
    def test_min_nodes(self):
        with pytest.raises(ValueError):
            waxman(1)

    def test_higher_alpha_means_more_edges(self):
        low = waxman(80, alpha=0.05, rng=np.random.default_rng(3))
        high = waxman(80, alpha=0.6, rng=np.random.default_rng(3))
        assert high.num_edges > low.num_edges


class TestBarabasiAlbert:
    def test_requires_n_greater_than_m(self):
        with pytest.raises(ValueError):
            barabasi_albert(3, m=3)

    def test_requires_positive_m(self):
        with pytest.raises(ValueError):
            barabasi_albert(10, m=0)

    def test_edge_count_close_to_mn(self):
        topo = barabasi_albert(100, m=2, rng=np.random.default_rng(5))
        # m links per arriving node plus the seed clique.
        assert abs(topo.num_edges - 2 * 100) <= 10

    def test_heavy_tailed_degrees(self):
        topo = barabasi_albert(300, m=2, rng=np.random.default_rng(5))
        degrees = topo.degrees()
        assert degrees.max() >= 5 * np.median(degrees)


class TestGlp:
    def test_requires_enough_nodes(self):
        with pytest.raises(ValueError):
            glp(3, m=2)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            glp(30, p=1.0)
        with pytest.raises(ValueError):
            glp(30, p=-0.1)

    def test_all_nodes_attached(self):
        topo = glp(60, m=2, rng=np.random.default_rng(11))
        assert all(topo.degree(n) >= 1 for n in topo.nodes())


class TestWattsStrogatz:
    def test_rejects_odd_k(self):
        with pytest.raises(ValueError):
            watts_strogatz(20, k=3)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            watts_strogatz(4, k=4)

    def test_no_rewire_is_ring_lattice(self):
        topo = watts_strogatz(20, k=4, rewire_p=0.0, rng=np.random.default_rng(0))
        assert topo.num_edges == 20 * 4 // 2
        assert all(topo.degree(n) == 4 for n in topo.nodes())

    def test_edge_count_preserved_under_rewiring(self):
        topo = watts_strogatz(40, k=4, rewire_p=0.5, rng=np.random.default_rng(0))
        # Rewiring may collide and fall back to the original edge, so the
        # count never exceeds the lattice's and stays close to it.
        assert 40 * 2 - 8 <= topo.num_edges <= 40 * 2


class TestGrid:
    def test_shape_and_edges(self):
        topo = grid(3, 4, delay=10.0)
        assert topo.num_nodes == 12
        # 3 rows x 3 horizontal + 2 x 4 vertical.
        assert topo.num_edges == 3 * 3 + 2 * 4

    def test_uniform_delay(self):
        topo = grid(2, 2, delay=7.0)
        assert all(d == 7.0 for _, _, d in topo.edges())

    def test_manhattan_distances(self):
        topo = grid(3, 3, delay=10.0)
        assert topo.delay(0, 8) == pytest.approx(40.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            grid(0, 3)


class TestPaperUnderlay:
    def test_small_instance(self):
        topo = paper_underlay(n=200, rng=np.random.default_rng(1))
        assert topo.num_nodes == 200
        assert topo.is_connected()
