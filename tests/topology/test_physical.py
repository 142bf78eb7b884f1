"""Unit tests for the physical underlay."""

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.perf import counters
from repro.topology import generators
from repro.topology.physical import PhysicalTopology


def make_line(delays=(1.0, 2.0, 3.0, 4.0)):
    edges = [(i, i + 1) for i in range(len(delays))]
    return PhysicalTopology(len(delays) + 1, edges, list(delays))


class TestConstruction:
    def test_node_and_edge_counts(self):
        topo = make_line()
        assert topo.num_nodes == 5
        assert topo.num_edges == 4

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError, match="num_nodes"):
            PhysicalTopology(0, [], [])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="same length"):
            PhysicalTopology(3, [(0, 1)], [1.0, 2.0])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError, match="out of range"):
            PhysicalTopology(2, [(0, 5)], [1.0])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            PhysicalTopology(2, [(1, 1)], [1.0])

    def test_rejects_nonpositive_delay(self):
        with pytest.raises(ValueError, match="positive"):
            PhysicalTopology(2, [(0, 1)], [0.0])
        with pytest.raises(ValueError, match="positive"):
            PhysicalTopology(2, [(0, 1)], [-3.0])

    def test_duplicate_edges_keep_cheaper(self):
        topo = PhysicalTopology(2, [(0, 1), (1, 0)], [5.0, 2.0])
        assert topo.num_edges == 1
        assert topo.link_delay(0, 1) == 2.0

    def test_rejects_bad_coordinate_shape(self):
        with pytest.raises(ValueError, match="coordinates"):
            PhysicalTopology(3, [(0, 1)], [1.0], coordinates=np.zeros((2, 2)))

    def test_coordinates_stored(self):
        coords = np.arange(6, dtype=float).reshape(3, 2)
        topo = PhysicalTopology(3, [(0, 1)], [1.0], coordinates=coords)
        assert np.array_equal(topo.coordinates, coords)


class TestAccessors:
    def test_neighbors_sorted_tuples(self):
        topo = make_line()
        assert topo.neighbors(0) == (1,)
        assert topo.neighbors(2) == (1, 3)

    def test_degree(self):
        topo = make_line()
        assert topo.degree(0) == 1
        assert topo.degree(2) == 2

    def test_degrees_array(self):
        topo = make_line()
        assert list(topo.degrees()) == [1, 2, 2, 2, 1]

    def test_has_edge_both_orientations(self):
        topo = make_line()
        assert topo.has_edge(0, 1)
        assert topo.has_edge(1, 0)
        assert not topo.has_edge(0, 2)

    def test_link_delay(self):
        topo = make_line()
        assert topo.link_delay(2, 3) == 3.0
        assert topo.link_delay(3, 2) == 3.0

    def test_link_delay_missing_raises(self):
        topo = make_line()
        with pytest.raises(KeyError):
            topo.link_delay(0, 4)

    def test_edges_iteration(self):
        topo = make_line()
        edges = sorted(topo.edges())
        assert edges == [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (3, 4, 4.0)]

    def test_nodes_iteration(self):
        assert list(make_line().nodes()) == [0, 1, 2, 3, 4]


class TestShortestPaths:
    def test_delay_is_path_sum(self):
        topo = make_line()
        assert topo.delay(0, 4) == pytest.approx(10.0)
        assert topo.delay(1, 3) == pytest.approx(5.0)

    def test_delay_zero_to_self(self):
        assert make_line().delay(2, 2) == 0.0

    def test_delay_symmetric(self):
        topo = make_line()
        assert topo.delay(0, 3) == topo.delay(3, 0)

    def test_delay_prefers_cheaper_route(self):
        # Triangle where the direct link is longer than the detour.
        topo = PhysicalTopology(3, [(0, 1), (1, 2), (0, 2)], [1.0, 1.0, 5.0])
        assert topo.delay(0, 2) == pytest.approx(2.0)

    def test_delays_from_vector(self):
        topo = make_line()
        vec = topo.delays_from(0)
        assert list(vec) == [0.0, 1.0, 3.0, 6.0, 10.0]

    def test_delays_from_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            make_line().delays_from(99)

    def test_unreachable_is_inf(self):
        topo = PhysicalTopology(4, [(0, 1), (2, 3)], [1.0, 1.0])
        assert np.isinf(topo.delay(0, 3))

    def test_path_endpoints_and_cost(self):
        topo = make_line()
        path = topo.path(0, 3)
        assert path[0] == 0 and path[-1] == 3
        assert topo.path_delay(path) == pytest.approx(topo.delay(0, 3))

    def test_path_to_self(self):
        assert make_line().path(2, 2) == [2]

    def test_path_unreachable_raises(self):
        topo = PhysicalTopology(4, [(0, 1), (2, 3)], [1.0, 1.0])
        with pytest.raises(ValueError, match="unreachable"):
            topo.path(0, 2)

    def test_path_takes_cheaper_route(self):
        topo = PhysicalTopology(3, [(0, 1), (1, 2), (0, 2)], [1.0, 1.0, 5.0])
        assert topo.path(0, 2) == [0, 1, 2]

    def test_cache_eviction_does_not_change_results(self):
        topo = PhysicalTopology(
            6,
            [(i, i + 1) for i in range(5)],
            [1.0] * 5,
            cache_size=2,
        )
        first = [topo.delay(s, 5) for s in range(5)]
        second = [topo.delay(s, 5) for s in range(5)]
        assert first == second == [5.0, 4.0, 3.0, 2.0, 1.0]

    def test_delay_uses_either_cached_endpoint(self):
        topo = make_line()
        topo.delays_from(4)
        # 0 is not cached; the 4-rooted cache must serve (0, 4) correctly.
        assert topo.delay(0, 4) == pytest.approx(10.0)


class TestConnectivity:
    def test_connected_line(self):
        assert make_line().is_connected()

    def test_disconnected_pair(self):
        topo = PhysicalTopology(4, [(0, 1), (2, 3)], [1.0, 1.0])
        assert not topo.is_connected()

    def test_component_labels(self):
        topo = PhysicalTopology(4, [(0, 1), (2, 3)], [1.0, 1.0])
        labels = topo.component_labels()
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_largest_component(self):
        topo = PhysicalTopology(5, [(0, 1), (1, 2), (3, 4)], [1.0] * 3)
        assert topo.largest_component_nodes() == [0, 1, 2]


class TestNetworkxInterop:
    def test_roundtrip(self):
        topo = make_line()
        back = PhysicalTopology.from_networkx(topo.to_networkx())
        assert back.num_nodes == topo.num_nodes
        assert sorted(back.edges()) == sorted(topo.edges())

    def test_from_networkx_requires_contiguous_labels(self):
        import networkx as nx

        g = nx.Graph()
        g.add_edge(0, 5)
        with pytest.raises(ValueError, match="0..n-1"):
            PhysicalTopology.from_networkx(g)

    def test_from_networkx_default_weight(self):
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(2))
        g.add_edge(0, 1)
        topo = PhysicalTopology.from_networkx(g)
        assert topo.link_delay(0, 1) == 1.0


class TestBatchedDijkstra:
    def test_delays_from_many_matches_single_source(self):
        topo = make_line()
        batched = topo.delays_from_many([0, 2, 4])
        for s, vec in batched.items():
            assert list(vec) == pytest.approx(list(topo.delays_from(s)))

    def test_delays_from_many_deduplicates_sources(self):
        topo = make_line()
        out = topo.delays_from_many([1, 1, 1, 3, 3])
        assert sorted(out) == [1, 3]

    def test_delays_from_many_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            make_line().delays_from_many([0, 99])

    def test_delays_from_many_caches_results(self):
        topo = make_line()
        topo.delays_from_many([0, 1, 2])
        assert set(topo.cached_sources()) >= {0, 1, 2}

    def test_delays_from_many_uncached_mode_leaves_lru_empty(self):
        topo = make_line()
        topo.delays_from_many([0, 1, 2], cache=False)
        assert topo.cached_sources() == []

    def test_warm_returns_solved_count_and_is_idempotent(self):
        topo = make_line()
        assert topo.warm([0, 1, 2]) == 3
        assert topo.warm([0, 1, 2]) == 0  # already resident

    def test_warm_grows_capacity_beyond_initial_lru(self):
        topo = PhysicalTopology(
            6, [(i, i + 1) for i in range(5)], [1.0] * 5, cache_size=2
        )
        topo.warm(range(6))
        assert topo.dijkstra_cache_size >= 6
        assert sorted(topo.cached_sources()) == [0, 1, 2, 3, 4, 5]

    def test_warm_chunking_covers_all_sources(self):
        topo = PhysicalTopology(
            8, [(i, i + 1) for i in range(7)], [1.0] * 7
        )
        assert topo.warm(range(8), chunk_size=3) == 8
        assert sorted(topo.cached_sources()) == list(range(8))

    def test_warm_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_size"):
            make_line().warm([0], chunk_size=0)

    def test_batched_results_survive_path_queries(self):
        # A batched (distance-only) entry upgraded by a path() call must
        # stay consistent: path cost equals the batched delay.
        topo = make_line()
        vec = topo.delays_from_many([0])[0]
        path = topo.path(0, 4)
        assert topo.path_delay(path) == pytest.approx(float(vec[4]))


class TestLruCoherence:
    def test_delay_fast_path_refreshes_recency(self):
        # Regression: serving a cached source via delay() must refresh LRU
        # recency, otherwise hot sources get evicted as if cold.
        topo = PhysicalTopology(
            6, [(i, i + 1) for i in range(5)], [1.0] * 5, cache_size=2
        )
        topo.delays_from(0)   # cache: [0]
        topo.delays_from(1)   # cache: [0, 1]
        topo.delay(0, 5)      # fast path on 0 -> cache order: [1, 0]
        topo.delays_from(2)   # evicts 1, keeps hot 0
        cached = topo.cached_sources()
        assert 0 in cached and 1 not in cached

    def test_delay_fast_path_refreshes_recency_v_branch(self):
        topo = PhysicalTopology(
            6, [(i, i + 1) for i in range(5)], [1.0] * 5, cache_size=2
        )
        topo.delays_from(3)   # cache: [3]
        topo.delays_from(4)   # cache: [3, 4]
        topo.delay(0, 3)      # fast path via cached v=3 -> order: [4, 3]
        topo.delays_from(2)   # evicts 4, keeps hot 3
        cached = topo.cached_sources()
        assert 3 in cached and 4 not in cached

    def test_eviction_keeps_pred_cache_subset_of_dist_cache(self):
        topo = PhysicalTopology(
            8, [(i, i + 1) for i in range(7)], [1.0] * 7, cache_size=3
        )
        # Mix predecessor-bearing runs (path) with batched distance-only
        # solves, forcing evictions; the caches must never drift.
        for s in range(6):
            topo.path(s, 7)
        topo.delays_from_many([6, 7])
        topo.path(0, 7)
        # replint: disable=REP002 — this test *is* the coherence contract:
        # it may inspect the private LRUs to prove they never drift.
        assert set(topo._pred_cache) <= set(topo._dist_cache)
        # replint: disable=REP002 — same white-box coherence check
        assert len(topo._dist_cache) <= topo.dijkstra_cache_size


def undirected_reference(topo):
    """All-pairs delays by scipy's undirected mode over the same links."""
    u, v, d = (np.array(col) for col in zip(*topo.edges()))
    n = topo.num_nodes
    matrix = csr_matrix(
        (np.r_[d, d], (np.r_[u, v], np.r_[v, u])), shape=(n, n)
    )
    return dijkstra(matrix, directed=False)


UNDERLAYS = {
    "waxman": lambda rng: generators.waxman(90, rng=rng),
    "ba": lambda rng: generators.barabasi_albert(90, m=2, rng=rng),
    "glp": lambda rng: generators.glp(90, rng=rng),
    "ws": lambda rng: generators.watts_strogatz(90, rng=rng),
    "grid": lambda rng: generators.grid(9, 10, delay=3.7),
    "paper": lambda rng: generators.paper_underlay(90, rng=rng),
    "two components": lambda rng: PhysicalTopology(
        5, [(0, 1), (1, 2), (3, 4)], [0.1, 0.2, 0.7]
    ),
}


class TestDirectedSolveOverSymmetricCsr:
    """The CSR holds both directions of every link, so the solver runs in
    directed mode (each edge scanned once); the floats must be those of the
    undirected mode, on every generator and on a shared-memory attach."""

    @pytest.mark.parametrize("kind", sorted(UNDERLAYS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_equals_undirected_mode_bit_for_bit(self, kind, seed):
        topo = UNDERLAYS[kind](np.random.default_rng(seed))
        want = undirected_reference(topo)
        nodes = list(topo.nodes())
        batched = topo.delays_from_many(nodes, cache=False)
        with topo.export_shared() as shared:
            attached = PhysicalTopology.attach_shared(shared.handle)
            for s in nodes:
                assert batched[s].tobytes() == want[s].tobytes()
                assert topo.delays_from(s).tobytes() == want[s].tobytes()
                assert attached.delays_from(s).tobytes() == want[s].tobytes()

    def test_distance_fault_skips_predecessors_and_path_solves_them(self):
        topo = PhysicalTopology(
            4, [(0, 1), (1, 2), (2, 3), (0, 3)], [1.0, 1.0, 1.0, 5.0]
        )
        vec = topo.delays_from(0)
        assert topo.delay(1, 3) == 2.0
        # replint: disable=REP002 — white-box: distance-only faults must not
        # pay for predecessor arrays nobody reads
        assert not topo._pred_cache
        before = counters.copy()
        assert topo.path(0, 3) == [0, 1, 2, 3]
        assert counters.delta(before)["dijkstra_sources"] == 1
        assert topo.delays_from(0).tobytes() == vec.tobytes()
        before = counters.copy()
        assert topo.path(0, 2) == [0, 1, 2]  # predecessors now resident
        assert counters.delta(before)["dijkstra_sources"] == 0

    def test_path_after_eviction_solves_again_and_caches_stay_coherent(self):
        topo = PhysicalTopology(
            6, [(i, i + 1) for i in range(5)], [1.0] * 5, cache_size=2
        )
        assert topo.path(0, 5) == [0, 1, 2, 3, 4, 5]
        topo.delays_from(1)
        topo.delays_from(2)  # evicts source 0, distances and predecessors
        # replint: disable=REP002 — white-box coherence check
        assert set(topo._pred_cache) <= set(topo._dist_cache) == {1, 2}
        assert topo.path(0, 5) == [0, 1, 2, 3, 4, 5]
        assert topo.path_delay(topo.path(2, 5)) == topo.delay(2, 5)
