"""Unit tests for the physical underlay."""

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.perf import counters
from repro.topology import generators
from repro.experiments.setup import ScenarioConfig, build_scenario
from repro.topology.physical import DELAY_GRID, PhysicalTopology


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

    def test_delay_that_rounds_to_zero_is_refused(self):
        with pytest.raises(ValueError, match="positive on the"):
            PhysicalTopology(2, [(0, 1)], [DELAY_GRID / 4])

    def test_delays_snap_to_the_nearest_grid_multiple(self):
        topo = PhysicalTopology(3, [(0, 1), (1, 2)], [0.1, 1000.0004])
        assert topo.link_delay(0, 1) == 102 * DELAY_GRID
        assert topo.link_delay(1, 2) == 1000.0
        assert topo.link_delay(0, 1) + topo.link_delay(1, 2) == topo.delay(2, 0)

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

    def test_delays_from_many_neither_reads_nor_keeps_an_lru_row(self):
        topo = make_line()
        resident = topo.delays_from(1)
        before = counters.copy()
        out = topo.delays_from_many([0, 1, 2])
        delta = counters.delta(before)
        assert (delta["dijkstra_sources"], delta["delay_cache_hits"]) == (3, 0)
        assert delta["delay_cache_misses"] == 0
        assert out[1] is not resident and out[1].tobytes() == resident.tobytes()
        assert topo.cached_sources() == [1]

    def test_delays_from_many_reads_only_the_asked_hosts(self):
        topo = make_line()
        out = topo.delays_from_many([3, 0], [[4, 0, 3], []])
        assert out[3].tolist() == [4.0, 6.0, 0.0]
        assert out[0].tolist() == []
        assert topo.cached_sources() == []

    def test_delays_from_many_refuses_bad_targets_before_solving(self):
        topo = make_line()
        before = counters.copy()
        with pytest.raises(ValueError, match="host id out of range"):
            topo.delays_from_many([0, 1], [[2], [5]])
        with pytest.raises(ValueError, match="one host list per distinct source"):
            topo.delays_from_many([0, 1], [[2]])
        assert counters.delta(before)["dijkstra_sources"] == 0


@pytest.mark.parametrize(
    "make",
    [
        lambda size: PhysicalTopology(3, [(0, 1), (1, 2)], [1.0, 2.0], cache_size=size),
        lambda size: generators.barabasi_albert(
            40, m=2, rng=np.random.default_rng(1), cache_size=size
        ),
        lambda size: generators.grid(4, 5, cache_size=size),
    ],
    ids=["constructor", "barabasi_albert", "grid"],
)
class TestCacheSize:
    def test_zero_cache_size_keeps_no_row_and_still_answers(self, make):
        topo, full = make(0), make(4)
        for s in (0, 2, 0):
            assert topo.delays_from(s).tobytes() == full.delays_from(s).tobytes()
            assert topo.cached_sources() == []
        assert topo.delay(0, 2) == full.delay(0, 2)

    def test_negative_cache_size_is_refused(self, make):
        with pytest.raises(ValueError, match="cache_size must be non-negative"):
            make(-1)


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

    def test_delays_to_reads_the_targets_resident_rows(self):
        topo = make_line()
        for s in (1, 3, 4):
            topo.delays_from(s)  # cache: [1, 3, 4]
        before = counters.copy()
        got = topo.delays_to(0, [3, 1])
        delta = counters.delta(before)
        assert got.tolist() == [6.0, 1.0]
        assert (delta["dijkstra_sources"], delta["delay_cache_hits"]) == (0, 2)
        assert topo.cached_sources() == [4, 3, 1]  # recency refreshed, 0 not solved

    def test_delays_to_solves_the_source_unless_every_target_is_resident(self):
        topo = make_line()
        topo.delays_from(3)
        before = counters.copy()
        got = topo.delays_to(0, [3, 4])  # host 4's row is not resident
        assert got.tolist() == [6.0, 10.0]
        assert counters.delta(before)["dijkstra_sources"] == 1
        assert topo.cached_sources() == [3, 0]
        with pytest.raises(ValueError, match="source -1 out of range"):
            topo.delays_to(-1, [3])
        for bad in (-1, 5):  # a wrapped or past-the-end read of a resident row
            with pytest.raises(ValueError, match="host id out of range"):
                topo.delays_to(3, [4, bad])


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
    undirected mode, on every generator."""

    @pytest.mark.parametrize("kind", sorted(UNDERLAYS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_equals_undirected_mode_bit_for_bit(self, kind, seed):
        topo = UNDERLAYS[kind](np.random.default_rng(seed))
        want = undirected_reference(topo)
        nodes = list(topo.nodes())
        batched = topo.delays_from_many(nodes)
        for s in nodes:
            assert batched[s].tobytes() == want[s].tobytes()
            assert topo.delays_from(s).tobytes() == want[s].tobytes()


class TestDirectionFreeDelays:
    def test_every_host_pair_reads_one_float_at_the_paper_default(self):
        # 160 peers on 1,200 nodes: 12,720 host pairs, each solved from both
        # ends.  Off the grid a third of them differed in the last bit.
        scenario = build_scenario(
            ScenarioConfig(physical_nodes=1200, peers=160, avg_degree=6.0, seed=1)
        )
        overlay = scenario.overlay
        hosts = sorted({overlay.host_of(p) for p in overlay.peers()})
        rows = scenario.physical.delays_from_many(hosts)
        table = np.array([rows[h][hosts] for h in hosts])
        assert len(hosts) == 160
        assert table.tobytes() == table.T.copy().tobytes()


def chains_world():
    """Node 0 with a loop 0-1-2-3-0 that closes on itself, two chains
    0-4-5-6 and 0-7-6 beside a heavier direct link 0-6, a tail 6-8-9, and
    a ring 10-11-12 with no kept node on it."""
    links = {
        (0, 1): 1.0, (1, 2): 0.5, (2, 3): 0.25, (3, 0): 2.0,
        (0, 4): 0.75, (4, 5): 0.5, (5, 6): 0.25,
        (0, 7): 1.0, (7, 6): 1.0,
        (0, 6): 2.5,
        (6, 8): 1.5, (8, 9): 0.125,
        (10, 11): 0.5, (11, 12): 0.75, (12, 10): 1.25,
    }
    return lambda: PhysicalTopology(13, list(links), list(links.values()))


class TestSeriesReduction:
    """Solves on the series-reduced underlay equal the full graph's bit for
    bit, at every node, from kept and contracted sources alike."""

    @staticmethod
    def assert_same_rows(reduced, full, sources):
        got = reduced.delays_from_many(sources)
        want = full.delays_from_many(sources)
        for s in sources:
            assert got[s].tobytes() == want[s].tobytes(), s

    def test_loops_parallel_chains_and_rings_fold_exactly(self):
        make = chains_world()
        reduced, full = make(), make()
        reduced.reduce_series([])
        self.assert_same_rows(reduced, full, list(range(13)))
        # White-box: kept are the hub 0, node 6, the leaf 9 and the ring's
        # lowest node; the reduced graph keeps one 0-6 link (the 0-4-5-6
        # chain, 1.5) and 6-9.  Summed duplicates would read 0-6 as 6.5.
        series = reduced._series
        assert np.flatnonzero(series.kept).tolist() == [0, 6, 9, 10]
        assert (series._matrix.shape[0], series._matrix.nnz) == (4, 2 * 2)
        assert reduced.delay(0, 6) == 1.5
        assert reduced.delay(2, 9) == 0.5 + 1.0 + 1.5 + 1.5 + 0.125

    def test_contracted_source_is_solved_on_the_full_graph(self):
        make = chains_world()
        reduced, full = make(), make()
        reduced.reduce_series([4])
        before = counters.copy()
        self.assert_same_rows(reduced, full, [2, 4, 7])
        assert counters.delta(before)["dijkstra_sources"] == 6
        assert reduced._series.kept[4] and not reduced._series.kept[7]
        assert reduced.delays_from(11).tobytes() == full.delays_from(11).tobytes()

    def test_only_the_first_keep_set_counts(self):
        make = chains_world()
        reduced, full = make(), make()
        reduced.reduce_series([1])
        reduced.delays_from(0)
        reduced.reduce_series([2, 5])
        reduced.delays_from(5)
        assert np.flatnonzero(reduced._series.kept).tolist() == [0, 1, 6, 9, 10]
        self.assert_same_rows(reduced, full, list(range(13)))

    @pytest.mark.parametrize("kind", sorted(UNDERLAYS))
    def test_generated_underlays_fold_exactly(self, kind):
        rng = np.random.default_rng(5)
        reduced = UNDERLAYS[kind](np.random.default_rng(1))
        full = UNDERLAYS[kind](np.random.default_rng(1))
        n = reduced.num_nodes
        reduced.reduce_series(rng.choice(n, size=n // 3, replace=False))
        self.assert_same_rows(reduced, full, list(range(n)))

    @pytest.mark.parametrize("kind", sorted(UNDERLAYS) + ["chains"])
    def test_asked_hosts_read_off_the_reduced_rows_exactly(self, kind):
        # Kept and contracted sources alike, each asked for its own hosts.
        rng = np.random.default_rng(7)
        if kind == "chains":
            reduced, full = chains_world()(), chains_world()()
        else:
            reduced = UNDERLAYS[kind](np.random.default_rng(1))
            full = UNDERLAYS[kind](np.random.default_rng(1))
        n = reduced.num_nodes
        reduced.reduce_series(rng.choice(n, size=n // 3, replace=False))
        sources = list(range(0, n, 3))
        asked = [rng.integers(0, n, size=int(rng.integers(0, 12))) for _ in sources]
        got = reduced.delays_from_many(sources, asked)
        for s, at in zip(sources, asked):
            assert got[s].tobytes() == full.delays_from(s)[at].tobytes(), s

    def test_unreduced_topology_never_builds_a_reduction(self):
        topo = chains_world()()
        topo.delays_from_many(range(13))
        assert topo._series is None
