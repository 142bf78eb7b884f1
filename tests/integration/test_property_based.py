"""Property-based tests (hypothesis) on the core invariants.

These exercise the DESIGN.md invariants over randomly generated worlds:

* ACE tree routing reaches exactly the blind-flooding scope;
* ACE routing traffic never exceeds blind flooding;
* optimization never disconnects the overlay;
* the reference Prim's tree weighs what scipy's minimum spanning tree
  weighs, on arbitrary weighted graphs;
* the LRU index cache behaves like a reference model.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ace import AceConfig, AceProtocol
from repro.search.caching import IndexCache
from repro.search.flooding import blind_flooding_strategy, propagate
from repro.search.tree_routing import ace_strategy
from repro.topology.overlay import small_world_overlay
from tests.core.test_spanning_tree import edges_of, scipy_mst_weight
from tests.reference.spanning_tree import prim_mst_heap

SLOW = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# Random world strategies
# ---------------------------------------------------------------------------


def build_world(seed, n_peers, avg_degree):
    rng = np.random.default_rng(seed)
    from repro.topology.generators import barabasi_albert

    physical = barabasi_albert(max(4 * n_peers, 60), m=2, rng=rng)
    overlay = small_world_overlay(
        physical, n_peers, avg_degree=avg_degree, rng=rng
    )
    return overlay


world_params = st.tuples(
    st.integers(min_value=0, max_value=10_000),  # seed
    st.integers(min_value=12, max_value=28),  # peers
    st.sampled_from([4, 6, 8]),  # degree
)


@st.composite
def weighted_graphs(draw):
    """Connected symmetric weighted adjacency maps."""
    n = draw(st.integers(min_value=2, max_value=10))
    g = {i: {} for i in range(n)}
    # Random spanning tree guarantees connectivity.
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        w = draw(st.floats(min_value=0.1, max_value=100.0, allow_nan=False))
        g[u][v] = w
        g[v][u] = w
    extra = draw(st.integers(min_value=0, max_value=2 * n))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u == v or v in g[u]:
            continue
        w = draw(st.floats(min_value=0.1, max_value=100.0, allow_nan=False))
        g[u][v] = w
        g[v][u] = w
    return g


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------


class TestSearchScopeInvariant:
    @SLOW
    @given(params=world_params, depth=st.sampled_from([1, 2]))
    def test_ace_routing_preserves_scope(self, params, depth):
        seed, n_peers, degree = params
        overlay = build_world(seed, n_peers, degree)
        protocol = AceProtocol(
            overlay, AceConfig(depth=depth), rng=np.random.default_rng(seed)
        )
        protocol.run(2)
        all_peers = set(overlay.peers())
        for source in overlay.peers()[:3]:
            reached = propagate(
                overlay, source, ace_strategy(protocol), ttl=None
            ).reached
            assert reached == all_peers

    @SLOW
    @given(params=world_params)
    def test_ace_traffic_never_exceeds_blind(self, params):
        seed, n_peers, degree = params
        overlay = build_world(seed, n_peers, degree)
        protocol = AceProtocol(overlay, rng=np.random.default_rng(seed))
        protocol.run(2)
        for source in overlay.peers()[:3]:
            blind = propagate(
                overlay, source, blind_flooding_strategy(overlay), ttl=None
            )
            tree = propagate(overlay, source, ace_strategy(protocol), ttl=None)
            assert tree.traffic_cost <= blind.traffic_cost + 1e-9

    @SLOW
    @given(params=world_params, steps=st.integers(min_value=1, max_value=4))
    def test_optimization_never_disconnects(self, params, steps):
        seed, n_peers, degree = params
        overlay = build_world(seed, n_peers, degree)
        protocol = AceProtocol(overlay, rng=np.random.default_rng(seed))
        protocol.run(steps)
        assert overlay.is_connected()

    @SLOW
    @given(params=world_params)
    def test_costs_form_a_metric(self, params):
        seed, n_peers, degree = params
        overlay = build_world(seed, n_peers, degree)
        peers = overlay.peers()[:6]
        for a in peers:
            for b in peers:
                assert overlay.cost(a, b) == pytest.approx(overlay.cost(b, a))
                for c in peers:
                    assert (
                        overlay.cost(a, c)
                        <= overlay.cost(a, b) + overlay.cost(b, c) + 1e-9
                    )


class TestPrimEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(graph=weighted_graphs(), root_seed=st.integers(0, 100))
    def test_total_cost_matches_scipy(self, graph, root_seed):
        root = sorted(graph)[root_seed % len(graph)]
        tree = prim_mst_heap(graph, root)
        assert tree.total_cost == pytest.approx(scipy_mst_weight(graph))

    @settings(max_examples=60, deadline=None)
    @given(graph=weighted_graphs())
    def test_tree_has_n_minus_one_edges(self, graph):
        tree = prim_mst_heap(graph, 0)
        assert len(edges_of(tree)) == len(graph) - 1


class TestLruCacheModel:
    @settings(max_examples=80, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=6),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["insert", "lookup"]),
                st.integers(min_value=0, max_value=9),  # object
                st.integers(min_value=0, max_value=4),  # holder
            ),
            max_size=40,
        ),
    )
    def test_against_reference_model(self, capacity, ops):
        from collections import OrderedDict

        cache = IndexCache(capacity=capacity)
        model = OrderedDict()
        for op, obj, holder in ops:
            if op == "insert":
                cache.insert(obj, holder)
                if obj in model:
                    model.move_to_end(obj)
                model[obj] = holder
                while len(model) > capacity:
                    model.popitem(last=False)
            else:
                expected = model.get(obj)
                if expected is not None:
                    model.move_to_end(obj)
                assert cache.lookup(obj) == expected
        assert len(cache) == len(model)


class TestSeriesCollectorModel:
    @settings(max_examples=80, deadline=None)
    @given(
        window=st.integers(min_value=1, max_value=5),
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            max_size=30,
        ),
    )
    def test_points_are_window_means(self, window, values):
        from repro.metrics.collector import SeriesCollector

        collector = SeriesCollector(window)
        for v in values:
            collector.add(v)
        collector.flush()
        expected = [
            sum(values[i : i + window]) / len(values[i : i + window])
            for i in range(0, len(values), window)
        ]
        assert collector.points == pytest.approx(expected)
