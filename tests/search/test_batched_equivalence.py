"""Batched propagation engine vs. the heap reference engine.

The contract of :mod:`repro.search.batch` is *bit-identical* results: the
compiled-graph kernels must reproduce the heap engine's arrival times,
parents, hop counts, traffic cost (same float, same addition order),
message and duplicate counts — across strategies, TTLs, and seeds.  These
tests compare full :class:`~repro.search.flooding.QueryPropagation`
records with dataclass equality, which is exact float equality.  The
kernel lowers only an ``ArrayOverlay``; on a hand-built object overlay it
runs on the overlay's array twin and is compared with the heap on the
object overlay itself.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ace import AceConfig, AceProtocol
from repro.core.batch_ace import churn_refresh
from repro.experiments.setup import ScenarioConfig, build_scenario
from repro.perf import counters
from repro.search import batch, expanding_ring
from repro.search.batch import compile_strategy, propagate_many, run_queries
from repro.search.expanding_ring import expanding_ring_query
from repro.search.flooding import blind_flooding_strategy, propagate
from repro.search.tree_routing import ace_strategy
from repro.topology.generators import barabasi_albert
from repro.topology.overlay import small_world_overlay
from repro.topology.soa import ArrayOverlay
from tests.reference import array_twin, object_twin
from tests.reference.caching import stopping_at
from tests.reference.search import graph_by_rows, query_stats, run_query


def make_world(seed: int, peers: int = 36):
    """Small-world overlay on a BA underlay, edge costs warmed."""
    rng = np.random.default_rng(seed)
    physical = barabasi_albert(160, m=2, rng=rng)
    overlay = small_world_overlay(physical, peers, avg_degree=6, rng=rng)
    overlay.warm_edge_costs()
    return overlay


def make_strategy(overlay, kind: str, seed: int):
    if kind == "flooding":
        return blind_flooding_strategy(overlay)
    protocol = AceProtocol(
        overlay, AceConfig(depth=2), rng=np.random.default_rng(seed)
    )
    protocol.rebuild_all_trees()
    return ace_strategy(protocol)


def sample_sources(overlay, rng, k: int = 10):
    peers = overlay.peers()
    return [peers[int(i)] for i in rng.integers(0, len(peers), size=k)]


class TestBatchedMatchesScalar:
    @pytest.mark.parametrize("kind", ["flooding", "ace"])
    @pytest.mark.parametrize("ttl", [3, 7, None])
    @pytest.mark.parametrize("seed", [1, 2, 11])
    def test_full_propagation_equality(self, kind, ttl, seed):
        overlay = make_world(seed)
        strategy = make_strategy(overlay, kind, seed)
        sources = sample_sources(overlay, np.random.default_rng(seed + 99))
        batch = propagate_many(overlay, sources, strategy, ttl=ttl)
        for i, src in enumerate(sources):
            scalar = propagate(overlay, src, strategy, ttl=ttl)
            assert batch.result(i) == scalar

    @pytest.mark.parametrize("ttl", [1, 2])
    def test_tiny_ttl_equality(self, ttl):
        overlay = make_world(3)
        strategy = blind_flooding_strategy(overlay)
        sources = sample_sources(overlay, np.random.default_rng(7))
        batch = propagate_many(overlay, sources, strategy, ttl=ttl)
        for i, src in enumerate(sources):
            assert batch.result(i) == propagate(overlay, src, strategy, ttl=ttl)

    @pytest.mark.parametrize("ttl", [3, None])
    def test_chunking_does_not_change_the_batch(self, ttl, monkeypatch):
        """Rows are solved independently: any block height, the same arrays."""
        overlay = make_world(6)
        strategy = blind_flooding_strategy(overlay)
        sources = sample_sources(overlay, np.random.default_rng(13), k=11)
        fields = ("dist", "parent", "hops", "messages", "traffic", "duplicates")

        def labels(batch):
            return {name: getattr(batch, name) for name in fields}

        def assert_equal(got, want):
            for name in fields:
                np.testing.assert_array_equal(got[name], want[name], err_msg=name)

        whole = labels(propagate_many(overlay, sources, strategy, ttl=ttl))
        assert whole["dist"].shape == (11, overlay.num_peers)
        for i, src in enumerate(sources):
            alone = labels(propagate_many(overlay, [src], strategy, ttl=ttl))
            assert_equal(
                {name: alone[name][0] for name in fields},
                {name: whole[name][i] for name in fields},
            )
        edges = compile_strategy(overlay, strategy).targets.size
        for rows in (1, len(sources)):
            monkeypatch.setattr(batch, "_BLOCK_BYTES", 8 * edges * rows)
            assert batch._block_rows(compile_strategy(overlay, strategy)) == rows
            assert_equal(labels(propagate_many(overlay, sources, strategy, ttl=ttl)), whole)

    def test_negative_ttl_raises_and_zero_reaches_the_source(self):
        overlay = make_world(8, peers=40)
        strategy = blind_flooding_strategy(overlay)
        src = overlay.peers()[0]
        with pytest.raises(ValueError, match="ttl"):
            propagate(overlay, src, strategy, ttl=-1)
        with pytest.raises(ValueError, match="ttl"):
            propagate_many(overlay, [src], strategy, ttl=-1)
        with pytest.raises(ValueError, match="ttl"):
            run_queries(overlay, strategy, [], ttl=-1)
        scalar = propagate(overlay, src, strategy, ttl=0)
        assert scalar.reached == {src} and scalar.messages == 0
        assert propagate_many(overlay, [src], strategy, ttl=0).result(0) == scalar

    def test_unbounded_batch_derives_hops_from_parents(self):
        overlay = make_world(9)
        strategy = blind_flooding_strategy(overlay)
        sources = sample_sources(overlay, np.random.default_rng(3))
        unbounded = propagate_many(overlay, sources, strategy, ttl=None)
        assert unbounded._hops is None
        # A TTL above the overlay's depth gates nothing: same labels, kernel hops.
        deep = propagate_many(overlay, sources, strategy, ttl=overlay.num_peers)
        np.testing.assert_array_equal(unbounded.parent, deep.parent)
        np.testing.assert_array_equal(unbounded.hops, deep.hops)

    def test_single_source_result_matches_scalar(self):
        overlay = make_world(5)
        strategy = blind_flooding_strategy(overlay)
        src = overlay.peers()[0]
        assert propagate_many(overlay, [src], strategy, ttl=7).result(0) == propagate(
            overlay, src, strategy, ttl=7
        )

    def test_unknown_source_raises(self):
        overlay = make_world(5)
        strategy = blind_flooding_strategy(overlay)
        with pytest.raises(KeyError):
            propagate_many(overlay, [10_000], strategy, ttl=None)

    def test_run_queries_matches_run_query(self):
        overlay = make_world(4)
        strategy = blind_flooding_strategy(overlay)
        peers = overlay.peers()
        queries = [
            (peers[0], (peers[3], peers[8])),
            (peers[1], (peers[1],)),          # holder == source: no response
            (peers[2], ()),                   # no holders at all
            (peers[5], tuple(peers[-4:])),
        ]
        stats = run_queries(overlay, strategy, queries, ttl=7)
        for (source, holders), got in zip(queries, stats):
            want = run_query(overlay, source, strategy, holders, ttl=7)
            assert got == want
            assert got.success == want.success


def assert_batch_equals_scalar(
    overlay, make_strategy, sources, ttl, holders=(), graph=None
):
    """Every field of ``result(i)`` and ``stats(i, holders)`` against the heap.

    The kernel runs on the overlay's array twin, the heap on *overlay*;
    *make_strategy* builds the strategy for either.
    """
    twin = array_twin(overlay)
    got = propagate_many(twin, sources, make_strategy(twin), ttl=ttl, graph=graph)
    for i, src in enumerate(sources):
        want = propagate(overlay, src, make_strategy(overlay), ttl=ttl)
        assert got.result(i) == want, (src, ttl)
        assert got.stats(i, holders) == query_stats(want, holders), (src, ttl)
    return got


def grid_edges(rows, cols, cost=1.0):
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                yield u, u + 1, cost
            if r + 1 < rows:
                yield u, u + cols, cost


class TestHandBuiltGraphs:
    """Shapes the generated worlds rarely draw, each against the scalar engine."""

    @pytest.mark.parametrize("ttl", [1, 3, None])
    def test_unit_cost_grid(self, make_overlay_from_weighted_edges, ttl):
        """Equal arrivals everywhere and several tight parents per peer."""
        overlay = make_overlay_from_weighted_edges(grid_edges(5, 5))
        sources = [0, 12, 24, 7]
        got = assert_batch_equals_scalar(
            overlay, blind_flooding_strategy, sources, ttl, holders=(6, 18, 24)
        )
        if ttl is None:
            # From the corner, peer 6 hears from 1 and from 5 at time 2.0.
            assert got.dist[0, 6] == 2.0 and got.parent[0, 6] == 1
            assert got.traffic[0] == float(got.messages[0])
            assert got.duplicates[0] == got.messages[0] - 24

    def test_tied_arrivals_settle_by_peer_id(self, make_overlay_from_weighted_edges):
        """300 peers hear at time 1.0 and the heap settles them by peer id;
        the kernel's labels and accounts equal the heap's."""
        hub = [(0, i, 1.0) for i in range(1, 301)]
        leaves = [(i, 300 + i, 0.1 * i + 0.01) for i in range(1, 301)]
        overlay = make_overlay_from_weighted_edges(hub + leaves)
        assert_batch_equals_scalar(overlay, blind_flooding_strategy, [0, 1], None)

    #: Peer -> forwarding targets, in the strategy's own (unsorted) order.
    #: From 0, peer 1's row lacks the edge back to its parent, 3 hears from
    #: 1 and 2 at once, 5 forwards to nobody and nobody forwards to 6.
    ROWS = {0: [2, 1], 1: [3, 4], 2: [3, 0, 5], 3: [4, 1], 4: [3], 5: [], 6: [0]}
    EDGES = [
        (0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0), (3, 4, 2.0),
        (1, 4, 3.0), (4, 5, 1.0), (2, 5, 4.0), (0, 6, 5.0),
    ]

    @pytest.mark.parametrize("ttl", [1, 2, 3, None])
    def test_directed_graph_with_missing_back_edges(
        self, make_overlay_from_weighted_edges, ttl
    ):
        overlay = make_overlay_from_weighted_edges(self.EDGES)
        rows = self.ROWS
        graph = graph_by_rows(overlay, rows)
        assert 0 in np.diff(graph.reverse[0])  # peer 6: no in-edge

        def strategy(peer, came_from):
            return rows[peer]

        got = assert_batch_equals_scalar(
            overlay, lambda _overlay: strategy, overlay.peers(), ttl,
            holders=(3, 5, 6), graph=graph,
        )
        if ttl is None:
            assert got.parent[0].tolist() == [-1, 0, 0, 1, 1, 2, -1]
            assert got.hops[0, 6] == -1 and np.isinf(got.dist[0, 6])
            assert got.search_scope(0) == 6 and got.search_scope(6) == 7
            # 0 sends 2, 1 sends 2, 2 sends 2 (not back to 0), 3 sends 1, 4 sends 1.
            assert (got.messages[0], got.duplicates[0]) == (8, 3)

    @pytest.mark.parametrize("ttl", [2, None])
    def test_split_overlay(self, make_overlay_from_weighted_edges, ttl):
        """Two components: the far one keeps ``-1`` labels, scope < n."""
        far = [(u + 9, v + 9, 2.0) for u, v, _ in grid_edges(2, 3)]
        overlay = make_overlay_from_weighted_edges([*grid_edges(3, 3), *far])
        got = assert_batch_equals_scalar(
            overlay, blind_flooding_strategy, [4, 10], ttl, holders=(0, 8, 14)
        )
        assert not np.isfinite(got.dist[0, 9:]).any()
        assert (got.parent[0, 9:] == -1).all() and (got.hops[0, 9:] == -1).all()
        assert got.search_scope(0) <= 9 and got.search_scope(1) <= 6
        queries = [(4, (0, 8, 14)), (10, (0, 8, 14))]
        twin = array_twin(overlay)
        assert run_queries(twin, blind_flooding_strategy(twin), queries, ttl=ttl) == [
            got.stats(0, (0, 8, 14)),
            got.stats(1, (0, 8, 14)),
        ]

    @pytest.mark.parametrize("links", [[(0, 1)], []])
    def test_isolated_source_sends_nothing(self, line_physical, overlay_class, links):
        overlay = overlay_class(line_physical, {0: 0, 1: 1, 2: 4})
        for u, v in links:
            overlay.connect(u, v)
        got = assert_batch_equals_scalar(
            overlay, blind_flooding_strategy, [2, 0], None, holders=(1,)
        )
        assert (got.messages[0], got.traffic[0], got.duplicates[0]) == (0, 0.0, 0)
        assert got.search_scope(0) == 1

    def test_empty_and_single_batches(self, small_overlay):
        small_overlay.warm_edge_costs()
        twin = array_twin(small_overlay)
        strategy = blind_flooding_strategy(twin)
        n = small_overlay.num_peers
        empty = propagate_many(twin, [], strategy, ttl=4)
        assert len(empty) == 0
        assert empty.dist.shape == empty.parent.shape == empty.hops.shape == (0, n)
        assert empty.messages.shape == empty.traffic.shape == (0,)
        assert run_queries(twin, strategy, [], ttl=4) == []
        one = assert_batch_equals_scalar(
            small_overlay, blind_flooding_strategy, small_overlay.peers()[3:4], 4
        )
        assert one.dist.shape == (1, n)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    peers=st.integers(6, 40),
    kind=st.sampled_from(["flooding", "ace"]),
    ttl=st.one_of(st.none(), st.integers(1, 8)),
    steps=st.integers(0, 2),
)
def test_random_worlds_equal_scalar(seed, peers, kind, ttl, steps):
    """Random small-world worlds: every field of every query, both strategies."""
    overlay = make_world(seed, peers)
    strategy = make_strategy(overlay, kind, seed)
    for _ in range(steps if kind == "ace" else 0):
        strategy.compiled_spec[1].step()
        overlay.warm_edge_costs()
    rng = np.random.default_rng(seed + 1)
    sources = sample_sources(overlay, rng, k=5)
    holders = tuple(sample_sources(overlay, rng, k=3))
    assert_batch_equals_scalar(overlay, lambda _overlay: strategy, sources, ttl, holders)
    stats = run_queries(overlay, strategy, [(s, holders) for s in sources], ttl=ttl)
    batch_stats = propagate_many(overlay, sources, strategy, ttl=ttl)
    assert stats == [batch_stats.stats(i, holders) for i in range(len(sources))]


class TestCacheInvalidation:
    def test_flooding_graph_memoized_per_epoch(self):
        overlay = make_world(6)
        strategy = blind_flooding_strategy(overlay)
        g1 = compile_strategy(overlay, strategy)
        g2 = compile_strategy(overlay, strategy)
        assert g1 is g2

    def test_churn_bumps_epoch_and_recompiles(self):
        overlay = make_world(6)
        strategy = blind_flooding_strategy(overlay)
        before = compile_strategy(overlay, strategy)
        a, b = next(iter(overlay.edges()))
        epoch = overlay.epoch
        assert overlay.disconnect(a, b)
        assert overlay.epoch > epoch
        after = compile_strategy(overlay, strategy)
        assert after is not before
        # Post-churn batched results must match the scalar engine on the
        # mutated topology, not the stale compiled graph.
        src = overlay.peers()[0]
        assert propagate_many(overlay, [src], strategy, ttl=None).result(0) == propagate(
            overlay, src, strategy, ttl=None
        )

    def test_remove_peer_bumps_epoch(self):
        overlay = make_world(6)
        epoch = overlay.epoch
        overlay.remove_peer(overlay.peers()[-1])
        assert overlay.epoch > epoch

    def test_ace_step_bumps_state_version_and_recompiles(self):
        overlay = make_world(8)
        protocol = AceProtocol(
            overlay, AceConfig(depth=2), rng=np.random.default_rng(0)
        )
        protocol.rebuild_all_trees()
        strategy = ace_strategy(protocol)
        before = compile_strategy(overlay, strategy)
        version = protocol.state_version
        protocol.step()
        assert protocol.state_version > version
        after = compile_strategy(overlay, strategy)
        assert after is not before
        src = overlay.peers()[0]
        assert propagate_many(overlay, [src], strategy, ttl=None).result(0) == propagate(
            overlay, src, strategy, ttl=None
        )


class TestScalarFallback:
    """There is none: what the kernel cannot answer exactly raises, and only
    an explicit call to the heap ``propagate`` answers it."""

    def test_custom_strategy_raises(self):
        overlay = make_world(9)

        def custom(peer, came_from):
            # No compiled_spec: the compiler must decline, not guess.
            return overlay.neighbors(peer)

        src = overlay.peers()[0]
        with pytest.raises(ValueError, match="does not compile"):
            compile_strategy(overlay, custom)
        with pytest.raises(ValueError, match="does not compile"):
            run_queries(overlay, custom, [(src, ())], ttl=7)

    def test_propagate_many_rejects_uncompilable(self):
        overlay = make_world(9)
        with pytest.raises(ValueError):
            propagate_many(overlay, [overlay.peers()[0]], lambda p, c: (), ttl=7)

    def test_object_overlay_does_not_compile(self):
        twin = object_twin(make_world(9))
        with pytest.raises(TypeError, match="ArrayOverlay"):
            compile_strategy(twin, blind_flooding_strategy(twin))

    def test_zero_cost_edge_stays_scalar(self, line_physical):
        """Two peers on one host: the kernel and its drivers refuse the graph,
        and only the heap engine answers it."""
        overlay = ArrayOverlay(line_physical, {0: 0, 1: 0, 2: 3})
        overlay.connect(0, 1)
        overlay.connect(1, 2)
        strategy = blind_flooding_strategy(overlay)
        assert compile_strategy(overlay, strategy).has_zero_cost
        with pytest.raises(ValueError, match="zero-cost"):
            propagate_many(overlay, [0], strategy, ttl=None)
        with pytest.raises(ValueError, match="zero-cost"):
            run_queries(overlay, strategy, [(0, (2,))], ttl=None)
        assert propagate(overlay, 0, strategy, ttl=None).reached == {0, 1, 2}

    @pytest.mark.parametrize("total", ["off_grid", "at_bound"])
    def test_costs_whose_sums_can_round_raise(self, total):
        """A hand-built graph with a cost off the 2^-11 grid, or costs that
        total 2^42, is refused: the kernel's sums would not be exact."""
        overlay = make_world(9)
        strategy = blind_flooding_strategy(overlay)
        graph = compile_strategy(overlay, strategy)
        assert not graph.off_grid
        costs = graph.costs.copy()
        if total == "off_grid":
            costs[0] = 0.1
        else:
            costs[0] += 2.0**42 - costs.sum()
            assert costs.sum() == 2.0**42
        bad = dataclasses.replace(graph, costs=costs)
        assert bad.off_grid and not bad.has_zero_cost
        with pytest.raises(ValueError, match="2\\^-11 grid"):
            propagate_many(overlay, overlay.peers()[:2], strategy, ttl=None, graph=bad)

    def test_stopped_graph_matches_stop_wrapper(self):
        """``CompiledGraph.stopped_at`` is the heap's forward-to-nobody wrapper."""
        for kind in ("flooding", "ace"):
            overlay = make_world(9)
            strategy = make_strategy(overlay, kind, 9)
            graph = compile_strategy(overlay, strategy)
            src = overlay.peers()[0]
            assert graph.stopped_at([]) is graph
            full = propagate(overlay, src, strategy, ttl=None)
            blockers = {p for p in full.reached if p != src and full.hops[p] <= 2}
            stopped = graph.stopped_at(sorted(blockers))
            assert stopped.directed and stopped.num_peers == graph.num_peers
            for peer in blockers:
                row = stopped.index[peer]
                assert stopped.indptr[row] == stopped.indptr[row + 1]
            for ttl in (2, None):
                got = propagate_many(overlay, [src], strategy, ttl=ttl, graph=stopped)
                want = propagate(
                    overlay, src, stopping_at(strategy, blockers.__contains__), ttl=ttl
                )
                assert got.result(0) == want, (kind, ttl)
            assert want.traffic_cost < full.traffic_cost


def uncompiled(strategy):
    """The same forwarding rule without a ``compiled_spec``.

    The compiler declines a plain closure; only the heap engine answers it.
    """
    return lambda peer, came_from: strategy(peer, came_from)


class TestBatchingToggle:
    def test_scalar_mode_skips_kernel(self):
        overlay = make_world(10)
        strategy = blind_flooding_strategy(overlay)
        src = overlay.peers()[0]
        with pytest.raises(ValueError):
            propagate_many(overlay, [src], uncompiled(strategy), ttl=7)
        before = counters.batched_queries
        prop = propagate(overlay, src, uncompiled(strategy), ttl=7)
        assert counters.batched_queries == before
        assert prop == propagate_many(overlay, [src], strategy, ttl=7).result(0)


def heap_rings(overlay, sources, strategy, ttl):
    """``propagate_many``'s one-source surface, answered by the heap engine."""
    (source,) = sources
    prop = propagate(overlay, source, strategy, ttl=ttl)
    return SimpleNamespace(result=lambda i: prop)


class TestExpandingRing:
    """Every ring on the kernel vs every ring on the heap engine."""

    def test_batched_matches_scalar_mode(self, monkeypatch):
        overlay = make_world(12)
        strategy = blind_flooding_strategy(overlay)
        peers = overlay.peers()
        holders = peers[-3:]
        before = counters.batched_queries
        batched = expanding_ring_query(overlay, peers[0], strategy, holders)
        rings = counters.batched_queries - before
        assert rings > 0
        monkeypatch.setattr(expanding_ring, "propagate_many", heap_rings)
        scalar = expanding_ring_query(overlay, peers[0], strategy, holders)
        assert counters.batched_queries - before == rings
        assert batched == scalar

    def test_failed_search_matches_scalar_mode(self, monkeypatch):
        overlay = make_world(12)
        strategy = blind_flooding_strategy(overlay)
        src = overlay.peers()[0]
        batched = expanding_ring_query(overlay, src, strategy, holders=())
        monkeypatch.setattr(expanding_ring, "propagate_many", heap_rings)
        scalar = expanding_ring_query(overlay, src, strategy, holders=())
        assert batched == scalar
        assert not batched.success


class TestCounters:
    def test_batched_queries_counted(self):
        overlay = make_world(14)
        strategy = blind_flooding_strategy(overlay)
        sources = overlay.peers()[:6]
        before_batched = counters.batched_queries
        before_queries = counters.queries
        propagate_many(overlay, sources, strategy, ttl=None)
        assert counters.batched_queries - before_batched == len(sources)
        assert counters.queries - before_queries == len(sources)

    def test_compiled_strategies_counts_cache_misses(self):
        overlay = make_world(15)
        strategy = blind_flooding_strategy(overlay)
        before = counters.compiled_strategies
        compile_strategy(overlay, strategy)
        compile_strategy(overlay, strategy)  # cache hit: no recompile
        assert counters.compiled_strategies - before == 1


@pytest.mark.parametrize("ttl", [3, None])
@pytest.mark.parametrize("kind", ["flooding", "ace"])
@pytest.mark.parametrize("oracle", ["exact", "landmark:8"])
def test_row_order_changes_no_bit(oracle, kind, ttl):
    """Each row's targets and costs shuffled together, and a heap strategy
    iterating the shuffled rows: on the 2^-11 grid every sum is exact, so
    the kernel's and the heap's fields all equal the unshuffled graph's."""
    scenario = build_scenario(
        ScenarioConfig(physical_nodes=300, peers=60, seed=5, oracle=oracle)
    )
    overlay = scenario.overlay
    strategy = make_strategy(overlay, kind, 5)
    graph = compile_strategy(overlay, strategy)
    rng = np.random.default_rng(5)
    spans = list(zip(graph.indptr, graph.indptr[1:]))
    perm = np.concatenate(
        [start + rng.permutation(stop - start) for start, stop in spans]
    ).astype(np.int64)
    shuffled = dataclasses.replace(
        graph, targets=graph.targets[perm], costs=graph.costs[perm], directed=True
    )
    ids = graph.peer_ids.tolist()
    rows = {
        ids[i]: [ids[t] for t in shuffled.targets[start:stop]]
        for i, (start, stop) in enumerate(spans)
    }
    assert any(rows[p] != sorted(rows[p]) for p in ids)

    def shuffled_strategy(peer, came_from):
        return rows[peer]

    sources = sample_sources(overlay, rng, k=12)
    want = propagate_many(overlay, sources, strategy, ttl=ttl)
    got = propagate_many(overlay, sources, strategy, ttl=ttl, graph=shuffled)
    for name in ("dist", "parent", "hops", "messages", "traffic", "duplicates"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    for i, src in enumerate(sources):
        heap = propagate(overlay, src, shuffled_strategy, ttl=ttl)
        assert heap == propagate(overlay, src, strategy, ttl=ttl)
        assert got.result(i) == heap


@pytest.mark.parametrize("oracle", ["exact", "landmark:8"])
def test_undirected_graph_is_its_own_reverse(oracle):
    """The flooding graph's in-edge CSR, built by the directed argsort,
    equals its forward CSR bit for bit — after ACE steps and churn, under
    either oracle — which is what lets ``reverse`` return the forward
    arrays of an undirected graph."""
    scenario = build_scenario(
        ScenarioConfig(physical_nodes=500, peers=120, seed=4, oracle=oracle)
    )
    overlay = scenario.overlay
    protocol = AceProtocol(overlay, rng=np.random.default_rng(4))
    joiner = overlay.peers()[-1] + 1
    for round_ in range(3):
        protocol.step()
        departing = overlay.peers()[7 * round_]
        affected = set(overlay.neighbors(departing))
        overlay.remove_peer(departing)
        overlay.add_peer(joiner, 11 * round_)
        for target in overlay.peers()[:3]:
            overlay.connect(joiner, target)
        churn_refresh(protocol, joiner, affected | set(overlay.neighbors(joiner)))
        joiner += 1
        graph = compile_strategy(overlay, blind_flooding_strategy(overlay))
        assert not graph.directed
        order = np.argsort(graph.targets, kind="stable")
        indptr = np.zeros(graph.num_peers + 1, dtype=np.int64)
        np.cumsum(np.bincount(graph.targets, minlength=graph.num_peers), out=indptr[1:])
        assert indptr.tobytes() == graph.indptr.tobytes()
        assert graph.edge_src[order].tobytes() == graph.targets.tobytes()
        assert graph.costs[order].tobytes() == graph.costs.tobytes()
        assert graph.reverse[1] is graph.targets
        assert graph.receivers is graph.edge_src
