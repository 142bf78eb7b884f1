"""Batched propagation engine vs. the scalar reference engine.

The contract of :mod:`repro.search.batch` is *bit-identical* results: the
compiled-graph kernels must reproduce the scalar engine's arrival times,
parents, hop counts, traffic cost (same float, same addition order),
message and duplicate counts — across strategies, TTLs, and seeds.  These
tests compare full :class:`~repro.search.flooding.QueryPropagation`
records with dataclass equality, which is exact float equality.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ace import AceConfig, AceProtocol
from repro.perf import counters
from repro.search import batch
from repro.search.batch import (
    CompiledGraph,
    RingPropagator,
    compile_strategy,
    propagate_many,
    propagate_single,
    run_queries,
)
from repro.search.expanding_ring import expanding_ring_query
from repro.search.flooding import blind_flooding_strategy, propagate, run_query
from repro.search.tree_routing import ace_strategy
from repro.topology.generators import barabasi_albert
from repro.topology.overlay import Overlay, small_world_overlay
from repro.topology.physical import PhysicalTopology


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

        def assert_equal(got, want):
            for name in fields:
                np.testing.assert_array_equal(got[name], want[name], err_msg=name)

        whole = vars(propagate_many(overlay, sources, strategy, ttl=ttl))
        assert whole["dist"].shape == (11, overlay.num_peers)
        for i, src in enumerate(sources):
            alone = vars(propagate_many(overlay, [src], strategy, ttl=ttl))
            assert_equal(
                {name: alone[name][0] for name in fields},
                {name: whole[name][i] for name in fields},
            )
        edges = compile_strategy(overlay, strategy).targets.size
        for rows in (1, len(sources)):
            monkeypatch.setattr(batch, "_BLOCK_BYTES", 8 * edges * rows)
            assert batch._block_rows(compile_strategy(overlay, strategy)) == rows
            assert_equal(vars(propagate_many(overlay, sources, strategy, ttl=ttl)), whole)

    def test_propagate_single_matches_scalar(self):
        overlay = make_world(5)
        strategy = blind_flooding_strategy(overlay)
        src = overlay.peers()[0]
        assert propagate_single(overlay, src, strategy, ttl=7) == propagate(
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
            assert got.source == source
            assert got.traffic_cost == want.traffic_cost
            assert got.search_scope == want.search_scope
            assert got.holders_reached == want.holders_reached
            assert got.first_response_time == want.first_response_time
            assert got.success == want.success


def assert_batch_equals_scalar(overlay, strategy, sources, ttl, holders=(), graph=None):
    """Every field of ``result(i)`` and ``stats(i, holders)`` against scalar."""
    got = propagate_many(overlay, sources, strategy, ttl=ttl, graph=graph)
    for i, src in enumerate(sources):
        want = run_query(overlay, src, strategy, holders, ttl=ttl)
        assert got.result(i) == want.propagation, (src, ttl)
        assert dataclasses.astuple(got.stats(i, holders)) == (
            src,
            want.traffic_cost,
            want.search_scope,
            want.holders_reached,
            want.first_response_time,
        ), (src, ttl)
    return got


def grid_edges(rows, cols, cost=1.0):
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                yield u, u + 1, cost
            if r + 1 < rows:
                yield u, u + cols, cost


def graph_of_rows(overlay, rows):
    """The ``CompiledGraph`` of a forwarding table, rows in table order."""
    peers = overlay.peers()
    index = {p: i for i, p in enumerate(peers)}
    lengths = [len(rows[p]) for p in peers]
    return CompiledGraph(
        kind="ace",
        peer_ids=np.array(peers, dtype=np.int64),
        indptr=np.concatenate(([0], np.cumsum(lengths))).astype(np.int64),
        targets=np.array([index[t] for p in peers for t in rows[p]], dtype=np.int64),
        costs=np.array([overlay.cost(p, t) for p in peers for t in rows[p]]),
        index=index,
        directed=True,
    )


class TestHandBuiltGraphs:
    """Shapes the generated worlds rarely draw, each against the scalar engine."""

    @pytest.mark.parametrize("ttl", [1, 3, None])
    def test_unit_cost_grid(self, make_overlay_from_weighted_edges, ttl):
        """Equal arrivals everywhere and several tight parents per peer."""
        overlay = make_overlay_from_weighted_edges(grid_edges(5, 5))
        strategy = blind_flooding_strategy(overlay)
        sources = [0, 12, 24, 7]
        got = assert_batch_equals_scalar(
            overlay, strategy, sources, ttl, holders=(6, 18, 24)
        )
        if ttl is None:
            # From the corner, peer 6 hears from 1 and from 5 at time 2.0.
            assert got.dist[0, 6] == 2.0 and got.parent[0, 6] == 1
            assert got.traffic[0] == float(got.messages[0])
            assert got.duplicates[0] == got.messages[0] - 24

    def test_tied_arrivals_settle_by_peer_id(self, make_overlay_from_weighted_edges):
        """300 peers hear at time 1.0; their inexact leaf costs add in id order."""
        hub = [(0, i, 1.0) for i in range(1, 301)]
        leaves = [(i, 300 + i, 0.1 * i + 0.01) for i in range(1, 301)]
        overlay = make_overlay_from_weighted_edges(hub + leaves)
        strategy = blind_flooding_strategy(overlay)
        got = assert_batch_equals_scalar(overlay, strategy, [0, 1], None)
        order = batch._settle_order(got.dist)
        for row, dist_row in zip(order, got.dist):
            want = np.lexsort((np.arange(dist_row.size), dist_row))
            np.testing.assert_array_equal(row, want)

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
        graph = graph_of_rows(overlay, rows)
        assert 0 in np.diff(graph.reverse[0])  # peer 6: no in-edge

        def strategy(peer, came_from):
            return rows[peer]

        got = assert_batch_equals_scalar(
            overlay, strategy, overlay.peers(), ttl, holders=(3, 5, 6), graph=graph
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
        strategy = blind_flooding_strategy(overlay)
        got = assert_batch_equals_scalar(
            overlay, strategy, [4, 10], ttl, holders=(0, 8, 14)
        )
        assert not np.isfinite(got.dist[0, 9:]).any()
        assert (got.parent[0, 9:] == -1).all() and (got.hops[0, 9:] == -1).all()
        assert got.search_scope(0) <= 9 and got.search_scope(1) <= 6
        queries = [(4, (0, 8, 14)), (10, (0, 8, 14))]
        assert run_queries(overlay, strategy, queries, ttl=ttl) == [
            got.stats(0, (0, 8, 14)),
            got.stats(1, (0, 8, 14)),
        ]

    @pytest.mark.parametrize("links", [[(0, 1)], []])
    def test_isolated_source_sends_nothing(self, line_physical, overlay_class, links):
        overlay = overlay_class(line_physical, {0: 0, 1: 1, 2: 4})
        for u, v in links:
            overlay.connect(u, v)
        strategy = blind_flooding_strategy(overlay)
        got = assert_batch_equals_scalar(overlay, strategy, [2, 0], None, holders=(1,))
        assert (got.messages[0], got.traffic[0], got.duplicates[0]) == (0, 0.0, 0)
        assert got.search_scope(0) == 1

    def test_empty_and_single_batches(self, small_overlay):
        small_overlay.warm_edge_costs()
        strategy = blind_flooding_strategy(small_overlay)
        n = small_overlay.num_peers
        empty = propagate_many(small_overlay, [], strategy, ttl=4)
        assert len(empty) == 0
        assert empty.dist.shape == empty.parent.shape == empty.hops.shape == (0, n)
        assert empty.messages.shape == empty.traffic.shape == (0,)
        assert run_queries(small_overlay, strategy, [], ttl=4) == []
        one = assert_batch_equals_scalar(
            small_overlay, strategy, small_overlay.peers()[3:4], 4
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
    assert_batch_equals_scalar(overlay, strategy, sources, ttl, holders)
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
        assert propagate_single(overlay, src, strategy, ttl=None) == propagate(
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
        assert propagate_single(overlay, src, strategy, ttl=None) == propagate(
            overlay, src, strategy, ttl=None
        )


class TestScalarFallback:
    def test_custom_strategy_falls_back(self):
        overlay = make_world(9)

        def custom(peer, came_from):
            # No compiled_spec: the compiler must decline, not guess.
            return overlay.neighbors(peer)

        assert compile_strategy(overlay, custom) is None
        src = overlay.peers()[0]
        before = counters.batched_queries
        prop = propagate_single(overlay, src, custom, ttl=7)
        assert counters.batched_queries == before
        assert prop == propagate(overlay, src, custom, ttl=7)

    def test_propagate_many_rejects_uncompilable(self):
        overlay = make_world(9)
        with pytest.raises(ValueError):
            propagate_many(overlay, [overlay.peers()[0]], lambda p, c: (), ttl=7)

    def test_zero_cost_edge_stays_scalar(self, line_physical):
        """Two peers on one host: the kernel declines, the helpers fall back."""
        overlay = Overlay(line_physical, {0: 0, 1: 0, 2: 3})
        overlay.connect(0, 1)
        overlay.connect(1, 2)
        strategy = blind_flooding_strategy(overlay)
        assert compile_strategy(overlay, strategy).has_zero_cost
        with pytest.raises(ValueError, match="zero-cost"):
            propagate_many(overlay, [0], strategy, ttl=None)
        before = counters.batched_queries
        assert propagate_single(overlay, 0, strategy, ttl=None) == propagate(
            overlay, 0, strategy, ttl=None
        )
        (stats,) = run_queries(overlay, strategy, [(0, (2,))], ttl=None)
        assert stats.traffic_cost == run_query(overlay, 0, strategy, (2,), ttl=None).traffic_cost
        assert counters.batched_queries == before

    def test_stop_at_stays_scalar(self):
        # The cached-query flow passes stop_at to the scalar propagate();
        # batch has no stop_at parameter by design — this pins that the
        # scalar path still honors it.
        overlay = make_world(9)
        strategy = blind_flooding_strategy(overlay)
        src = overlay.peers()[0]
        full = propagate(overlay, src, strategy, ttl=None)
        others = [p for p in full.reached if p != src]
        blocker = max(others, key=lambda p: full.hops[p])
        stopped = propagate(
            overlay, src, strategy, ttl=None, stop_at=lambda p: p == blocker
        )
        assert blocker in stopped.reached
        assert stopped.traffic_cost <= full.traffic_cost


def uncompiled(strategy):
    """The same forwarding rule without a ``compiled_spec``.

    The compiler declines a plain closure, so every high-level helper
    answers it on the scalar engine — the only way left to get there.
    """
    return lambda peer, came_from: strategy(peer, came_from)


class TestBatchingToggle:
    def test_scalar_mode_skips_kernel(self):
        overlay = make_world(10)
        strategy = blind_flooding_strategy(overlay)
        src = overlay.peers()[0]
        before = counters.batched_queries
        prop = propagate_single(overlay, src, uncompiled(strategy), ttl=7)
        assert counters.batched_queries == before
        assert prop == propagate(overlay, src, strategy, ttl=7)


class TestExpandingRing:
    def test_batched_matches_scalar_mode(self):
        overlay = make_world(12)
        strategy = blind_flooding_strategy(overlay)
        peers = overlay.peers()
        holders = peers[-3:]
        before = counters.batched_queries
        batched = expanding_ring_query(overlay, peers[0], strategy, holders)
        rings = counters.batched_queries - before
        assert rings > 0
        scalar = expanding_ring_query(
            overlay, peers[0], uncompiled(strategy), holders
        )
        assert counters.batched_queries - before == rings
        assert batched == scalar

    def test_failed_search_matches_scalar_mode(self):
        overlay = make_world(12)
        strategy = blind_flooding_strategy(overlay)
        src = overlay.peers()[0]
        batched = expanding_ring_query(overlay, src, strategy, holders=())
        scalar = expanding_ring_query(
            overlay, src, uncompiled(strategy), holders=()
        )
        assert batched == scalar
        assert not batched.success

    def test_ring_propagator_matches_per_ring_scalar(self):
        overlay = make_world(13)
        strategy = blind_flooding_strategy(overlay)
        src = overlay.peers()[0]
        propagator = RingPropagator(overlay, src, strategy)
        for ttl in (1, 2, 4, 7, None):
            assert propagator.propagate(ttl) == propagate(
                overlay, src, strategy, ttl=ttl
            )


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
