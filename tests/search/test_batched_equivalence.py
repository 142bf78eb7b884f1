"""Batched propagation engine vs. the scalar reference engine.

The contract of :mod:`repro.search.batch` is *bit-identical* results: the
compiled-graph kernels must reproduce the scalar engine's arrival times,
parents, hop counts, traffic cost (same float, same addition order),
message and duplicate counts — across strategies, TTLs, and seeds.  These
tests compare full :class:`~repro.search.flooding.QueryPropagation`
records with dataclass equality, which is exact float equality.
"""

import numpy as np
import pytest

from repro.core.ace import AceConfig, AceProtocol
from repro.perf import counters
from repro.search.batch import (
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
from repro.topology.overlay import small_world_overlay


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
    def test_chunking_does_not_change_the_batch(self, ttl):
        """Rows are solved independently: any chunk size, the same arrays."""
        overlay = make_world(6)
        strategy = blind_flooding_strategy(overlay)
        sources = sample_sources(overlay, np.random.default_rng(13), k=11)
        whole = propagate_many(overlay, sources, strategy, ttl=ttl)
        for chunk_size in (1, 4, len(sources)):
            chunked = propagate_many(
                overlay, sources, strategy, ttl=ttl, chunk_size=chunk_size
            )
            for name in ("dist", "parent", "hops", "messages", "traffic", "duplicates"):
                np.testing.assert_array_equal(
                    getattr(chunked, name), getattr(whole, name), err_msg=name
                )

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
