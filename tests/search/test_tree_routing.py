"""Unit tests for ACE multicast-tree query routing."""

import numpy as np
import pytest

from repro.core.ace import AceConfig, AceProtocol
from repro.search.batch import propagate_many, run_queries
from repro.search.flooding import blind_flooding_strategy, propagate
from repro.search.tree_routing import ace_strategy
from repro.topology.overlay import small_world_overlay


def tree_propagate(protocol, source, ttl=None):
    """A query routed on *protocol*'s trees: the kernel under the production
    protocol, the heap engine under the per-peer reference loop."""
    strategy = ace_strategy(protocol)
    if isinstance(protocol, AceProtocol):
        return propagate_many(protocol.overlay, [source], strategy, ttl=ttl).result(0)
    return propagate(protocol.overlay, source, strategy, ttl=ttl)


@pytest.fixture
def optimized(ba_physical):
    ov = small_world_overlay(
        ba_physical, 30, avg_degree=6, rng=np.random.default_rng(8)
    )
    protocol = AceProtocol(ov, rng=np.random.default_rng(8))
    protocol.run(3)
    return protocol


class TestStrategy:
    def test_uses_flooding_sets(self, optimized):
        strategy = ace_strategy(optimized)
        peer = optimized.overlay.peers()[0]
        assert set(strategy(peer, None)) == optimized.flooding_neighbors(peer)

    def test_fresh_peer_floods_all(self, ace_class, make_overlay_from_weighted_edges):
        ov = make_overlay_from_weighted_edges(
            [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 3.0)]
        )
        protocol = ace_class(ov, rng=np.random.default_rng(0))
        strategy = ace_strategy(protocol)
        assert set(strategy(0, None)) == {1, 2}


class TestPropagation:
    def test_full_scope(self, optimized):
        for source in optimized.overlay.peers()[:5]:
            prop = tree_propagate(optimized, source)
            assert prop.reached == set(optimized.overlay.peers())

    def test_traffic_not_above_blind(self, optimized):
        ov = optimized.overlay
        for source in ov.peers()[:5]:
            blind = propagate(ov, source, blind_flooding_strategy(ov), ttl=None)
            tree = tree_propagate(optimized, source)
            assert tree.traffic_cost <= blind.traffic_cost

    def test_ttl_respected(self, optimized):
        source = optimized.overlay.peers()[0]
        limited = tree_propagate(optimized, source, ttl=1)
        assert limited.reached <= set(optimized.overlay.peers())
        assert max(limited.hops.values()) <= 1

    def test_triangle_pruned(self, ace_class, make_overlay_from_weighted_edges):
        """On a single mismatched triangle the long edge carries no query."""
        ov = make_overlay_from_weighted_edges(
            [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)]
        )
        protocol = ace_class(
            ov, AceConfig(shed_redundant=False), rng=np.random.default_rng(0)
        )
        protocol.rebuild_all_trees()
        prop = tree_propagate(protocol, 0)
        assert prop.reached == {0, 1, 2}
        # Blind flooding costs 1+5+1+1 = 8; the tree costs 2 with no dups.
        assert prop.traffic_cost == pytest.approx(2.0)
        assert prop.duplicate_messages == 0


class TestAceQuery:
    def test_query_finds_holders(self, optimized):
        peers = optimized.overlay.peers()
        (result,) = run_queries(
            optimized.overlay, ace_strategy(optimized), [(peers[0], [peers[-1]])], ttl=None
        )
        assert result.success
        assert result.first_response_time > 0

    def test_response_not_slower_than_twice_arrival(self, optimized):
        peers = optimized.overlay.peers()
        (result,) = run_queries(
            optimized.overlay, ace_strategy(optimized), [(peers[0], peers[1:4])], ttl=None
        )
        arrivals = tree_propagate(optimized, peers[0]).arrival_time
        best = min(arrivals[h] for h in result.holders_reached)
        assert result.first_response_time == pytest.approx(2 * best)
