"""Message-level simulation vs. the analytic query engine.

The experiment drivers use the fast analytic propagation; these tests prove
it agrees *exactly* with a full descriptor-by-descriptor simulation on the
event kernel — scope, per-peer arrival times, query traffic, duplicate
counts and first-response times.
"""

import numpy as np
import pytest

from repro.core.ace import AceProtocol
from repro.search.batch import propagate_many
from repro.search.flooding import blind_flooding_strategy
from repro.search.tree_routing import ace_strategy
from repro.sim.node import run_message_level_query
from repro.topology.overlay import small_world_overlay


@pytest.fixture(scope="module")
def world():
    rng = np.random.default_rng(55)
    from repro.topology.generators import barabasi_albert

    physical = barabasi_albert(250, m=2, rng=rng)
    overlay = small_world_overlay(physical, 40, avg_degree=6, rng=rng)
    return overlay


def run_analytic(overlay, source, strategy, holders, ttl):
    """One query on the compiled kernel: its propagation and its stats."""
    batch = propagate_many(overlay, [source], strategy, ttl=ttl)
    return batch.result(0), batch.stats(0, holders)


class TestEquivalenceBlindFlooding:
    @pytest.mark.parametrize("src_idx", [0, 7, 20])
    def test_matches_analytic_engine(self, world, src_idx):
        overlay = world
        source = overlay.peers()[src_idx]
        holders = overlay.peers()[-4:]
        strategy = blind_flooding_strategy(overlay)

        prop, stats = run_analytic(overlay, source, strategy, holders, ttl=None)
        message = run_message_level_query(
            overlay, source, strategy, holders, ttl=None
        )

        assert message.reached == prop.reached
        assert message.query_traffic == pytest.approx(prop.traffic_cost)
        assert message.query_messages == prop.messages
        assert message.duplicates == prop.duplicate_messages
        for peer, t in prop.arrival_time.items():
            assert message.arrival_time[peer] == pytest.approx(t)
        assert message.first_response_time == pytest.approx(
            stats.first_response_time
        )

    def test_ttl_equivalence(self, world):
        overlay = world
        source = overlay.peers()[3]
        strategy = blind_flooding_strategy(overlay)
        for ttl in (1, 2, 3):
            prop, _stats = run_analytic(overlay, source, strategy, [], ttl=ttl)
            message = run_message_level_query(
                overlay, source, strategy, ttl=ttl
            )
            assert message.reached == prop.reached


class TestEquivalenceAceRouting:
    def test_matches_analytic_engine(self, world):
        overlay = world.copy()
        protocol = AceProtocol(overlay, rng=np.random.default_rng(5))
        protocol.run(3)
        strategy = ace_strategy(protocol)
        source = overlay.peers()[0]
        holders = overlay.peers()[10:13]

        prop, stats = run_analytic(overlay, source, strategy, holders, ttl=None)
        message = run_message_level_query(
            overlay, source, strategy, holders, ttl=None
        )

        assert message.reached == prop.reached
        assert message.query_traffic == pytest.approx(prop.traffic_cost)
        assert message.first_response_time == pytest.approx(
            stats.first_response_time
        )


class TestHitRouting:
    def test_hit_travels_reverse_path(self, make_overlay_from_weighted_edges):
        # Chain 0-1-2: hit from 2 must pass 1 and reach 0 at 2x arrival.
        overlay = make_overlay_from_weighted_edges(
            [(0, 1, 3.0), (1, 2, 4.0)]
        )
        strategy = blind_flooding_strategy(overlay)
        result = run_message_level_query(
            overlay, 0, strategy, holders=[2], ttl=None
        )
        assert result.first_response_time == pytest.approx(14.0)
        assert result.responders == {2}
        assert result.hit_messages == 2  # 2->1 and 1->0
        assert result.hit_traffic == pytest.approx(7.0)

    def test_multiple_responders_first_wins(self, make_overlay_from_weighted_edges):
        overlay = make_overlay_from_weighted_edges(
            [(0, 1, 1.0), (0, 2, 10.0)]
        )
        strategy = blind_flooding_strategy(overlay)
        result = run_message_level_query(
            overlay, 0, strategy, holders=[1, 2], ttl=None
        )
        assert result.first_response_time == pytest.approx(2.0)
        assert result.responders == {1, 2}

    def test_source_holding_object_does_not_respond(self, make_overlay_from_weighted_edges):
        overlay = make_overlay_from_weighted_edges([(0, 1, 1.0)])
        strategy = blind_flooding_strategy(overlay)
        result = run_message_level_query(
            overlay, 0, strategy, holders=[0], ttl=None
        )
        assert result.first_response_time is None


class TestNetworkMechanics:
    def test_dead_link_drops_message(self, world):
        from repro.sim.messages import Ping
        from repro.sim.network import MessageNetwork

        overlay = world.copy()
        network = MessageNetwork(overlay)
        peers = overlay.peers()
        u = peers[0]
        non_neighbor = next(p for p in peers if p != u and not overlay.has_edge(u, p))
        assert network.send(u, non_neighbor, Ping(sender=u)) is False
        assert network.stats.dropped_dead_links == 1
        assert network.stats.messages == 0

    def test_stats_by_kind(self, make_overlay_from_weighted_edges):
        overlay = make_overlay_from_weighted_edges([(0, 1, 2.0)])
        strategy = blind_flooding_strategy(overlay)
        result = run_message_level_query(
            overlay, 0, strategy, holders=[1], ttl=None
        )
        assert result.query_messages == 1
        assert result.hit_messages == 1

    def test_detached_peer_ignores_messages(self, make_overlay_from_weighted_edges):
        from repro.sim.messages import Ping
        from repro.sim.network import MessageNetwork

        overlay = make_overlay_from_weighted_edges([(0, 1, 2.0)])
        network = MessageNetwork(overlay)
        network.send(0, 1, Ping(sender=0))  # no handler attached
        network.run()  # must not raise
        assert network.stats.messages == 1
