"""Unit tests for the query propagation engine and blind flooding."""

import pytest

from repro.search.batch import compile_strategy, propagate_many, run_queries
from repro.search.flooding import (
    GNUTELLA_TTL,
    blind_flooding_strategy,
    propagate,
)
from repro.topology.soa import ArrayOverlay
from tests.reference import search as reference
from tests.reference.caching import stopping_at
from tests.reference.overlay import Overlay


@pytest.fixture
def chain(make_overlay_from_weighted_edges):
    """0-1-2-3 logical chain with unit link delays."""
    return make_overlay_from_weighted_edges(
        [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]
    )


@pytest.fixture
def diamond(make_overlay_from_weighted_edges):
    """0 connects to 1 and 2; both connect to 3.  Asymmetric delays."""
    return make_overlay_from_weighted_edges(
        [(0, 1, 1.0), (0, 2, 5.0), (1, 3, 1.0), (2, 3, 1.0)]
    )


class TestReachability:
    def test_reaches_all_connected_peers(self, chain):
        prop = propagate(chain, 0, blind_flooding_strategy(chain), ttl=None)
        assert prop.reached == {0, 1, 2, 3}
        assert prop.search_scope == 4

    def test_source_always_reached(self, chain):
        prop = propagate(chain, 2, blind_flooding_strategy(chain), ttl=None)
        assert 2 in prop.reached
        assert prop.arrival_time[2] == 0.0

    def test_disconnected_component_not_reached(self, grid_physical):
        ov = Overlay(grid_physical, {0: 0, 1: 1, 2: 10, 3: 11})
        ov.connect(0, 1)
        ov.connect(2, 3)
        prop = propagate(ov, 0, blind_flooding_strategy(ov), ttl=None)
        assert prop.reached == {0, 1}

    def test_unknown_source_raises(self, chain):
        with pytest.raises(KeyError):
            propagate(chain, 99, blind_flooding_strategy(chain))


class TestTtl:
    def test_ttl_limits_hops(self, chain):
        prop = propagate(chain, 0, blind_flooding_strategy(chain), ttl=2)
        assert prop.reached == {0, 1, 2}

    def test_ttl_one_is_neighbors_only(self, chain):
        prop = propagate(chain, 1, blind_flooding_strategy(chain), ttl=1)
        assert prop.reached == {0, 1, 2}

    def test_default_ttl_is_gnutella(self):
        assert GNUTELLA_TTL == 7

    def test_hops_recorded(self, chain):
        prop = propagate(chain, 0, blind_flooding_strategy(chain), ttl=None)
        assert prop.hops == {0: 0, 1: 1, 2: 2, 3: 3}


class TestTiming:
    def test_arrival_times_are_shortest_overlay_paths(self, diamond):
        # The drawn 0-2 link (5) is undercut by the underlay route 0-1-3-2
        # (cost 3) — the logical link *cost* is the shortest-path delay.
        assert diamond.cost(0, 2) == pytest.approx(3.0)
        prop = propagate(diamond, 0, blind_flooding_strategy(diamond), ttl=None)
        assert prop.arrival_time[1] == pytest.approx(1.0)
        assert prop.arrival_time[2] == pytest.approx(3.0)
        # 3 is reached faster via 1 (1 + 1) than via 2.
        assert prop.arrival_time[3] == pytest.approx(2.0)

    def test_parent_tracks_first_delivery(self, diamond):
        prop = propagate(diamond, 0, blind_flooding_strategy(diamond), ttl=None)
        assert prop.parent[3] == 1

    def test_path_to(self, diamond):
        prop = propagate(diamond, 0, blind_flooding_strategy(diamond), ttl=None)
        assert prop.path_to(3) == [0, 1, 3]

    def test_path_to_unreached_raises(self, chain):
        prop = propagate(chain, 0, blind_flooding_strategy(chain), ttl=1)
        with pytest.raises(KeyError):
            prop.path_to(3)


class TestTrafficAccounting:
    def test_chain_traffic(self, chain):
        prop = propagate(chain, 0, blind_flooding_strategy(chain), ttl=None)
        # Each link crossed exactly once (no cycles): cost 3, messages 3.
        assert prop.traffic_cost == pytest.approx(3.0)
        assert prop.messages == 3
        assert prop.duplicate_messages == 0

    def test_triangle_duplicates(self, make_overlay_from_weighted_edges):
        ov = make_overlay_from_weighted_edges(
            [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]
        )
        prop = propagate(ov, 0, blind_flooding_strategy(ov), ttl=None)
        # 0 sends to 1 and 2; each forwards to the other: 4 messages, and
        # the two crossing messages are duplicates.
        assert prop.messages == 4
        assert prop.duplicate_messages == 2
        assert prop.traffic_cost == pytest.approx(4.0)

    def test_duplicate_cost_still_charged(self, diamond):
        prop = propagate(diamond, 0, blind_flooding_strategy(diamond), ttl=None)
        # Every logical link is crossed in both directions except back
        # toward the sender; the sum of one crossing per link is a strict
        # lower bound once duplicates occur.
        one_crossing_each = sum(
            diamond.cost(u, v) for u, v in diamond.edges()
        )
        assert prop.duplicate_messages > 0
        assert prop.traffic_cost > one_crossing_each

    def test_figure1_style_m_receives_many_copies(self, make_overlay_from_weighted_edges):
        """The paper's Figure 1: a clique corner receives the query from
        every clique member even though it needs only one copy."""
        clique = [(u, v, 1.0) for u in range(4) for v in range(u + 1, 4)]
        ov = make_overlay_from_weighted_edges(clique)
        prop = propagate(ov, 0, blind_flooding_strategy(ov), ttl=None)
        # 0 sends 3; each of 1, 2, 3 forwards to the 2 peers that are not
        # its sender: 9 messages, of which 6 are duplicate deliveries.
        assert prop.messages == 9
        assert prop.duplicate_messages == 6


def stopped_query(overlay, source, stops):
    """A flood in which *stops* receive but do not forward: a stopped copy of
    the compiled graph on arrays, the heap's wrapping strategy otherwise."""
    strategy = blind_flooding_strategy(overlay)
    if isinstance(overlay, ArrayOverlay):
        graph = compile_strategy(overlay, strategy).stopped_at(
            [p for p in overlay.peers() if p != source and stops(p)]
        )
        return propagate_many(overlay, [source], strategy, ttl=None, graph=graph).result(0)
    return propagate(overlay, source, stopping_at(strategy, stops), ttl=None)


def run_query(overlay, source, strategy, holders, ttl):
    """One query on the overlay class's engine: the kernel on arrays, the
    heap reference on the object model."""
    if isinstance(overlay, ArrayOverlay):
        (stats,) = run_queries(overlay, strategy, [(source, holders)], ttl=ttl)
        return stats
    return reference.run_query(overlay, source, strategy, holders, ttl=ttl)


class TestStopAt:
    def test_stop_peer_receives_but_does_not_forward(self, chain):
        prop = stopped_query(chain, 0, lambda p: p == 1)
        assert prop.reached == {0, 1}

    def test_stop_at_ignored_for_source(self, chain):
        prop = stopped_query(chain, 0, lambda p: True)
        assert prop.reached == {0, 1}


class TestRunQuery:
    def test_response_time_is_round_trip(self, chain):
        result = run_query(
            chain, 0, blind_flooding_strategy(chain), holders=[2], ttl=None
        )
        assert result.success
        assert result.first_response_time == pytest.approx(4.0)
        assert result.holders_reached == (2,)

    def test_first_of_many_responders(self, chain):
        result = run_query(
            chain, 0, blind_flooding_strategy(chain), holders=[2, 3], ttl=None
        )
        assert result.first_response_time == pytest.approx(4.0)
        assert result.holders_reached == (2, 3)

    def test_no_holder_reached(self, chain):
        result = run_query(
            chain, 0, blind_flooding_strategy(chain), holders=[3], ttl=1
        )
        assert not result.success
        assert result.first_response_time is None
        assert result.holders_reached == ()

    def test_source_holding_object_not_a_responder(self, chain):
        result = run_query(
            chain, 0, blind_flooding_strategy(chain), holders=[0], ttl=None
        )
        assert not result.success

    def test_metrics_passthrough(self, chain):
        result = run_query(
            chain, 0, blind_flooding_strategy(chain), holders=[3], ttl=None
        )
        prop = propagate(chain, 0, blind_flooding_strategy(chain), ttl=None)
        assert result.traffic_cost == prop.traffic_cost
        assert result.search_scope == prop.search_scope == 4
