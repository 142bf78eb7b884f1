"""Unit tests for the ACE protocol driver."""

import numpy as np
import pytest

from repro.core.ace import AceConfig, AceProtocol
from repro.search.flooding import blind_flooding_strategy, propagate
from repro.search.tree_routing import ace_strategy
from repro.topology.overlay import Overlay, small_world_overlay
from repro.topology.physical import PhysicalTopology


def line_underlay(n=32):
    return PhysicalTopology(
        n, [(i, i + 1) for i in range(n - 1)], [1.0] * (n - 1)
    )


def overlay_on_line(hosts, edges):
    ov = Overlay(line_underlay(), dict(enumerate(hosts)))
    for u, v in edges:
        ov.connect(u, v)
    return ov


@pytest.fixture
def clustered():
    """Triangle 0-1-2 (costs 2, 3, 5) plus pendant 3.

    Peer 0@0, 1@2, 2@5, 3@7 on a line underlay.
    """
    return overlay_on_line([0, 2, 5, 7], [(0, 1), (1, 2), (0, 2), (2, 3)])


class TestConfigValidation:
    def test_depth_positive(self):
        with pytest.raises(ValueError):
            AceConfig(depth=0)

    def test_defaults_sane(self):
        cfg = AceConfig()
        assert cfg.depth == 1
        assert cfg.allow_keep_both
        assert cfg.shed_redundant


class TestPhase2Classification:
    def test_flooding_vs_non_flooding(self, clustered):
        protocol = AceProtocol(
            clustered, AceConfig(shed_redundant=False), rng=np.random.default_rng(0)
        )
        state = protocol.recompute_tree(0)
        # MST of triangle {0,1,2} keeps 0-1 (2) and 1-2 (3), drops 0-2 (5).
        assert state.flooding == frozenset({1})
        assert state.non_flooding == frozenset({2})

    def test_all_neighbors_flood_before_phase2(self, clustered):
        protocol = AceProtocol(clustered, rng=np.random.default_rng(0))
        assert protocol.flooding_neighbors(0) == {1, 2}

    def test_tree_spans_closure(self, clustered):
        protocol = AceProtocol(clustered, rng=np.random.default_rng(0))
        state = protocol.recompute_tree(2)
        assert state.tree.nodes() == {0, 1, 2, 3}
        assert state.closure_size == 4

    def test_known_neighbors_recorded(self, clustered):
        protocol = AceProtocol(clustered, rng=np.random.default_rng(0))
        state = protocol.recompute_tree(0)
        assert state.known_neighbors == frozenset({1, 2})


class TestStaleStateHandling:
    def test_new_link_is_flooded_to(self, clustered):
        protocol = AceProtocol(
            clustered, AceConfig(shed_redundant=False), rng=np.random.default_rng(0)
        )
        protocol.recompute_tree(0)
        clustered.connect(0, 3)
        assert 3 in protocol.flooding_neighbors(0)

    def test_lost_flooding_neighbor_falls_back_to_all(self, clustered):
        protocol = AceProtocol(
            clustered, AceConfig(shed_redundant=False), rng=np.random.default_rng(0)
        )
        protocol.recompute_tree(0)
        clustered.disconnect(0, 1)  # 1 was the flooding neighbor of 0
        assert protocol.flooding_neighbors(0) == {2}

    def test_lost_non_flooding_neighbor_keeps_tree(self, clustered):
        protocol = AceProtocol(
            clustered, AceConfig(shed_redundant=False), rng=np.random.default_rng(0)
        )
        protocol.recompute_tree(0)
        clustered.disconnect(0, 2)  # non-flooding for 0
        assert protocol.flooding_neighbors(0) == {1}

    def test_churn_hooks_drop_state(self, clustered):
        protocol = AceProtocol(clustered, rng=np.random.default_rng(0))
        protocol.recompute_tree(0)
        protocol.handle_peer_left(0)
        assert protocol.state_of(0) is None
        protocol.recompute_tree(0)
        protocol.handle_peer_joined(0)
        assert protocol.state_of(0) is None


class TestStep:
    def test_step_reports_accumulate(self, small_overlay):
        protocol = AceProtocol(small_overlay, rng=np.random.default_rng(1))
        report = protocol.step()
        assert report.peers_optimized == small_overlay.num_peers
        assert report.probe_overhead > 0
        assert report.exchange_overhead > 0
        assert report.total_overhead == pytest.approx(
            report.probe_overhead
            + report.exchange_overhead
            + report.replacement_probe_overhead
        )

    def test_steps_run_counter(self, small_overlay):
        protocol = AceProtocol(small_overlay, rng=np.random.default_rng(1))
        protocol.run(3)
        assert protocol.steps_run == 3

    def test_all_peers_have_state_after_step(self, small_overlay):
        protocol = AceProtocol(small_overlay, rng=np.random.default_rng(1))
        protocol.step()
        assert all(
            protocol.state_of(p) is not None for p in small_overlay.peers()
        )

    def test_step_keeps_overlay_connected(self, small_overlay):
        protocol = AceProtocol(small_overlay, rng=np.random.default_rng(1))
        protocol.run(4)
        assert small_overlay.is_connected()

    def test_step_subset_of_peers(self, small_overlay):
        protocol = AceProtocol(small_overlay, rng=np.random.default_rng(1))
        report = protocol.step(peers=small_overlay.peers()[:5])
        assert report.peers_optimized == 5

    def test_deterministic_given_seed(self, ba_physical):
        results = []
        for _ in range(2):
            ov = small_world_overlay(
                ba_physical, 30, avg_degree=6, rng=np.random.default_rng(7)
            )
            protocol = AceProtocol(ov, rng=np.random.default_rng(42))
            protocol.run(2)
            results.append(sorted(ov.edges()))
        assert results[0] == results[1]


class TestScopePreservation:
    """The paper's core claim: ACE never shrinks the search scope."""

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tree_routing_reaches_all_peers(self, ba_physical, depth, seed):
        ov = small_world_overlay(
            ba_physical, 35, avg_degree=6, rng=np.random.default_rng(seed)
        )
        protocol = AceProtocol(
            ov, AceConfig(depth=depth), rng=np.random.default_rng(seed)
        )
        protocol.run(3)
        for source in ov.peers()[:6]:
            prop = propagate(ov, source, ace_strategy(protocol), ttl=None)
            assert prop.reached == set(ov.peers())


class TestTrafficReduction:
    def test_ace_traffic_below_blind_flooding(self, ba_physical):
        ov = small_world_overlay(
            ba_physical, 40, avg_degree=8, rng=np.random.default_rng(3)
        )
        baseline = sum(
            propagate(ov, s, blind_flooding_strategy(ov), ttl=None).traffic_cost
            for s in ov.peers()[:8]
        )
        protocol = AceProtocol(ov, rng=np.random.default_rng(3))
        protocol.run(6)
        optimized = sum(
            propagate(ov, s, ace_strategy(protocol), ttl=None).traffic_cost
            for s in ov.peers()[:8]
        )
        assert optimized < baseline


class TestShedding:
    # The shed floor is the overlay's average degree (never below 2), so
    # every world below keeps that average at 2 and gives the endpoints of
    # the link under test a third neighbor.

    def test_sheds_longest_triangle_edge(self):
        # Triangle 0-1-2 (costs 2, 3, 5) with pendants 3 on 0 and 4 on 2.
        ov = overlay_on_line(
            [0, 2, 5, 1, 7], [(0, 1), (1, 2), (0, 2), (0, 3), (2, 4)]
        )
        protocol = AceProtocol(ov, rng=np.random.default_rng(0))
        assert protocol._shed_floor == 2
        protocol.recompute_tree(0)
        shed = protocol.shed_redundant_links(0, [2])
        assert shed == 1
        assert not ov.has_edge(0, 2)
        assert ov.is_connected()

    def test_respects_degree_floor(self, clustered):
        protocol = AceProtocol(clustered, rng=np.random.default_rng(0))
        assert protocol._shed_floor == 2
        protocol.recompute_tree(0)
        shed = protocol.shed_redundant_links(0, [2])
        assert shed == 0  # peer 0 has degree 2 == floor
        assert clustered.has_edge(0, 2)

    def test_does_not_cut_non_triangle_links(self):
        # 0 and 1 both have degree 3 but no mutual neighbor.
        ov = overlay_on_line(
            [0, 2, 9, 1, 3, 11], [(0, 1), (0, 3), (0, 4), (1, 2), (1, 5)]
        )
        protocol = AceProtocol(ov, rng=np.random.default_rng(0))
        assert protocol._shed_floor == 2
        assert protocol.shed_redundant_links(0, [1]) == 0

    def test_cap_per_step(self):
        # Two triangles sharing peer 0, both with 0-incident longest edges,
        # and pendants 5 on 2 and 6 on 4: the floor would allow both cuts.
        ov = overlay_on_line(
            [0, 1, 9, 2, 12, 10, 13],
            [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4), (2, 5), (4, 6)],
        )
        protocol = AceProtocol(ov, rng=np.random.default_rng(0))
        assert protocol._shed_floor == 2
        assert protocol.shed_redundant_links(0, [2, 4]) == 1
        assert protocol.shed_redundant_links(0, [2, 4]) == 1


class TestDegreeStability:
    def test_average_degree_stays_near_initial(self, ba_physical):
        ov = small_world_overlay(
            ba_physical, 40, avg_degree=6, rng=np.random.default_rng(5)
        )
        initial = ov.average_degree()
        protocol = AceProtocol(ov, rng=np.random.default_rng(5))
        protocol.run(8)
        assert abs(ov.average_degree() - initial) < 2.5
