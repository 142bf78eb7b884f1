"""Edge-case tests for the ACE protocol driver."""

import numpy as np
import pytest

from repro.core.ace import AceConfig, AceProtocol
from repro.core.replacement import MIN_DEGREE
from repro.topology.physical import PhysicalTopology
from repro.topology.soa import FLOODING, ArrayOverlay


def tiny_world(n_hosts=8):
    phys = PhysicalTopology(
        n_hosts, [(i, i + 1) for i in range(n_hosts - 1)], [1.0] * (n_hosts - 1)
    )
    return phys


class TestDegenerateOverlays:
    def test_single_peer(self):
        ov = ArrayOverlay(tiny_world(), {0: 0})
        protocol = AceProtocol(ov, rng=np.random.default_rng(0))
        report = protocol.step()
        assert report.peers_optimized == 1
        assert report.replacements == 0
        assert protocol.flooding_neighbors(0) == set()

    def test_two_peers(self):
        ov = ArrayOverlay(tiny_world(), {0: 0, 1: 5})
        ov.connect(0, 1)
        protocol = AceProtocol(ov, rng=np.random.default_rng(0))
        protocol.step()
        assert protocol.flooding_neighbors(0) == {1}
        assert protocol.flooding_neighbors(1) == {0}
        assert ov.has_edge(0, 1)

    def test_empty_overlay_step(self):
        ov = ArrayOverlay(tiny_world())
        protocol = AceProtocol(ov, rng=np.random.default_rng(0))
        report = protocol.step()
        assert report.peers_optimized == 0

    def test_step_skips_departed_peers(self):
        ov = ArrayOverlay(tiny_world(), {0: 0, 1: 3, 2: 6})
        ov.connect(0, 1)
        ov.connect(1, 2)
        protocol = AceProtocol(ov, rng=np.random.default_rng(0))
        report = protocol.step(peers=[0, 1, 2, 99])
        assert report.peers_optimized == 3


class TestStarOverlayBehaviour:
    """On a star (no neighbor-neighbor links) Phase 2 floods everywhere."""

    def test_star_has_no_non_flooding_neighbors(self):
        ov = ArrayOverlay(tiny_world(), {0: 3, 1: 0, 2: 1, 3: 6, 4: 7})
        for leaf in (1, 2, 3, 4):
            ov.connect(0, leaf)
        protocol = AceProtocol(ov, rng=np.random.default_rng(0))
        protocol.rebuild_all_trees()
        labels, broken = ov.link_labels(0)
        assert labels == {leaf: FLOODING for leaf in (1, 2, 3, 4)} and not broken

    def test_star_step_makes_no_changes(self):
        ov = ArrayOverlay(tiny_world(), {0: 3, 1: 0, 2: 1, 3: 6, 4: 7})
        for leaf in (1, 2, 3, 4):
            ov.connect(0, leaf)
        protocol = AceProtocol(ov, rng=np.random.default_rng(0))
        report = protocol.step()
        assert report.replacements == 0
        assert report.keep_both_adds == 0
        assert report.redundant_sheds == 0
        assert sorted(ov.edges()) == [(0, 1), (0, 2), (0, 3), (0, 4)]


class TestNonFloodingAccessor:
    def test_non_flooding_neighbors_live_view(self):
        ov = ArrayOverlay(tiny_world(), {0: 0, 1: 2, 2: 4})
        ov.connect(0, 1)
        ov.connect(1, 2)
        ov.connect(0, 2)  # triangle with 0-2 as the long side
        protocol = AceProtocol(
            ov, AceConfig(shed_redundant=False), rng=np.random.default_rng(0)
        )
        protocol.rebuild_all_trees()
        assert protocol.non_flooding_neighbors(0) == {2}
        ov.disconnect(0, 2)
        assert protocol.non_flooding_neighbors(0) == set()


class TestShedFloorConfiguration:
    def test_default_floor_is_average_degree(self):
        ov = ArrayOverlay(tiny_world(), {0: 0, 1: 2, 2: 4, 3: 6})
        for u, v in [(0, 1), (1, 2), (2, 3), (3, 0)]:
            ov.connect(u, v)
        protocol = AceProtocol(ov, rng=np.random.default_rng(0))
        assert protocol._shed_floor == 2

    def test_default_floor_follows_a_denser_overlay(self):
        ov = ArrayOverlay(tiny_world(), {p: p for p in range(5)})
        for u in range(5):
            for v in range(u + 1, 5):
                ov.connect(u, v)
        protocol = AceProtocol(ov, rng=np.random.default_rng(0))
        assert protocol._shed_floor == 4

    def test_floor_never_below_min_degree(self):
        # Average degree 1 rounds to 1; the floor stays at MIN_DEGREE.
        ov = ArrayOverlay(tiny_world(), {0: 0, 1: 2})
        ov.connect(0, 1)
        protocol = AceProtocol(ov, rng=np.random.default_rng(0))
        assert protocol._shed_floor == MIN_DEGREE == 2


class TestOverheadAccounting:
    def test_deeper_closures_cost_more_per_step(self):
        hosts = {i: i for i in range(8)}
        ov = ArrayOverlay(tiny_world(), hosts)
        for i in range(7):
            ov.connect(i, i + 1)
        ov.connect(0, 2)
        ov.connect(3, 5)
        shallow = AceProtocol(
            ov.copy(), AceConfig(depth=1), rng=np.random.default_rng(1)
        ).step()
        deep = AceProtocol(
            ov.copy(), AceConfig(depth=3), rng=np.random.default_rng(1)
        ).step()
        assert deep.exchange_overhead > shallow.exchange_overhead

    def test_probe_overhead_matches_neighbor_costs(self):
        ov = ArrayOverlay(tiny_world(), {0: 0, 1: 2, 2: 4})
        ov.connect(0, 1)
        ov.connect(1, 2)
        protocol = AceProtocol(ov, rng=np.random.default_rng(0))
        report = protocol.step()
        # Each peer probes its direct neighbors once per step, round trip:
        # 0: 2*2, 1: 2*(2+2), 2: 2*2 => 16.
        assert report.probe_overhead == pytest.approx(16.0)
