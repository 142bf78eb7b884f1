"""Unit tests for the simplified LTM comparator."""

import numpy as np

from repro.extensions.ltm import LtmProtocol, LtmReport
from repro.search.flooding import blind_flooding_strategy, propagate
from repro.topology.overlay import small_world_overlay
from repro.topology.physical import PhysicalTopology
from tests.reference.overlay import Overlay


def overlay_on_line(hosts, edges, n=16):
    phys = PhysicalTopology(
        n, [(i, i + 1) for i in range(n - 1)], [1.0] * (n - 1)
    )
    ov = Overlay(phys, dict(enumerate(hosts)))
    for u, v in edges:
        ov.connect(u, v)
    return ov


class TestTriangleCutting:
    def test_cuts_longest_incident_side(self):
        # Triangle 0@0, 1@1, 2@9: longest side is 0-2 (9).
        ov = overlay_on_line([0, 1, 9], [(0, 1), (1, 2), (0, 2)])
        ltm = LtmProtocol(ov, rng=np.random.default_rng(0), min_degree=1)
        report = LtmReport(step_index=0)
        ltm.optimize_peer(0, report)
        assert report.cuts == 1
        assert not ov.has_edge(0, 2)
        assert ov.is_connected()

    def test_no_triangle_no_cut(self):
        ov = overlay_on_line([0, 5, 9], [(0, 1), (1, 2)])
        ltm = LtmProtocol(ov, rng=np.random.default_rng(0), min_degree=1)
        report = LtmReport(step_index=0)
        assert ltm.optimize_peer(0, report) == 0
        assert report.triangles_seen == 0

    def test_does_not_cut_other_peers_links(self):
        # Longest side 1-2 is not incident to peer 0, so 0 cannot cut it.
        ov = overlay_on_line([4, 0, 9], [(0, 1), (1, 2), (0, 2)])
        ltm = LtmProtocol(ov, rng=np.random.default_rng(0), min_degree=1)
        report = LtmReport(step_index=0)
        ltm.optimize_peer(1, report)
        # d(1,0)=4, d(1,2)=9, d(0,2)=5: peer 1 cuts its own 1-2 link.
        assert not ov.has_edge(1, 2)
        assert ov.has_edge(0, 2)

    def test_respects_min_degree(self):
        ov = overlay_on_line([0, 1, 9], [(0, 1), (1, 2), (0, 2)])
        ltm = LtmProtocol(ov, rng=np.random.default_rng(0), min_degree=2)
        report = LtmReport(step_index=0)
        assert ltm.optimize_peer(0, report) == 0
        assert ov.has_edge(0, 2)

    def test_equilateral_triangle_untouched(self):
        # All sides equal: no strictly longest side, nothing cut.
        phys = PhysicalTopology(3, [(0, 1), (1, 2), (0, 2)], [5.0, 5.0, 5.0])
        ov = Overlay(phys, {0: 0, 1: 1, 2: 2})
        for u, v in [(0, 1), (1, 2), (0, 2)]:
            ov.connect(u, v)
        ltm = LtmProtocol(ov, rng=np.random.default_rng(0), min_degree=1)
        report = LtmReport(step_index=0)
        for p in (0, 1, 2):
            ltm.optimize_peer(p, report)
        assert ov.num_edges == 3


class TestStep:
    def test_step_counts(self, ba_physical):
        ov = small_world_overlay(
            ba_physical, 30, avg_degree=6, rng=np.random.default_rng(5)
        )
        ltm = LtmProtocol(ov, rng=np.random.default_rng(5))
        report = ltm.step()
        assert ltm.steps_run == 1
        assert report.detector_overhead > 0
        assert report.triangles_seen > 0

    def test_scope_preserved_after_cuts(self, ba_physical):
        ov = small_world_overlay(
            ba_physical, 30, avg_degree=6, rng=np.random.default_rng(5)
        )
        ltm = LtmProtocol(ov, rng=np.random.default_rng(5))
        ltm.run(3)
        prop = propagate(ov, ov.peers()[0], blind_flooding_strategy(ov), ttl=None)
        assert prop.reached == set(ov.peers())

    def test_traffic_reduced(self, ba_physical):
        ov = small_world_overlay(
            ba_physical, 35, avg_degree=8, rng=np.random.default_rng(6)
        )
        sources = ov.peers()[:6]
        before = sum(
            propagate(ov, s, blind_flooding_strategy(ov), ttl=None).traffic_cost
            for s in sources
        )
        ltm = LtmProtocol(ov, rng=np.random.default_rng(6))
        ltm.run(3)
        after = sum(
            propagate(ov, s, blind_flooding_strategy(ov), ttl=None).traffic_cost
            for s in sources
        )
        assert after < before

    def test_convergence(self, ba_physical):
        ov = small_world_overlay(
            ba_physical, 30, avg_degree=6, rng=np.random.default_rng(7)
        )
        ltm = LtmProtocol(ov, rng=np.random.default_rng(7))
        reports = ltm.run(12)
        assert reports[-1].cuts == 0  # no triangles with cuttable sides left
