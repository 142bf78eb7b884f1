"""Unit tests for transit-stub underlays and AS traffic accounting."""

import numpy as np
import pytest

from repro.search.flooding import blind_flooding_strategy, propagate
from repro.topology.autonomous_systems import (
    AsTrafficReport,
    as_of_hosts,
    as_traffic_report,
    transit_stub,
)
from repro.topology.overlay import random_overlay
from tests.reference.overlay import Overlay


@pytest.fixture(scope="module")
def ts_world():
    rng = np.random.default_rng(11)
    topo, labels = transit_stub(
        transit_nodes=8, stubs_per_transit=2, stub_size=10, rng=rng
    )
    return topo, labels


class TestTransitStub:
    def test_host_count(self, ts_world):
        topo, labels = ts_world
        assert topo.num_nodes == 8 + 8 * 2 * 10
        assert len(labels) == topo.num_nodes

    def test_connected(self, ts_world):
        topo, _labels = ts_world
        assert topo.is_connected()

    def test_transit_is_as_zero(self, ts_world):
        _topo, labels = ts_world
        assert (labels[:8] == 0).all()

    def test_stub_count(self, ts_world):
        _topo, labels = ts_world
        assert labels.max() == 16

    def test_stub_sizes(self, ts_world):
        _topo, labels = ts_world
        for stub in range(1, 17):
            assert (labels == stub).sum() == 10

    def test_intra_stub_cheaper_than_crossing(self, ts_world):
        topo, labels = ts_world
        # Two hosts of stub 1 vs one host of stub 1 and one of stub 2.
        stub1 = np.flatnonzero(labels == 1)
        stub2 = np.flatnonzero(labels == 2)
        intra = topo.delay(int(stub1[0]), int(stub1[1]))
        inter = topo.delay(int(stub1[0]), int(stub2[0]))
        assert intra < inter

    def test_validation(self):
        with pytest.raises(ValueError):
            transit_stub(transit_nodes=1)
        with pytest.raises(ValueError):
            transit_stub(stub_size=0)

    def test_deterministic(self):
        a, la = transit_stub(transit_nodes=4, stubs_per_transit=2, stub_size=5,
                             rng=np.random.default_rng(3))
        b, lb = transit_stub(transit_nodes=4, stubs_per_transit=2, stub_size=5,
                             rng=np.random.default_rng(3))
        assert sorted(a.edges()) == sorted(b.edges())
        assert (la == lb).all()


class TestAsAccounting:
    def test_as_of_hosts(self, ts_world):
        topo, labels = ts_world
        ov = Overlay(topo, {0: 8, 1: 9})  # two hosts in the first stub
        ov.connect(0, 1)
        mapping = as_of_hosts(labels, ov)
        assert mapping[0] == labels[8]
        assert mapping[1] == labels[9]

    def test_link_classification(self, ts_world):
        topo, labels = ts_world
        stub1 = [int(h) for h in np.flatnonzero(labels == 1)[:2]]
        stub2 = [int(h) for h in np.flatnonzero(labels == 2)[:1]]
        ov = Overlay(topo, {0: stub1[0], 1: stub1[1], 2: stub2[0]})
        ov.connect(0, 1)  # intra
        ov.connect(0, 2)  # inter
        report = as_traffic_report(labels, ov)
        assert report.intra_as_links == 1
        assert report.inter_as_links == 1
        assert report.intra_link_fraction == pytest.approx(0.5)

    def test_traffic_classification_with_propagation(self, ts_world):
        topo, labels = ts_world
        stub1 = [int(h) for h in np.flatnonzero(labels == 1)[:2]]
        stub2 = [int(h) for h in np.flatnonzero(labels == 2)[:1]]
        ov = Overlay(topo, {0: stub1[0], 1: stub1[1], 2: stub2[0]})
        ov.connect(0, 1)
        ov.connect(1, 2)
        prop = propagate(ov, 0, blind_flooding_strategy(ov), ttl=None)
        report = as_traffic_report(labels, ov, prop)
        assert report.intra_as_traffic == pytest.approx(ov.cost(0, 1))
        assert report.inter_as_traffic == pytest.approx(ov.cost(1, 2))
        assert 0 < report.inter_traffic_fraction < 1

    def test_empty_overlay(self, ts_world):
        topo, labels = ts_world
        report = as_traffic_report(labels, Overlay(topo))
        assert report.total_links == 0
        assert report.intra_link_fraction == 0.0
        assert report.inter_traffic_fraction == 0.0


class TestPaperMotivation:
    def test_random_overlay_mostly_crosses_as_borders(self, ts_world):
        """The intro's measurement: 2-5% of Gnutella connections stay
        inside one AS.  A random overlay on a transit-stub underlay shows
        the same order of magnitude."""
        topo, labels = ts_world
        ov = random_overlay(topo, 80, avg_degree=6, rng=np.random.default_rng(5))
        report = as_traffic_report(labels, ov)
        assert report.intra_link_fraction < 0.2

    def test_ace_increases_as_locality(self, ts_world):
        from repro.core.ace import AceProtocol
        from repro.topology.overlay import small_world_overlay

        topo, labels = ts_world
        ov = small_world_overlay(topo, 80, avg_degree=8, rng=np.random.default_rng(5))
        before = as_traffic_report(labels, ov).intra_link_fraction
        protocol = AceProtocol(ov, rng=np.random.default_rng(5))
        protocol.run(6)
        after = as_traffic_report(labels, ov).intra_link_fraction
        assert after > before
