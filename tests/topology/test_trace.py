"""Unit tests for the synthetic Gnutella crawl, the Clip2 trace substitute."""

import numpy as np
import pytest

from repro.topology.overlay import synthesize_gnutella_snapshot
from repro.topology.properties import power_law_exponent


@pytest.fixture
def snapshot(ba_physical):
    return synthesize_gnutella_snapshot(
        ba_physical, n_peers=80, rng=np.random.default_rng(21)
    )


class TestSynthesize:
    def test_peer_count(self, snapshot):
        assert snapshot.num_peers == 80

    def test_connected(self, snapshot):
        assert snapshot.is_connected()

    def test_power_law_tail(self, ba_physical):
        ov = synthesize_gnutella_snapshot(
            ba_physical, n_peers=110, rng=np.random.default_rng(5)
        )
        degrees = [ov.degree(p) for p in ov.peers()]
        alpha = power_law_exponent(degrees, d_min=1)
        assert 1.5 < alpha < 3.5

    def test_distinct_hosts(self, snapshot):
        hosts = [snapshot.host_of(p) for p in snapshot.peers()]
        assert len(set(hosts)) == len(hosts)

    def test_too_many_peers(self, grid_physical):
        with pytest.raises(ValueError, match="physical nodes"):
            synthesize_gnutella_snapshot(grid_physical, n_peers=50)

    def test_deterministic(self, ba_physical):
        a = synthesize_gnutella_snapshot(
            ba_physical, n_peers=40, rng=np.random.default_rng(1)
        )
        b = synthesize_gnutella_snapshot(
            ba_physical, n_peers=40, rng=np.random.default_rng(1)
        )
        assert sorted(a.edges()) == sorted(b.edges())
