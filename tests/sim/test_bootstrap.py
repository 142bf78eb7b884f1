"""Unit tests for the bootstrap service."""

import numpy as np
import pytest

from repro.sim.bootstrap import BootstrapService
from repro.sim.peer import PeerRecord
from tests.reference.overlay import Overlay


@pytest.fixture
def world(grid_physical):
    """Six live peers in a ring plus one fresh peer (6) to join."""
    ov = Overlay(grid_physical, {i: i for i in range(7)})
    for i in range(6):
        ov.connect(i, (i + 1) % 6)
    records = {i: PeerRecord(peer_id=i, host=i) for i in range(7)}
    rng = np.random.default_rng(0)
    service = BootstrapService(ov, records, rng, target_degree=3)
    return ov, records, service


class TestRandomAddresses:
    def test_returns_live_peers(self, world):
        ov, _records, service = world
        addrs = service.random_addresses(4)
        assert len(addrs) == 4
        assert all(ov.has_peer(a) for a in addrs)

    def test_excludes(self, world):
        _ov, _records, service = world
        addrs = service.random_addresses(10, exclude={0, 1, 2})
        assert not set(addrs) & {0, 1, 2}

    def test_caps_at_population(self, world):
        _ov, _records, service = world
        assert len(service.random_addresses(100)) == 7

    def test_target_degree_validation(self, world):
        ov, records, _ = world
        with pytest.raises(ValueError):
            BootstrapService(ov, records, np.random.default_rng(0), target_degree=0)


class TestJoining:
    def test_connects_to_target_degree(self, world):
        ov, _records, service = world
        connected = service.connect_joining_peer(6)
        assert len(connected) == 3
        assert ov.degree(6) == 3

    def test_cached_addresses_tried_first(self, world):
        ov, records, service = world
        records[6].learn_addresses([2, 4])
        connected = service.connect_joining_peer(6)
        assert {2, 4} <= set(connected)

    def test_dead_cached_addresses_skipped(self, world):
        ov, records, service = world
        records[6].learn_address(99)  # never existed
        connected = service.connect_joining_peer(6)
        assert 99 not in connected
        assert ov.degree(6) == 3

    def test_joiner_learns_neighbors(self, world):
        _ov, records, service = world
        connected = service.connect_joining_peer(6)
        assert set(records[6].cached_addresses()) >= set(connected)

    def test_neighbors_learn_joiner(self, world):
        _ov, records, service = world
        connected = service.connect_joining_peer(6)
        for nbr in connected:
            assert 6 in records[nbr].cached_addresses()

    def test_small_population_partial_degree(self, grid_physical):
        ov = Overlay(grid_physical, {0: 0, 1: 1})
        records = {i: PeerRecord(peer_id=i, host=i) for i in range(2)}
        service = BootstrapService(
            ov, records, np.random.default_rng(0), target_degree=5
        )
        connected = service.connect_joining_peer(0)
        assert connected == [1]
