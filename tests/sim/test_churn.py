"""Unit tests for the churn model."""

import numpy as np
import pytest

from repro.sim.churn import ChurnConfig, ChurnModel, LifetimeDistribution
from repro.topology.overlay import random_overlay


@pytest.fixture
def world(ba_physical, rng):
    ov = random_overlay(ba_physical, 30, avg_degree=4, rng=rng)
    used = {ov.host_of(p) for p in ov.peers()}
    pool = [h for h in ba_physical.largest_component_nodes() if h not in used]
    offline = {100 + i: pool[i] for i in range(10)}
    model = ChurnModel(ov, offline, np.random.default_rng(7))
    return ov, model


class TestLifetimeDistribution:
    def test_moments_match(self):
        dist = LifetimeDistribution(mean=600.0, std=300.0)
        samples = dist.sample_many(np.random.default_rng(0), 40000)
        assert np.mean(samples) == pytest.approx(600.0, rel=0.05)
        assert np.std(samples) == pytest.approx(300.0, rel=0.10)

    def test_always_positive(self):
        dist = LifetimeDistribution(mean=10.0, std=30.0)
        samples = dist.sample_many(np.random.default_rng(0), 1000)
        assert (samples > 0).all()

    def test_paper_defaults(self):
        cfg = ChurnConfig()
        assert cfg.mean_lifetime == 600.0  # 10 minutes
        assert cfg.std_lifetime == 300.0  # "variance half of the mean"

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            LifetimeDistribution(mean=0.0)
        with pytest.raises(ValueError):
            LifetimeDistribution(mean=10.0, std=-1.0)


class TestSetup:
    def test_records_cover_everyone(self, world):
        _ov, model = world
        assert len(model.records) == 40
        assert model.online_count == 30
        assert model.offline_count == 10

    def test_offline_id_collision_rejected(self, world):
        ov, _model = world
        with pytest.raises(ValueError, match="collides"):
            ChurnModel(ov, {0: 50}, np.random.default_rng(0))

    def test_start_initial_sessions(self, world):
        ov, model = world
        model.start_initial_sessions(now=0.0)
        for p in ov.peers():
            rec = model.records[p]
            assert rec.alive
            assert rec.departs_at is not None
            assert set(rec.cached_addresses()) >= set(ov.neighbors(p))


class TestDepartArrive:
    def test_population_constant(self, world):
        ov, model = world
        model.start_initial_sessions(0.0)
        for t, peer in enumerate(list(ov.peers())[:5]):
            model.depart(peer, now=float(t))
        assert model.online_count == 30
        assert model.offline_count == 10
        assert model.departures == 5
        assert model.arrivals == 5

    def test_departed_peer_offline(self, world):
        ov, model = world
        model.start_initial_sessions(0.0)
        victim = ov.peers()[0]
        model.depart(victim, now=1.0)
        assert not ov.has_peer(victim)
        assert not model.records[victim].alive

    def test_replacement_connected_and_alive(self, world):
        ov, model = world
        model.start_initial_sessions(0.0)
        replacement = model.depart(ov.peers()[0], now=1.0)
        assert ov.has_peer(replacement)
        assert ov.degree(replacement) >= 1
        rec = model.records[replacement]
        assert rec.alive
        assert rec.departs_at > 1.0

    def test_replacement_avoids_immediate_rejoin(self, world):
        ov, model = world
        model.start_initial_sessions(0.0)
        for peer in list(ov.peers())[:8]:
            replacement = model.depart(peer, now=0.0)
            assert replacement != peer

    def test_departing_peer_caches_neighbors(self, world):
        ov, model = world
        model.start_initial_sessions(0.0)
        victim = ov.peers()[0]
        neighbors = set(ov.neighbors(victim))
        model.depart(victim, now=1.0)
        assert neighbors <= set(model.records[victim].cached_addresses())

    def test_next_departure_is_earliest(self, world):
        ov, model = world
        model.start_initial_sessions(0.0)
        earliest = model.next_departure()
        assert earliest is not None
        assert earliest.departs_at == min(
            model.records[p].departs_at for p in ov.peers()
        )

    def test_empty_pool_rejoins_departed_peer(self, ba_physical):
        # With no spare identities, the departing peer is the only possible
        # replacement and rejoins immediately (population stays constant).
        ov = random_overlay(ba_physical, 10, avg_degree=4, rng=np.random.default_rng(1))
        model = ChurnModel(ov, {}, np.random.default_rng(1))
        model.start_initial_sessions(0.0)
        victim = ov.peers()[0]
        replacement = model.depart(victim, now=0.0)
        assert replacement == victim
        assert ov.has_peer(victim)
        assert model.online_count == 10


class TestRepair:
    def test_repair_isolated(self, world):
        ov, model = world
        model.start_initial_sessions(0.0)
        victim = ov.peers()[0]
        for nbr in list(ov.neighbors(victim)):
            ov.disconnect(victim, nbr)
        assert ov.degree(victim) == 0
        repaired = model.repair_isolated()
        assert repaired == 1
        assert ov.degree(victim) >= 1

    @staticmethod
    def _star_world(ba_physical, overlay_class):
        # Peers 0..11 on a ring, plus hub 20 whose only links go to the
        # leaves 15 and 12: the hub's departure isolates both leaves and
        # nobody else.
        hosts = ba_physical.largest_component_nodes()
        ov = overlay_class(ba_physical, {p: hosts[p] for p in (*range(13), 15, 20)})
        for p in range(12):
            ov.connect(p, (p + 1) % 12)
        ov.connect(20, 15)
        ov.connect(20, 12)
        model = ChurnModel(ov, {}, np.random.default_rng(3))
        model.start_initial_sessions(0.0)
        ov.remove_peer(20)
        return ov, model

    def test_departure_isolating_two_peers_repairs_both_in_id_order(
        self, ba_physical, overlay_class
    ):
        ov, model = self._star_world(ba_physical, overlay_class)
        assert [p for p in ov.peers() if ov.degree(p) == 0] == [12, 15]
        connect = model.bootstrap.connect_joining_peer
        order = []

        def recording(peer):
            order.append(peer)
            return connect(peer)

        model.bootstrap.connect_joining_peer = recording
        assert model.repair_isolated() == 2
        assert order == [12, 15]
        assert ov.degree(12) >= 1 and ov.degree(15) >= 1

    def test_repair_skips_a_peer_an_earlier_repair_reconnected(
        self, ba_physical, overlay_class
    ):
        ov, model = self._star_world(ba_physical, overlay_class)
        order = []

        def link_to_the_other_leaf(peer):
            order.append(peer)
            ov.connect(peer, 27 - peer)  # 12 <-> 15
            return [27 - peer]

        model.bootstrap.connect_joining_peer = link_to_the_other_leaf
        assert model.repair_isolated() == 1
        assert order == [12]
        assert ov.has_edge(12, 15)

    def test_repair_noop_when_healthy(self, world):
        _ov, model = world
        model.start_initial_sessions(0.0)
        assert model.repair_isolated() == 0
