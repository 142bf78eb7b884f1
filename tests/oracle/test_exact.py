"""ExactOracle: a transparent front for the batched underlay engine."""

import numpy as np
import pytest

from repro.oracle import ExactOracle
from repro.perf import counters, reset_counters
from repro.topology.overlay import Overlay, small_world_overlay


class TestDelegation:
    def test_delay_matches_engine(self, ba_physical):
        oracle = ExactOracle(ba_physical)
        hosts = ba_physical.largest_component_nodes()
        for u, v in [(hosts[0], hosts[1]), (hosts[2], hosts[7])]:
            assert oracle.delay(u, v) == ba_physical.delay(u, v)

    def test_delays_from_full_vector(self, ba_physical):
        oracle = ExactOracle(ba_physical)
        src = ba_physical.largest_component_nodes()[0]
        assert np.array_equal(
            oracle.delays_from(src), ba_physical.delays_from(src)
        )

    def test_delays_from_target_slice_aligns_with_targets(self, ba_physical):
        oracle = ExactOracle(ba_physical)
        hosts = ba_physical.largest_component_nodes()
        targets = [hosts[5], hosts[1], hosts[9]]
        sliced = oracle.delays_from(hosts[0], targets)
        full = ba_physical.delays_from(hosts[0])
        assert sliced.shape == (3,)
        assert list(sliced) == [full[t] for t in targets]

    def test_delays_from_many_delegates_batched(self, ba_physical):
        oracle = ExactOracle(ba_physical)
        hosts = ba_physical.largest_component_nodes()[:4]
        reset_counters()
        rows = oracle.delays_from_many(hosts, cache=False)
        assert counters.dijkstra_runs == 1  # one batched solve
        assert counters.dijkstra_sources == len(hosts)
        assert sorted(rows) == sorted(hosts)

    def test_warm_delegates(self, ba_physical):
        oracle = ExactOracle(ba_physical)
        hosts = ba_physical.largest_component_nodes()[:6]
        assert oracle.warm(hosts) == 6
        assert oracle.warm(hosts) == 0  # already resident

    def test_physical_property(self, ba_physical):
        assert ExactOracle(ba_physical).physical is ba_physical


class TestOverlaySeamIsTransparent:
    """Routing Overlay costs through ExactOracle must not change a bit —
    same answers AND the same counter traffic as the direct engine calls
    the overlay historically made."""

    def test_default_overlay_oracle_is_exact(self, ba_physical):
        ov = Overlay(ba_physical, {0: 0, 1: 1})
        assert isinstance(ov.oracle, ExactOracle)
        assert ov.oracle.physical is ba_physical

    def test_costs_and_counters_match_direct_engine(self, rng, ba_physical):
        ov = small_world_overlay(ba_physical, 30, avg_degree=4, rng=rng)
        reset_counters()
        via_overlay = {(u, v): ov.cost(u, v) for u, v in ov.edges()}
        overlay_counters = counters.snapshot()
        reset_counters()
        direct = {
            (u, v): ba_physical.delay(ov.host_of(u), ov.host_of(v))
            if ov.host_of(u) != ov.host_of(v)
            else 0.0
            for u, v in via_overlay
        }
        assert via_overlay == direct
        # The seam adds no Dijkstra work and no oracle-counter noise.
        assert overlay_counters["oracle_estimates"] == 0
        assert overlay_counters["landmark_embed_sources"] == 0

    def test_copy_shares_the_oracle(self, rng, ba_physical):
        ov = small_world_overlay(ba_physical, 20, avg_degree=4, rng=rng)
        assert ov.copy().oracle is ov.oracle

    def test_foreign_oracle_rejected(self, grid_physical, ba_physical):
        with pytest.raises(ValueError):
            Overlay(ba_physical, oracle=ExactOracle(grid_physical))


class TestDelayPairsDefault:
    """The base-class pairwise fallback: grouped delays_from slices."""

    def test_exact_is_not_pairwise_cheap(self, ba_physical):
        assert not ExactOracle(ba_physical).pairwise_cheap

    def test_matches_vector_entries_exactly(self, rng, ba_physical):
        oracle = ExactOracle(ba_physical)
        hosts = ba_physical.largest_component_nodes()
        idx = rng.integers(0, len(hosts), size=(30, 2))
        us = [hosts[int(i)] for i, _ in idx]
        vs = [hosts[int(j)] for _, j in idx]
        got = oracle.delay_pairs(us, vs)
        want = np.array([oracle.delays_from(u)[v] for u, v in zip(us, vs)])
        assert np.array_equal(got, want)
