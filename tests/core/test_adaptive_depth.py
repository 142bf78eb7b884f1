"""Unit tests for adaptive closure-depth selection."""

import numpy as np
import pytest

from repro.core.adaptive_depth import (
    AdaptiveAceProtocol,
    DepthAdvisor,
    FrequencyEstimator,
)
from repro.metrics.optimization import OptimizationTradeoff
from repro.topology.overlay import small_world_overlay
from repro.topology.soa import UNLABELLED


def tradeoff(depth, saving, overhead):
    return OptimizationTradeoff(
        depth=depth,
        avg_degree=6.0,
        baseline_traffic_per_query=100.0,
        optimized_traffic_per_query=100.0 - saving,
        overhead_per_reconstruction=overhead,
    )


@pytest.fixture
def advisor():
    # rate(h, R) = R * saving / overhead:
    # h=1: R*0.5, h=2: R*0.8, h=3: R*0.6.
    return DepthAdvisor([
        tradeoff(1, saving=25.0, overhead=50.0),
        tradeoff(2, saving=40.0, overhead=50.0),
        tradeoff(3, saving=45.0, overhead=75.0),
    ])


class TestDepthAdvisor:
    def test_requires_measurements(self):
        with pytest.raises(ValueError):
            DepthAdvisor([])

    def test_depths(self, advisor):
        assert advisor.depths == [1, 2, 3]

    def test_best_depth(self, advisor):
        best, rate = advisor.best_depth(2.0)
        assert best == 2
        assert rate == pytest.approx(1.6)

    def test_best_depth_tie_prefers_shallower(self):
        adv = DepthAdvisor([
            tradeoff(1, saving=40.0, overhead=50.0),
            tradeoff(2, saving=40.0, overhead=50.0),
        ])
        best, _rate = adv.best_depth(1.0)
        assert best == 1

    def test_minimal_profitable_depth(self, advisor):
        # rate > 1 needs R*0.5 > 1 at h=1 (R > 2) or R*0.8 > 1 at h=2.
        assert advisor.minimal_profitable_depth(1.0) is None
        assert advisor.minimal_profitable_depth(1.5) == 2
        assert advisor.minimal_profitable_depth(3.0) == 1

    def test_recommend_parks_when_unprofitable(self, advisor):
        assert advisor.recommend(0.5) is None
        assert advisor.recommend(2.0) == 2


class TestFrequencyEstimator:
    def test_default_until_observed(self):
        est = FrequencyEstimator(default_ratio=1.5)
        assert est.frequency_ratio == 1.5
        est.observe_query(0.0)
        assert est.frequency_ratio == 1.5  # still no changes observed

    def test_ratio_tracks_event_rates(self):
        est = FrequencyEstimator(half_life=100.0)
        for t in range(100):
            est.observe_query(float(t), count=4)
            est.observe_change(float(t), count=2)
        assert est.frequency_ratio == pytest.approx(2.0, rel=0.05)

    def test_decay_forgets_old_regime(self):
        est = FrequencyEstimator(half_life=10.0)
        for t in range(50):
            est.observe_query(float(t), count=10)
            est.observe_change(float(t), count=1)
        # Regime change: queries stop, churn continues.
        for t in range(50, 150):
            est.observe_change(float(t), count=1)
        assert est.frequency_ratio < 1.0

    def test_half_life_validation(self):
        with pytest.raises(ValueError):
            FrequencyEstimator(half_life=0.0)

    def test_time_never_goes_backward(self):
        est = FrequencyEstimator()
        est.observe_query(10.0)
        est.observe_change(5.0)  # clock skew: treated as dt = 0
        assert est.frequency_ratio > 0


class TestAdaptiveProtocol:
    @pytest.fixture
    def world(self, ba_physical):
        return small_world_overlay(
            ba_physical, 30, avg_degree=6, rng=np.random.default_rng(19)
        )

    def test_parks_when_unprofitable(self, world, advisor):
        protocol = AdaptiveAceProtocol(
            world, advisor, rng=np.random.default_rng(0)
        )
        protocol.estimator.observe_query(0.0, count=1)
        protocol.estimator.observe_change(0.0, count=10)  # R << 1
        edges_before = sorted(world.edges())
        report = protocol.step()
        assert protocol.parked_steps == 1
        assert report.replacements == 0
        assert sorted(world.edges()) == edges_before
        # Trees are still fresh for routing: every link is labelled.
        labels, broken = world.link_labels(world.peers()[0])
        assert UNLABELLED not in labels.values() and not broken

    def test_optimizes_at_recommended_depth(self, world, advisor):
        protocol = AdaptiveAceProtocol(
            world, advisor, rng=np.random.default_rng(0)
        )
        for t in range(20):
            protocol.estimator.observe_query(float(t), count=4)
            protocol.estimator.observe_change(float(t), count=2)
        protocol.step()
        assert protocol.depth_history == [2]
        assert protocol.config.depth == 2
        assert protocol.parked_steps == 0

    def test_depth_follows_regime_change(self, world, advisor):
        protocol = AdaptiveAceProtocol(
            world, advisor, rng=np.random.default_rng(0)
        )
        for t in range(20):
            protocol.estimator.observe_query(float(t), count=2)
            protocol.estimator.observe_change(float(t), count=1)
        protocol.step()  # R ~ 2 -> depth 2
        for t in range(20, 200):
            protocol.estimator.observe_query(float(t), count=4)
            protocol.estimator.observe_change(float(t), count=1)
        protocol.step()  # R ~ 4 -> h=1 rate 2.0, h=2 rate 3.2 -> still 2
        assert protocol.depth_history[0] == 2
        best, _ = advisor.best_depth(protocol.estimator.frequency_ratio)
        assert protocol.depth_history[-1] == best

    def test_scope_preserved_through_adaptation(self, world, advisor):
        from repro.search.flooding import propagate
        from repro.search.tree_routing import ace_strategy

        protocol = AdaptiveAceProtocol(
            world, advisor, rng=np.random.default_rng(0)
        )
        for t in range(20):
            protocol.estimator.observe_query(float(t), count=4)
            protocol.estimator.observe_change(float(t), count=1)
        protocol.step()
        protocol.step()
        prop = propagate(world, world.peers()[0], ace_strategy(protocol), ttl=None)
        assert prop.reached == set(world.peers())
