"""Unit tests for k-walker random-walk search."""

import numpy as np
import pytest

from repro.search.flooding import blind_flooding_strategy, propagate
from repro.search.random_walk import random_walk_query
from repro.topology.overlay import small_world_overlay


@pytest.fixture
def chain(make_overlay_from_weighted_edges):
    return make_overlay_from_weighted_edges(
        [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]
    )


class TestValidation:
    def test_unknown_source(self, chain):
        with pytest.raises(KeyError):
            random_walk_query(chain, 99, [], np.random.default_rng(0))

    def test_zero_walkers(self, chain):
        with pytest.raises(ValueError):
            random_walk_query(chain, 0, [], np.random.default_rng(0), walkers=0)


class TestWalkMechanics:
    def test_chain_walk_finds_end(self, chain):
        result = random_walk_query(
            chain, 0, [3], np.random.default_rng(0), walkers=1, max_hops=10
        )
        # A non-backtracking walker on a chain marches straight to the end.
        assert result.success
        assert result.first_response_time == pytest.approx(6.0)
        assert result.holders_reached == (3,)

    def test_hop_budget_respected(self, chain):
        result = random_walk_query(
            chain, 0, [3], np.random.default_rng(0), walkers=1, max_hops=2
        )
        assert not result.success
        assert result.messages <= 2

    def test_traffic_equals_walk_cost(self, chain):
        result = random_walk_query(
            chain, 0, [], np.random.default_rng(0), walkers=1, max_hops=3
        )
        assert result.traffic_cost == pytest.approx(3.0)
        assert result.messages == 3

    def test_more_walkers_more_coverage(self, ba_physical):
        ov = small_world_overlay(
            ba_physical, 40, avg_degree=6, rng=np.random.default_rng(1)
        )
        few = random_walk_query(
            ov, 0, [], np.random.default_rng(2), walkers=1, max_hops=8,
        )
        many = random_walk_query(
            ov, 0, [], np.random.default_rng(2), walkers=8, max_hops=8,
        )
        assert many.search_scope >= few.search_scope
        assert many.messages > few.messages

    def test_stop_on_hit(self, chain):
        greedy = random_walk_query(
            chain, 0, [1], np.random.default_rng(0), walkers=1, max_hops=10,
            stop_on_hit=True,
        )
        assert greedy.messages == 1

    def test_isolated_source(self, grid_physical):
        from repro.topology.overlay import Overlay

        ov = Overlay(grid_physical, {0: 0})
        result = random_walk_query(ov, 0, [], np.random.default_rng(0))
        assert result.search_scope == 1
        assert result.traffic_cost == 0.0

    def test_deterministic_per_seed(self, ba_physical):
        ov = small_world_overlay(
            ba_physical, 30, avg_degree=6, rng=np.random.default_rng(1)
        )
        a = random_walk_query(ov, 0, [5], np.random.default_rng(9), walkers=4)
        b = random_walk_query(ov, 0, [5], np.random.default_rng(9), walkers=4)
        assert a.traffic_cost == b.traffic_cost
        assert a.reached == b.reached


class TestVersusFlooding:
    def test_walks_use_less_traffic_than_flooding(self, ba_physical):
        ov = small_world_overlay(
            ba_physical, 40, avg_degree=8, rng=np.random.default_rng(3)
        )
        flood = propagate(ov, 0, blind_flooding_strategy(ov), ttl=None)
        walk = random_walk_query(
            ov, 0, [], np.random.default_rng(4), walkers=4, max_hops=16
        )
        assert walk.traffic_cost < flood.traffic_cost
        # ... at the price of partial coverage.
        assert walk.search_scope < flood.search_scope
