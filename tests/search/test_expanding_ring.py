"""Unit tests for expanding-ring (iterative deepening) search."""

import pytest

from repro.search.expanding_ring import (
    DEFAULT_TTL_SCHEDULE,
    expanding_ring_query,
)
from repro.search.flooding import blind_flooding_strategy, propagate, run_query


@pytest.fixture
def chain(make_overlay_from_weighted_edges):
    return make_overlay_from_weighted_edges(
        [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)]
    )


class TestValidation:
    def test_empty_schedule(self, chain):
        with pytest.raises(ValueError):
            expanding_ring_query(
                chain, 0, blind_flooding_strategy(chain), [], ttl_schedule=()
            )

    def test_non_increasing_schedule(self, chain):
        with pytest.raises(ValueError):
            expanding_ring_query(
                chain, 0, blind_flooding_strategy(chain), [],
                ttl_schedule=(2, 1),
            )

    def test_default_schedule_shape(self):
        assert DEFAULT_TTL_SCHEDULE == (1, 2, 4, 7)


class TestRings:
    def test_nearby_object_found_in_first_ring(self, chain):
        result = expanding_ring_query(
            chain, 0, blind_flooding_strategy(chain), [1]
        )
        assert result.rounds == 1
        assert result.ttl_used == 1
        assert result.first_response_time == pytest.approx(2.0)

    def test_far_object_needs_deeper_ring(self, chain):
        result = expanding_ring_query(
            chain, 0, blind_flooding_strategy(chain), [4]
        )
        assert result.rounds == 3  # TTLs 1, 2 fail; 4 succeeds
        assert result.ttl_used == 4
        assert result.holders_reached == (4,)

    def test_failed_rings_add_waiting_time(self, chain):
        result = expanding_ring_query(
            chain, 0, blind_flooding_strategy(chain), [4], round_trip_wait=5.0
        )
        # Two failed rings (diameters 1 and 2) plus the hit at distance 4:
        # elapsed = (2*1 + 5) + (2*2 + 5) + 2*4.
        assert result.first_response_time == pytest.approx(7 + 9 + 8)

    def test_unfound_object(self, chain):
        result = expanding_ring_query(
            chain, 0, blind_flooding_strategy(chain), [],
            ttl_schedule=(1, 2),
        )
        assert not result.success
        assert result.ttl_used is None
        assert result.rounds == 2

    def test_traffic_accumulates_across_rings(self, chain):
        strategy = blind_flooding_strategy(chain)
        result = expanding_ring_query(chain, 0, strategy, [4])
        ring_costs = [
            propagate(chain, 0, strategy, ttl=t).traffic_cost for t in (1, 2, 4)
        ]
        assert result.traffic_cost == pytest.approx(sum(ring_costs))


class TestTradeoffs:
    def test_cheaper_than_full_flood_for_nearby_objects(self, chain):
        strategy = blind_flooding_strategy(chain)
        ring = expanding_ring_query(chain, 0, strategy, [1])
        flood = run_query(chain, 0, strategy, [1], ttl=None)
        assert ring.traffic_cost < flood.traffic_cost

    def test_costlier_than_full_flood_for_rare_objects(self, chain):
        strategy = blind_flooding_strategy(chain)
        ring = expanding_ring_query(chain, 0, strategy, [4])
        flood = run_query(chain, 0, strategy, [4], ttl=None)
        assert ring.traffic_cost > flood.traffic_cost
