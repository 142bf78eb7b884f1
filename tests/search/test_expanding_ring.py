"""Unit tests for expanding-ring (iterative deepening) search."""

import pytest

from repro.search.expanding_ring import (
    DEFAULT_TTL_SCHEDULE,
    expanding_ring_query,
)
from repro.search.flooding import blind_flooding_strategy, propagate
from tests.reference import array_twin
from tests.reference.search import run_query


@pytest.fixture
def chain(make_overlay_from_weighted_edges):
    return make_overlay_from_weighted_edges(
        [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)]
    )


def rings(overlay, source, holders, **kwargs):
    """Expanding-ring search flooding *overlay*, on its array twin (the
    kernel lowers only arrays); the heap comparisons below run on *overlay*."""
    twin = array_twin(overlay)
    return expanding_ring_query(
        twin, source, blind_flooding_strategy(twin), holders, **kwargs
    )


class TestValidation:
    def test_empty_schedule(self, chain):
        with pytest.raises(ValueError):
            rings(chain, 0, [], ttl_schedule=())

    def test_non_increasing_schedule(self, chain):
        with pytest.raises(ValueError):
            rings(chain, 0, [], ttl_schedule=(2, 1))

    def test_default_schedule_shape(self):
        assert DEFAULT_TTL_SCHEDULE == (1, 2, 4, 7)


class TestRings:
    def test_nearby_object_found_in_first_ring(self, chain):
        result = rings(chain, 0, [1])
        assert result.rounds == 1
        assert result.ttl_used == 1
        assert result.first_response_time == pytest.approx(2.0)

    def test_far_object_needs_deeper_ring(self, chain):
        result = rings(chain, 0, [4])
        assert result.rounds == 3  # TTLs 1, 2 fail; 4 succeeds
        assert result.ttl_used == 4
        assert result.holders_reached == (4,)

    def test_failed_rings_add_waiting_time(self, chain):
        result = rings(chain, 0, [4], round_trip_wait=5.0)
        # Two failed rings (diameters 1 and 2) plus the hit at distance 4:
        # elapsed = (2*1 + 5) + (2*2 + 5) + 2*4.
        assert result.first_response_time == pytest.approx(7 + 9 + 8)

    def test_unfound_object(self, chain):
        result = rings(chain, 0, [], ttl_schedule=(1, 2))
        assert not result.success
        assert result.ttl_used is None
        assert result.rounds == 2

    def test_traffic_accumulates_across_rings(self, chain):
        strategy = blind_flooding_strategy(chain)
        result = rings(chain, 0, [4])
        ring_costs = [
            propagate(chain, 0, strategy, ttl=t).traffic_cost for t in (1, 2, 4)
        ]
        assert result.traffic_cost == pytest.approx(sum(ring_costs))


class TestTradeoffs:
    def test_cheaper_than_full_flood_for_nearby_objects(self, chain):
        strategy = blind_flooding_strategy(chain)
        ring = rings(chain, 0, [1])
        flood = run_query(chain, 0, strategy, [1], ttl=None)
        assert ring.traffic_cost < flood.traffic_cost

    def test_costlier_than_full_flood_for_rare_objects(self, chain):
        strategy = blind_flooding_strategy(chain)
        ring = rings(chain, 0, [4])
        flood = run_query(chain, 0, strategy, [4], ttl=None)
        assert ring.traffic_cost > flood.traffic_cost
