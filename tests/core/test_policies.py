"""Unit tests for Phase-3 candidate policies."""

import numpy as np
import pytest

from repro.core.policies import (
    ClosestPolicy,
    NaivePolicy,
    RandomPolicy,
    make_policy,
)


@pytest.fixture
def overlay(make_overlay_from_weighted_edges):
    """Source 0 with neighbors 1 (far) and 2 (near); 1 has neighbors 3, 4, 5."""
    return make_overlay_from_weighted_edges(
        [
            (0, 1, 50.0),
            (0, 2, 5.0),
            (1, 3, 4.0),
            (1, 4, 6.0),
            (1, 5, 8.0),
            (2, 5, 9.0),
        ]
    )


@pytest.fixture
def rng():
    return np.random.default_rng(3)


class TestMakePolicy:
    def test_by_name(self):
        assert isinstance(make_policy("random"), RandomPolicy)
        assert isinstance(make_policy("closest"), ClosestPolicy)
        assert isinstance(make_policy("naive"), NaivePolicy)

    def test_passthrough_instance(self):
        policy = RandomPolicy()
        assert make_policy(policy) is policy

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("bogus")


class TestTargets:
    def test_default_most_expensive_first(self, overlay, rng):
        policy = RandomPolicy()
        targets = policy.targets(overlay, 0, [1, 2], rng)
        assert targets == [1, 2]  # cost(0,1)=50 > cost(0,2)=5

    def test_naive_picks_single_worst(self, overlay, rng):
        policy = NaivePolicy()
        assert policy.targets(overlay, 0, [1, 2], rng) == [1]

    def test_naive_empty(self, overlay, rng):
        assert NaivePolicy().targets(overlay, 0, [], rng) == []


class TestEligibility:
    def test_excludes_source_and_existing_neighbors(self, overlay, rng):
        policy = RandomPolicy()
        # Candidates for target 1 are 1's neighbors minus {0} and 0's
        # neighbors: {3, 4, 5} (0 itself excluded automatically).
        pool = policy._eligible(overlay, 0, 1)
        assert pool == [3, 4, 5]

    def test_excludes_current_neighbors_of_source(self, overlay, rng):
        overlay.connect(0, 3)
        pool = RandomPolicy()._eligible(overlay, 0, 1)
        assert pool == [4, 5]


class TestRandomPolicy:
    def test_respects_limit(self, overlay, rng):
        cands = RandomPolicy().candidates(overlay, 0, 1, rng, limit=2)
        assert len(cands) == 2
        assert set(cands) <= {3, 4, 5}

    def test_limit_larger_than_pool(self, overlay, rng):
        cands = RandomPolicy().candidates(overlay, 0, 1, rng, limit=10)
        assert sorted(cands) == [3, 4, 5]

    def test_no_candidates(self, overlay, rng):
        # Target 2's only other neighbor is 5; once 0 connects to it the
        # pool is empty.
        overlay.connect(0, 5)
        assert RandomPolicy().candidates(overlay, 0, 2, rng, limit=3) == []

    def test_randomized_but_seed_deterministic(self, overlay):
        a = RandomPolicy().candidates(
            overlay, 0, 1, np.random.default_rng(5), limit=1
        )
        b = RandomPolicy().candidates(
            overlay, 0, 1, np.random.default_rng(5), limit=1
        )
        assert a == b


class TestClosestPolicy:
    def test_orders_by_cost(self, overlay, rng):
        cands = ClosestPolicy().candidates(overlay, 0, 1, rng, limit=1)
        costs = [overlay.cost(0, c) for c in cands]
        assert costs == sorted(costs)
        assert set(cands) == {3, 4, 5}

    def test_probes_charged_is_whole_pool(self, overlay, rng):
        assert ClosestPolicy().probes_charged(overlay, 0, 1) == [3, 4, 5]


class TestNaivePolicy:
    def test_candidates_anywhere(self, overlay, rng):
        cands = NaivePolicy().candidates(overlay, 0, 1, rng, limit=10)
        # Anyone except 0 and its neighbors {1, 2}.
        assert set(cands) == {3, 4, 5}

    def test_limit(self, overlay, rng):
        assert len(NaivePolicy().candidates(overlay, 0, 1, rng, limit=2)) == 2

    def test_empty_pool(self, grid_physical, rng):
        from repro.topology.overlay import Overlay

        ov = Overlay(grid_physical, {0: 0, 1: 1})
        ov.connect(0, 1)
        assert NaivePolicy().candidates(ov, 0, 1, rng, limit=3) == []
