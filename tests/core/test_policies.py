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

    def test_instance_is_not_a_name(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy(RandomPolicy())

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("bogus")


def row(overlay, source):
    """The source's link costs, as a turn reads them: one sweep."""
    return overlay.costs_from(source, sorted(overlay.neighbors(source)))


def pool(policy, overlay, source, target):
    """The candidate pool for *target*, from the two neighbor sets."""
    return policy.pool(
        source, overlay.neighbors(source), overlay.neighbors(target), overlay.peers
    )


class TestTargets:
    def test_default_most_expensive_first(self, overlay, rng):
        policy = RandomPolicy()
        targets = policy.targets([1, 2], row(overlay, 0))
        assert targets == [1, 2]  # cost(0,1)=50 > cost(0,2)=5

    def test_naive_picks_single_worst(self, overlay, rng):
        policy = NaivePolicy()
        assert policy.targets([1, 2], row(overlay, 0)) == [1]

    def test_naive_empty(self, overlay, rng):
        assert NaivePolicy().targets([], row(overlay, 0)) == []


class TestEligibility:
    def test_excludes_source_and_existing_neighbors(self, overlay, rng):
        # Candidates for target 1 are 1's neighbors minus {0} and 0's
        # neighbors: {3, 4, 5} (0 itself excluded automatically).
        assert pool(RandomPolicy(), overlay, 0, 1) == [3, 4, 5]

    def test_excludes_current_neighbors_of_source(self, overlay, rng):
        overlay.connect(0, 3)
        assert pool(RandomPolicy(), overlay, 0, 1) == [4, 5]


class TestRandomPolicy:
    def test_respects_limit(self, overlay, rng):
        cands = RandomPolicy().probe(pool(RandomPolicy(), overlay, 0, 1), rng, 2)
        assert len(cands) == 2
        assert set(cands) <= {3, 4, 5}

    def test_limit_larger_than_pool(self, overlay, rng):
        cands = RandomPolicy().probe(pool(RandomPolicy(), overlay, 0, 1), rng, 10)
        assert sorted(cands) == [3, 4, 5]

    def test_no_candidates(self, overlay, rng):
        # Target 2's only other neighbor is 5; once 0 connects to it the
        # pool is empty.
        overlay.connect(0, 5)
        assert pool(RandomPolicy(), overlay, 0, 2) == []
        assert RandomPolicy().probe([], rng, 3) == []

    def test_randomized_but_seed_deterministic(self, overlay):
        candidates = pool(RandomPolicy(), overlay, 0, 1)
        a = RandomPolicy().probe(candidates, np.random.default_rng(5), 1)
        b = RandomPolicy().probe(candidates, np.random.default_rng(5), 1)
        assert a == b


class TestClosestPolicy:
    def test_orders_by_cost(self, overlay, rng):
        # The closest policy probes the whole pool; the engine tries the
        # cheapest first (test_replacement.TestClosestPolicyAccounting).
        cands = ClosestPolicy().probe(pool(ClosestPolicy(), overlay, 0, 1), rng, 1)
        assert cands == [3, 4, 5]

    def test_probes_charged_is_whole_pool(self, overlay, rng):
        state = rng.bit_generator.state
        assert ClosestPolicy().probe([3, 4, 5], rng, 1) == [3, 4, 5]
        assert rng.bit_generator.state == state  # draws nothing


class TestNaivePolicy:
    def test_candidates_anywhere(self, overlay, rng):
        cands = NaivePolicy().probe(pool(NaivePolicy(), overlay, 0, 1), rng, 10)
        # Anyone except 0 and its neighbors {1, 2}.
        assert set(cands) == {3, 4, 5}

    def test_limit(self, overlay, rng):
        cands = NaivePolicy().probe(pool(NaivePolicy(), overlay, 0, 1), rng, 2)
        assert len(cands) == 2

    def test_empty_pool(self, grid_physical, rng):
        from tests.reference.overlay import Overlay

        ov = Overlay(grid_physical, {0: 0, 1: 1})
        ov.connect(0, 1)
        assert pool(NaivePolicy(), ov, 0, 1) == []


@pytest.mark.parametrize("seed", range(40))
def test_one_candidate_draw_is_the_one_element_choice(seed):
    """``rng.integers(n)`` returns ``rng.choice(n, 1, replace=False)``'s
    index and leaves the generator where it left it — the one-candidate
    draw of :meth:`~repro.core.policies.RandomPolicy.probe` depends on
    both."""
    sizes = list(range(1, 50)) + [64, 100, 1000, 8000, 10_001, 70_000]
    fast = np.random.default_rng(seed)
    slow = np.random.default_rng(seed)
    for n in sizes * 4:
        assert int(fast.integers(n)) == int(slow.choice(n, 1, replace=False)[0])
        assert fast.bit_generator.state == slow.bit_generator.state
    pool = list(range(100, 160))
    assert RandomPolicy().probe(pool, fast, 1) == [
        pool[int(slow.choice(60, 1, replace=False)[0])]
    ]
    assert fast.bit_generator.state == slow.bit_generator.state
