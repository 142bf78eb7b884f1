"""Unit tests for Hybrid Periodical Flooding."""

import numpy as np
import pytest

from repro.extensions.hpf import HPF_WEIGHTINGS, hpf_strategy
from repro.search.flooding import blind_flooding_strategy, propagate
from repro.topology.overlay import small_world_overlay


@pytest.fixture
def star(make_overlay_from_weighted_edges):
    return make_overlay_from_weighted_edges(
        [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 3.0), (0, 4, 4.0), (0, 5, 5.0)]
    )


class TestValidation:
    def test_bad_fraction(self, star):
        with pytest.raises(ValueError):
            hpf_strategy(star, np.random.default_rng(0), fraction=0.0)
        with pytest.raises(ValueError):
            hpf_strategy(star, np.random.default_rng(0), fraction=1.5)

    def test_bad_min_neighbors(self, star):
        with pytest.raises(ValueError):
            hpf_strategy(star, np.random.default_rng(0), min_neighbors=0)

    def test_bad_weighting(self, star):
        with pytest.raises(ValueError):
            hpf_strategy(star, np.random.default_rng(0), weighting="bogus")

    def test_weighting_registry(self):
        assert HPF_WEIGHTINGS == ("random", "degree", "cost")


class TestSubsetSelection:
    def test_fraction_controls_subset_size(self, star):
        strategy = hpf_strategy(
            star, np.random.default_rng(0), fraction=0.4, min_neighbors=1
        )
        targets = list(strategy(0, None))
        assert len(targets) == 2  # ceil(0.4 * 5)

    def test_min_neighbors_floor(self, star):
        strategy = hpf_strategy(
            star, np.random.default_rng(0), fraction=0.01, min_neighbors=3
        )
        assert len(list(strategy(0, None))) == 3

    def test_full_fraction_returns_everyone(self, star):
        strategy = hpf_strategy(star, np.random.default_rng(0), fraction=1.0)
        assert sorted(strategy(0, None)) == [1, 2, 3, 4, 5]

    def test_excludes_sender(self, star):
        strategy = hpf_strategy(star, np.random.default_rng(0), fraction=1.0)
        assert 3 not in strategy(0, 3)

    def test_leaf_keeps_its_only_link(self, star):
        strategy = hpf_strategy(star, np.random.default_rng(0), fraction=0.5)
        assert list(strategy(1, None)) == [0]

    @pytest.mark.parametrize("weighting", HPF_WEIGHTINGS)
    def test_all_weightings_produce_valid_subsets(self, star, weighting):
        strategy = hpf_strategy(
            star, np.random.default_rng(1), fraction=0.5, weighting=weighting
        )
        targets = list(strategy(0, None))
        assert len(set(targets)) == len(targets)
        assert set(targets) <= {1, 2, 3, 4, 5}

    def test_cost_weighting_prefers_cheap_links(self, star):
        rng = np.random.default_rng(7)
        strategy = hpf_strategy(
            star, rng, fraction=0.2, min_neighbors=1, weighting="cost"
        )
        counts = {n: 0 for n in (1, 2, 3, 4, 5)}
        for _ in range(400):
            for t in strategy(0, None):
                counts[t] += 1
        assert counts[1] > counts[5]


class TestEndToEnd:
    def test_partial_flooding_trades_scope_for_traffic(self, ba_physical):
        ov = small_world_overlay(
            ba_physical, 50, avg_degree=8, rng=np.random.default_rng(2)
        )
        full = propagate(ov, 0, blind_flooding_strategy(ov), ttl=None)
        partial = propagate(
            ov, 0,
            hpf_strategy(ov, np.random.default_rng(3), fraction=0.4),
            ttl=None,
        )
        assert partial.traffic_cost < full.traffic_cost
        assert partial.search_scope <= full.search_scope
        # Coverage stays substantial (the "hybrid" point of HPF).
        assert partial.search_scope > 0.5 * full.search_scope
