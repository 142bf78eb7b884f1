"""Unit tests for Phase-3 replacement — the four cases of Figure 4.

Costs are underlay shortest-path delays (a metric), so the Figure-4 cases
are constructed by *placing peers on hosts of a line underlay*: host index
differences are exact pairwise costs.
"""

import numpy as np
import pytest

from repro.core.ace import AceConfig
from repro.core.policies import ClosestPolicy, NaivePolicy, RandomPolicy
from repro.core.replacement import (
    MAX_PROBES_PER_TARGET,
    MIN_DEGREE,
    attempt_replacement,
)
from repro.core.turn import phase3
from repro.topology.physical import PhysicalTopology
from tests.reference.overlay import Overlay


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def line_underlay(n=16):
    return PhysicalTopology(
        n, [(i, i + 1) for i in range(n - 1)], [1.0] * (n - 1)
    )


def attempt(ov, source, target, policy, rng, allow_keep_both=True):
    """One attempt as a turn makes it: the source's row read once."""
    return attempt_replacement(
        ov, source, target, set(ov.neighbors(source)), ov.cost(source, target),
        policy, rng, allow_keep_both=allow_keep_both,
    )


def overlay_on_line(hosts, edges):
    """Peers placed on line hosts; pairwise cost == host distance."""
    ov = Overlay(line_underlay(), dict(enumerate(hosts)))
    for u, v in edges:
        ov.connect(u, v)
    return ov


class TestFigure4bReplace:
    def test_closer_candidate_replaces(self, rng):
        # S=0@0, C=1@10, H=2@1: d(S,H)=1 < d(S,C)=10.
        ov = overlay_on_line([0, 10, 1], [(0, 1), (1, 2)])
        action = attempt(ov, 0, 1, RandomPolicy(), rng)
        assert action.kind == "replace"
        assert action.candidate == 2
        assert ov.has_edge(0, 2)
        assert not ov.has_edge(0, 1)

    def test_connectivity_preserved(self, rng):
        ov = overlay_on_line([0, 10, 1], [(0, 1), (1, 2)])
        attempt(ov, 0, 1, RandomPolicy(), rng)
        assert ov.is_connected()

    def test_degree_neutral_for_source(self, rng):
        ov = overlay_on_line([0, 10, 1], [(0, 1), (1, 2)])
        before = ov.degree(0)
        action = attempt(ov, 0, 1, RandomPolicy(), rng)
        assert action.kind == "replace"
        assert ov.degree(0) == before

    def test_probe_cost_round_trip(self, rng):
        ov = overlay_on_line([0, 10, 1], [(0, 1), (1, 2)])
        action = attempt(ov, 0, 1, RandomPolicy(), rng)
        assert action.probes == 1
        assert action.probe_cost == pytest.approx(2 * 1.0)


class TestFigure4cKeepBoth:
    def test_adds_candidate_keeps_target(self, rng):
        # H=2@0, S=0@2, C=1@3: d(S,C)=1 <= d(S,H)=2 < d(C,H)=3.
        ov = overlay_on_line([2, 3, 0], [(0, 1), (1, 2)])
        action = attempt(ov, 0, 1, RandomPolicy(), rng)
        assert action.kind == "keep_both"
        assert action.candidate == 2
        assert ov.has_edge(0, 1)
        assert ov.has_edge(0, 2)

    def test_disabled_by_allow_keep_both(self, rng):
        ov = overlay_on_line([2, 3, 0], [(0, 1), (1, 2)])
        action = attempt(ov, 0, 1, RandomPolicy(), rng, allow_keep_both=False)
        assert action.kind == "none"
        assert not ov.has_edge(0, 2)


class TestTurnNeighborSet:
    """An attempt edits the turn's neighbor set as it edits the overlay."""

    @pytest.mark.parametrize(
        "hosts, kind", [([0, 10, 1], "replace"), ([2, 3, 0], "keep_both")]
    )
    def test_mine_follows_the_overlay(self, rng, hosts, kind):
        ov = overlay_on_line(hosts, [(0, 1), (1, 2)])
        mine = set(ov.neighbors(0))
        action = attempt_replacement(
            ov, 0, 1, mine, ov.cost(0, 1), RandomPolicy(), rng
        )
        assert action.kind == kind
        assert mine == set(ov.neighbors(0))


class TestFigure4dNoChange:
    def test_far_candidate_ignored(self, rng):
        # S=0@0, C=1@5, H=2@9: d(S,H)=9 >= d(S,C)=5, d(S,H)=9 >= d(C,H)=4.
        ov = overlay_on_line([0, 5, 9], [(0, 1), (1, 2)])
        action = attempt(ov, 0, 1, RandomPolicy(), rng)
        assert action.kind == "none"
        assert ov.has_edge(0, 1)
        assert not ov.has_edge(0, 2)

    def test_probes_are_charged_even_on_none(self, rng):
        ov = overlay_on_line([0, 5, 9], [(0, 1), (1, 2)])
        action = attempt(ov, 0, 1, RandomPolicy(), rng)
        assert action.probes == 1
        assert action.probe_cost == pytest.approx(2 * 9.0)


class TestGuards:
    def test_no_edge_to_target_is_noop(self, rng):
        # A target that is no longer a neighbor is never attempted.
        ov = overlay_on_line([0, 10, 1], [(1, 2), (0, 2)])
        turn = phase3(ov, 0, [1], AceConfig(), 2, RandomPolicy(), rng)
        assert turn == ([], [])
        assert not ov.has_edge(0, 1)

    def test_no_candidates_is_noop(self, rng):
        ov = overlay_on_line([0, 10], [(0, 1)])
        action = attempt(ov, 0, 1, RandomPolicy(), rng)
        assert action.kind == "none"
        assert action.probes == 0

    def test_target_keeps_candidate_link_after_cut(self, rng):
        ov = overlay_on_line([0, 10, 1], [(0, 1), (1, 2)])
        # C drops to degree 1, below MIN_DEGREE, but keeps H as a neighbor.
        action = attempt(ov, 0, 1, RandomPolicy(), rng)
        assert action.kind == "replace"
        assert ov.has_edge(1, 2)  # C keeps H: connectivity via S-H-C

    def test_cut_skipped_below_min_degree(self, rng):
        # The naive policy's candidate H=2 is not C's neighbor, and C=1
        # (neighbors 0 and 3) would fall to degree 1 < MIN_DEGREE.
        ov = overlay_on_line([0, 10, 1, 12], [(0, 1), (1, 3), (0, 3)])
        action = attempt(ov, 0, 1, NaivePolicy(), rng)
        assert MIN_DEGREE == 2
        assert action.kind == "none"
        assert action.probes == 1
        assert ov.has_edge(0, 1) and not ov.has_edge(0, 2)

    def test_probe_budget_respected(self, rng):
        # Target 1 has three unattractive neighbors; the random policy
        # probes MAX_PROBES_PER_TARGET of them.
        ov = overlay_on_line(
            [0, 2, 9, 10, 11], [(0, 1), (1, 2), (1, 3), (1, 4)]
        )
        action = attempt(ov, 0, 1, RandomPolicy(), rng)
        assert action.kind == "none"
        assert action.probes == MAX_PROBES_PER_TARGET == 1

    def test_candidate_already_connected_excluded(self, rng):
        ov = overlay_on_line([0, 10, 1], [(0, 1), (1, 2), (0, 2)])
        # H=2 is already S's neighbor, so there is nothing to probe.
        action = attempt(ov, 0, 1, RandomPolicy(), rng)
        assert action.kind == "none"
        assert action.probes == 0


class TestClosestPolicyAccounting:
    def test_full_pool_charged_best_candidate_chosen(self, rng):
        # Candidates at hosts 1, 3, 4 -> costs 1, 3, 4 from S@0.
        ov = overlay_on_line(
            [0, 10, 1, 3, 4], [(0, 1), (1, 2), (1, 3), (1, 4)]
        )
        action = attempt(ov, 0, 1, ClosestPolicy(), rng)
        assert action.probes == 3
        assert action.probe_cost == pytest.approx(2 * (1 + 3 + 4))
        assert action.kind == "replace"
        assert action.candidate == 2  # the closest (cost 1)
