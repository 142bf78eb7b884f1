"""LandmarkOracle: triangle bounds, midpoint estimates, pairwise path."""

import math

import numpy as np
import pytest

from repro.oracle.landmark import LandmarkOracle
from repro.oracle import landmark as landmark_module
from repro.perf import counters, reset_counters
from repro.topology.generators import waxman
from repro.topology.physical import PhysicalTopology


def sample_pairs(physical, rng, n):
    hosts = physical.largest_component_nodes()
    idx = rng.integers(0, len(hosts), size=(n, 2))
    return [(hosts[int(i)], hosts[int(j)]) for i, j in idx if i != j]


class TestTriangleBounds:
    def test_bounds_bracket_exact_delay(self, rng, ba_physical):
        oracle = LandmarkOracle(ba_physical, n_landmarks=8, rng=rng)
        for u, v in sample_pairs(ba_physical, rng, 100):
            lower, upper = oracle.bounds(u, v)
            true = ba_physical.delay(u, v)
            assert lower <= true + 1e-9
            assert true <= upper + 1e-9

    def test_bounds_identity_pair(self, rng, ba_physical):
        oracle = LandmarkOracle(ba_physical, n_landmarks=4, rng=rng)
        host = ba_physical.largest_component_nodes()[0]
        assert oracle.bounds(host, host) == (0.0, 0.0)

    def test_estimate_is_the_bracket_midpoint(self, rng, ba_physical):
        oracle = LandmarkOracle(ba_physical, n_landmarks=6, rng=rng)
        for u, v in sample_pairs(ba_physical, rng, 50):
            lower, upper = oracle.bounds(u, v)
            assert lower <= upper
            assert oracle.delay(u, v) == 0.5 * (lower + upper)


class TestAccuracyAtPaperishScale:
    """The error docs/ORACLES.md tabulates: k=16 on a 1,000-node Waxman graph."""

    @pytest.fixture(scope="class")
    def waxman_1000(self):
        return waxman(1000, rng=np.random.default_rng(11))

    def test_midpoint_median_relative_error_under_threshold(self, waxman_1000):
        oracle = LandmarkOracle(
            waxman_1000, n_landmarks=16, rng=np.random.default_rng(2)
        )
        pairs = sample_pairs(waxman_1000, np.random.default_rng(0xACC0), 256)
        us, vs = (list(side) for side in zip(*pairs))
        true = np.array([waxman_1000.delays_from(u)[v] for u, v in pairs])
        error = np.median(np.abs(oracle.delay_pairs(us, vs) - true) / true)
        # Measured 0.08 at this seed; 0.15 leaves headroom for numeric
        # drift without letting quality regress far.
        assert error < 0.15


class TestSelectionStrategies:
    def test_deterministic_per_strategy(self, ba_physical):
        a = LandmarkOracle(
            ba_physical, n_landmarks=6, rng=np.random.default_rng(7)
        )
        b = LandmarkOracle(
            ba_physical, n_landmarks=6, rng=np.random.default_rng(7)
        )
        assert a.landmarks == b.landmarks
        assert np.array_equal(a.embedding, b.embedding)

    def test_maxmin_landmarks_distinct_and_spread(self, rng, ba_physical):
        oracle = LandmarkOracle(ba_physical, n_landmarks=8, rng=rng)
        assert len(set(oracle.landmarks)) == 8
        # Every landmark after the first is at positive delay from the rest.
        for i, lm in enumerate(oracle.landmarks[1:], start=1):
            others = oracle.landmarks[:i]
            assert min(oracle.embedding[j][lm] for j in range(i)) > 0 or (
                lm not in others
            )

    def test_invalid_construction(self, ba_physical):
        with pytest.raises(ValueError):
            LandmarkOracle(ba_physical, n_landmarks=0)


class TestVectorAndScalarAgree:
    def test_vector_matches_scalar_midpoint(self, rng, ba_physical):
        oracle = LandmarkOracle(ba_physical, n_landmarks=6, rng=rng)
        src = ba_physical.largest_component_nodes()[0]
        vec = oracle.delays_from(src)
        assert vec[src] == 0.0
        assert not np.isnan(vec).any()
        for v in ba_physical.largest_component_nodes()[1:20]:
            assert vec[v] == oracle.delay(src, v)

    def test_targets_slice(self, rng, ba_physical):
        oracle = LandmarkOracle(ba_physical, n_landmarks=4, rng=rng)
        hosts = ba_physical.largest_component_nodes()
        sliced = oracle.delays_from(hosts[0], [hosts[3], hosts[1]])
        full = oracle.delays_from(hosts[0])
        assert list(sliced) == [full[hosts[3]], full[hosts[1]]]

    def test_no_dijkstra_after_construction(self, rng, ba_physical):
        oracle = LandmarkOracle(ba_physical, n_landmarks=4, rng=rng)
        hosts = ba_physical.largest_component_nodes()[:10]
        reset_counters()
        oracle.delays_from_many(hosts)
        for u in hosts[:3]:
            for v in hosts[3:6]:
                oracle.delay(u, v)
        assert counters.dijkstra_runs == 0
        assert counters.dijkstra_sources == 0

    def test_warm_counts_and_pins(self, rng, ba_physical, monkeypatch):
        monkeypatch.setattr(landmark_module, "_VECTOR_CACHE_SIZE", 2)
        oracle = LandmarkOracle(ba_physical, n_landmarks=4, rng=rng)
        hosts = ba_physical.largest_component_nodes()[:6]
        assert oracle.warm(hosts) == 6  # cache grew to hold the working set
        assert oracle.warm(hosts) == 0


class TestCounters:
    def test_embed_sources_counted(self, rng, ba_physical):
        reset_counters()
        LandmarkOracle(ba_physical, n_landmarks=5, rng=rng)
        assert counters.landmark_embed_sources == 5

    def test_estimates_counted_once_per_computation(self, rng, ba_physical):
        oracle = LandmarkOracle(ba_physical, n_landmarks=4, rng=rng)
        hosts = ba_physical.largest_component_nodes()
        reset_counters()
        oracle.delay(hosts[0], hosts[1])
        oracle.delay(hosts[0], hosts[1])
        assert counters.oracle_estimates == 2  # scalar answers both count
        oracle.delays_from(hosts[2])
        oracle.delays_from(hosts[2])  # cached re-serve: no new estimate
        assert counters.oracle_estimates == 3


class TestDelayPairs:
    """The pairwise interface must match the vector path bit for bit —
    the struct-of-arrays engine mixes the two forms freely."""

    def test_pairwise_cheap_advertised(self, rng, ba_physical):
        assert LandmarkOracle(ba_physical, n_landmarks=4, rng=rng).pairwise_cheap

    def test_matches_vector_entries_exactly(self, rng, ba_physical):
        oracle = LandmarkOracle(ba_physical, n_landmarks=8, rng=rng)
        pairs = sample_pairs(ba_physical, rng, 80)
        # Mix in identity pairs and pair counts from 1 upward: the one-pair
        # branch, a narrow array and a wide one must agree bit for bit.
        pairs.append((pairs[0][0], pairs[0][0]))
        for size in (1, 2, len(pairs)):
            us = [u for u, _ in pairs[:size]]
            vs = [v for _, v in pairs[:size]]
            got = oracle.delay_pairs(us, vs)
            want = np.array([oracle.delays_from(u)[v] for u, v in zip(us, vs)])
            assert np.array_equal(got, want)

    def test_one_pair_runs_on_floats_with_the_same_bits(self, rng, ba_physical):
        # A Phase-3 probe: exactly one pair over a finite embedding takes
        # the Python-float branch.  Same bits, one estimate counted.
        oracle = LandmarkOracle(ba_physical, n_landmarks=16, rng=rng)
        assert np.isfinite(oracle.embedding).all()
        pairs = sample_pairs(ba_physical, rng, 200) + [(7, 7)]
        vector = oracle.delay_pairs(*zip(*pairs)).tolist()
        reset_counters()
        singles = [oracle.delay_pairs([u], [v]) for u, v in pairs]
        singles.append(oracle.delay_pairs(np.array([7]), np.array([7])))
        assert counters.oracle_estimates == len(pairs) + 1
        for (u, v), got, want in zip(pairs + [(7, 7)], singles, vector + [0.0]):
            assert got.dtype == np.float64 and got.shape == (1,)
            assert got.tolist()[0].hex() == want.hex()
            assert got[0] == oracle.delays_from(u)[v]

    def test_one_pair_over_an_unreachable_host_is_inf(self):
        # Hosts 4-5 are a component of their own: the embedding holds inf,
        # the one-pair branch stands aside and the array path answers.
        physical = PhysicalTopology(
            6, [(0, 1), (1, 2), (2, 3), (4, 5)], [1.0, 2.0, 3.0, 1.0]
        )
        oracle = LandmarkOracle(physical, n_landmarks=2)
        assert np.isinf(oracle.embedding).any()
        for u, v in [(0, 4), (4, 5), (4, 4), (1, 2)]:
            got = oracle.delay_pairs([u], [v])[0]
            assert got == oracle.delays_from(u)[v]
            assert got == oracle.delay_pairs([u, u], [v, v])[0]
        assert oracle.delay_pairs([0], [4])[0] == math.inf
        assert oracle.delay_pairs([4], [5])[0] == math.inf
        assert oracle.delay_pairs([4], [4])[0] == 0.0
        assert oracle.delay(0, 4) == math.inf

    @pytest.mark.parametrize("pair", [(-1, 0), (0, -1), (120, 0), (0, 10**9)])
    def test_one_pair_rejects_ids_instead_of_wrapping(
        self, rng, ba_physical, pair
    ):
        oracle = LandmarkOracle(ba_physical, n_landmarks=4, rng=rng)
        reset_counters()
        with pytest.raises(ValueError, match="out of range"):
            oracle.delay_pairs([pair[0]], [pair[1]])
        with pytest.raises(ValueError, match="out of range"):
            oracle.delay_pairs([pair[0], 1], [pair[1], 2])
        assert counters.oracle_estimates == 0

    def test_rejects_misaligned_and_out_of_range(self, rng, ba_physical):
        oracle = LandmarkOracle(ba_physical, n_landmarks=2, rng=rng)
        with pytest.raises(ValueError, match="equal length"):
            oracle.delay_pairs([0, 1], [2])
        with pytest.raises(ValueError, match="out of range"):
            oracle.delay_pairs([0], [ba_physical.num_nodes])
        assert len(oracle.delay_pairs([], [])) == 0
