"""Oracle spec grammar: parse, build; the scalar delay contract of both backends."""

import numpy as np
import pytest

from repro.oracle import OracleSpec, make_oracle, parse_oracle_spec
from repro.oracle.exact import ExactOracle
from repro.oracle.landmark import LandmarkOracle


class TestParse:
    def test_exact(self):
        assert parse_oracle_spec("exact") == OracleSpec(kind="exact")
        assert parse_oracle_spec("  EXACT ") == OracleSpec(kind="exact")

    def test_landmark_defaults(self):
        spec = parse_oracle_spec("landmark")
        assert spec == OracleSpec(kind="landmark", n_landmarks=16)

    def test_landmark_full(self):
        assert parse_oracle_spec("landmark:32") == OracleSpec(
            kind="landmark", n_landmarks=32
        )

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "   ",
            "exact:1",
            "gnp",
            "landmark:",
            "landmark:zero",
            "landmark:0",
            "landmark:-4",
            "landmark::random",
            "landmark:16:maxmin",
            "landmark:8:astrology",
            "landmark:8:maxmin:vibes",
            "landmark:8:maxmin:midpoint:extra",
        ],
    )
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(ValueError):
            parse_oracle_spec(bad)


class TestMakeOracle:
    def test_exact_backend(self, ba_physical):
        oracle = make_oracle("exact", ba_physical)
        assert isinstance(oracle, ExactOracle)
        assert oracle.physical is ba_physical

    def test_landmark_backend(self, rng, ba_physical):
        oracle = make_oracle("landmark:4", ba_physical, rng=rng)
        assert isinstance(oracle, LandmarkOracle)
        assert oracle.n_landmarks == 4

    def test_landmark_seeded_build_is_deterministic(self, ba_physical):
        a = make_oracle("landmark:5", ba_physical,
                        rng=np.random.default_rng(13))
        b = make_oracle("landmark:5", ba_physical,
                        rng=np.random.default_rng(13))
        assert a.landmarks == b.landmarks
        assert np.array_equal(a.embedding, b.embedding)


class TestScalarDelay:
    @pytest.mark.parametrize("spec", ["exact", "landmark:4"])
    @pytest.mark.parametrize("bad", [-1, "N"])
    def test_rejects_ids_instead_of_wrapping(self, rng, ba_physical, spec, bad):
        # -1 and N would index a cached row from the end; delays_from and
        # delay_pairs already refuse them, so the scalar form must too.
        oracle = make_oracle(spec, ba_physical, rng=rng)
        bad = ba_physical.num_nodes if bad == "N" else bad
        oracle.delays_from(5)  # a resident row is what a wrapped read hits
        for u, v in [(5, bad), (bad, 5)]:
            with pytest.raises(ValueError, match="out of range"):
                oracle.delay(u, v)
