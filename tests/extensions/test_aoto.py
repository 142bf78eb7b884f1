"""Unit tests for the AOTO precursor."""

import numpy as np
import pytest

from repro.core.ace import AceConfig
from repro.extensions.aoto import AotoProtocol, aoto_config
from repro.search.flooding import blind_flooding_strategy, propagate
from repro.search.tree_routing import ace_strategy
from repro.topology.overlay import small_world_overlay


class TestConfig:
    def test_forces_depth_one_and_no_keep_both(self):
        cfg = aoto_config(AceConfig(depth=4, allow_keep_both=True))
        assert cfg.depth == 1
        assert not cfg.allow_keep_both

    def test_other_fields_preserved(self):
        cfg = aoto_config(AceConfig(policy="closest", shed_redundant=False))
        assert cfg.policy == "closest"
        assert not cfg.shed_redundant

    def test_default_base(self):
        cfg = aoto_config()
        assert cfg.depth == 1


class TestProtocol:
    def test_runs_and_preserves_scope(self, ba_physical):
        ov = small_world_overlay(
            ba_physical, 30, avg_degree=6, rng=np.random.default_rng(2)
        )
        protocol = AotoProtocol(ov, rng=np.random.default_rng(2))
        protocol.run(3)
        for src in ov.peers()[:4]:
            prop = propagate(ov, src, ace_strategy(protocol), ttl=None)
            assert prop.reached == set(ov.peers())

    def test_never_keeps_both(self, ba_physical):
        ov = small_world_overlay(
            ba_physical, 30, avg_degree=6, rng=np.random.default_rng(2)
        )
        protocol = AotoProtocol(ov, rng=np.random.default_rng(2))
        reports = protocol.run(4)
        assert all(r.keep_both_adds == 0 for r in reports)

    def test_reduces_traffic(self, ba_physical):
        ov = small_world_overlay(
            ba_physical, 35, avg_degree=8, rng=np.random.default_rng(4)
        )
        sources = ov.peers()[:6]
        before = sum(
            propagate(ov, s, blind_flooding_strategy(ov), ttl=None).traffic_cost
            for s in sources
        )
        protocol = AotoProtocol(ov, rng=np.random.default_rng(4))
        protocol.run(5)
        after = sum(
            propagate(ov, s, ace_strategy(protocol), ttl=None).traffic_cost
            for s in sources
        )
        assert after < before
