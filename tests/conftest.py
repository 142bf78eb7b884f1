"""Shared fixtures: small, fast, deterministic topologies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ace import AceProtocol
from repro.topology.generators import barabasi_albert, grid
from repro.topology.overlay import small_world_overlay
from repro.topology.physical import PhysicalTopology
from repro.topology.soa import ArrayOverlay
from tests.reference import object_twin
from tests.reference.ace import ReferenceAce
from tests.reference.overlay import Overlay


@pytest.fixture
def rng():
    """Fresh deterministic RNG per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def grid_physical():
    """4x4 grid underlay with uniform link delay 10."""
    return grid(4, 4, delay=10.0)


@pytest.fixture
def line_physical():
    """Five hosts in a line: 0-1-2-3-4, delays 1, 2, 3, 4."""
    return PhysicalTopology(
        5, [(0, 1), (1, 2), (2, 3), (3, 4)], [1.0, 2.0, 3.0, 4.0]
    )


@pytest.fixture
def ba_physical(rng):
    """Small Barabási–Albert underlay (120 hosts)."""
    return barabasi_albert(120, m=2, rng=rng)


@pytest.fixture(
    params=[
        # The reference class keeps the unparametrized test id.
        pytest.param(Overlay, id=pytest.HIDDEN_PARAM),
        pytest.param(ArrayOverlay, id="ArrayOverlay"),
    ]
)
def overlay_class(request):
    """The class the shared overlay fixtures build: reference and production."""
    return request.param


@pytest.fixture
def ace_class(overlay_class):
    """ACE on the overlay class's engine: the per-peer reference loop on the
    object model, the production protocol on arrays."""
    return ReferenceAce if overlay_class is Overlay else AceProtocol


@pytest.fixture
def triangle_overlay(grid_physical, overlay_class):
    """Three peers, fully connected, on grid corners.

    Hosts: 0 (corner), 3 (opposite corner of top row), 12 (bottom corner).
    Costs: 0-3: 30, 0-12: 30, 3-12: 60 (grid Manhattan distances x 10).
    """
    ov = overlay_class(grid_physical, {0: 0, 1: 3, 2: 12})
    ov.connect(0, 1)
    ov.connect(0, 2)
    ov.connect(1, 2)
    return ov


@pytest.fixture
def small_overlay(ba_physical, rng, overlay_class):
    """40-peer small-world overlay, average degree ~6."""
    ov = small_world_overlay(ba_physical, 40, avg_degree=6, rng=rng)
    if overlay_class is ArrayOverlay:
        return ov
    twin = object_twin(ov)
    assert type(twin) is Overlay
    return twin


@pytest.fixture
def make_overlay_from_weighted_edges(overlay_class):
    """Factory: overlay whose underlay *is* the given weighted logical graph.

    *edges* is an iterable of ``(u, v, delay)``; peers are 0..max id, each on
    its own host.  Logical link costs are underlay shortest paths, so a
    "long" drawn link may cost less than its drawn delay — the mismatch
    situation the paper studies.
    """

    def make(edges):
        edges = list(edges)
        n = max(max(u, v) for u, v, _ in edges) + 1
        phys = PhysicalTopology(
            n, [(u, v) for u, v, _ in edges], [d for _, _, d in edges]
        )
        ov = overlay_class(phys, {i: i for i in range(n)})
        for u, v, _ in edges:
            ov.connect(u, v)
        return ov

    return make
