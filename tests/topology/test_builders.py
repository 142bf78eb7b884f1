"""The array scenario builders against the per-link reference, bit for bit.

Underlays, their :class:`PhysicalTopology` internals and the generated
overlays must equal :mod:`tests.reference.generators` — every float, link
order, host, adjacency set and epoch — and leave the generator's stream in
the same state, so every later draw is the same too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import generators
from repro.topology.overlay import power_law_overlay, random_overlay, small_world_overlay
from repro.topology.physical import PhysicalTopology
from repro.topology.soa import ArrayOverlay
from tests.reference import twin
from tests.reference.generators import (
    OVERLAYS,
    barabasi_albert,
    finalize,
    physical_parts,
    reference_finalize,
)

UNDERLAYS = {
    "ba": lambda n, rng: generators.barabasi_albert(n, m=2, rng=rng),
    "glp": lambda n, rng: generators.glp(n, rng=rng),
    "waxman": lambda n, rng: generators.waxman(n, rng=rng),
    # Sparse enough to fall apart: the joins run on most draws.
    "waxman_sparse": lambda n, rng: generators.waxman(n, alpha=0.02, rng=rng),
    "ws": lambda n, rng: generators.watts_strogatz(n, rng=rng),
}

PRODUCTION_OVERLAYS = {
    "random": random_overlay,
    "power_law": power_law_overlay,
    "small_world": small_world_overlay,
}

seeds = st.integers(0, 2**32 - 1)


def arrays(*values):
    return [(str(a.dtype), a.shape, a.tobytes()) for a in values]


def parts_bits(edge_delays, adjacency, matrix):
    links = [(type(u), type(v), u, v, d.hex()) for (u, v), d in edge_delays.items()]
    return links, adjacency, arrays(matrix.indptr, matrix.indices, matrix.data)


def underlay_bits(physical):
    parts = (physical._edge_delays, physical._adjacency, physical._matrix)
    return parts_bits(*parts), arrays(physical.coordinates)


def overlay_view(overlay):
    """Peers, hosts, sorted adjacency, known costs and epoch: what either
    overlay class shows through its public surface."""
    peers = overlay.peers()
    hosts = [overlay.host_of(p) for p in peers]
    known = [
        overlay.oracle.known(overlay.host_of(u), overlay.host_of(v))
        for u, v in sorted(overlay.edges())
    ]
    return (
        peers, hosts, [sorted(overlay.neighbors(p)) for p in peers],
        overlay.cached_edge_costs, known, overlay.epoch,
    )


def overlay_bits(overlay):
    """Every array and counter of an ``ArrayOverlay`` but its epoch."""
    return (
        overlay._index, overlay._peers_cache, overlay._free, overlay._nslots,
        overlay._nbase, overlay._nedges, overlay._missing, overlay._edits,
        overlay._extra, overlay._xlabel, overlay.oracle._store,
        overlay._slots_canonical, type(overlay.oracle),
        arrays(
            overlay._slot_peer, overlay._slot_host, overlay._slot_degree,
            overlay._broken, overlay._indptr, overlay._nbr, overlay._ncost,
            overlay._label, overlay._dead,
        ),
    )


class TestUnderlays:
    @given(kind=st.sampled_from(sorted(UNDERLAYS)), n=st.integers(8, 300), seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_generators_equal_the_per_link_build(self, kind, n, seed):
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = UNDERLAYS[kind](n, rng)
        with reference_finalize():
            want = UNDERLAYS[kind](n, reference_rng)
        assert underlay_bits(got) == underlay_bits(want)
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    @given(n=st.integers(2, 2500), m=st.integers(1, 4), seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_ba_draws_as_one_scalar_call_per_attachment(self, n, m, seed):
        if n <= m:
            return
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = generators.barabasi_albert(n, m=m, rng=rng)
        want = barabasi_albert(n, m=m, rng=reference_rng)
        assert underlay_bits(got) == underlay_bits(want)
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("seed", range(5))
    def test_an_array_of_bounds_draws_as_that_many_scalar_calls(self, seed):
        # What the BA generator's chunked draw rests on, on this numpy:
        # values and the stream's state after.  Bounds above 2**31 make
        # Lemire's rejection frequent.
        bounds = np.concatenate(
            [
                [3_000_000_000, 2_500_000_001, 1, 2],
                np.random.default_rng(seed).integers(1, 80_000, size=5_000),
            ]
        )
        array, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = array.integers(0, bounds).tolist()
        assert drawn == [int(scalar.integers(int(b))) for b in bounds]
        assert array.bit_generator.state == scalar.bit_generator.state

    @given(
        n=st.integers(2, 40),
        links=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=60),
        seed=seeds,
        grid_coords=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_finalize_joins_any_link_set_like_the_union_find(
        self, n, links, seed, grid_coords
    ):
        # Coordinates on a small integer grid tie distances between pairs,
        # so the closest-pair choice has to break ties the same way.
        rng = np.random.default_rng(seed)
        coords = (
            rng.integers(0, 4, size=(n, 2)).astype(float)
            if grid_coords
            else rng.uniform(0.0, 1000.0, size=(n, 2))
        )
        edges = {(min(u, v), max(u, v)) for u, v in links if u != v and u < n and v < n}
        got = generators._finalize(n, set(edges), coords, 1.0, 16)
        want = finalize(n, set(edges), coords, 1.0, 16)
        assert underlay_bits(got) == underlay_bits(want)
        assert got.is_connected()

    def test_sparse_waxman_is_joined(self):
        sampled = []
        production = generators._finalize

        def spy(n, edges, *rest):
            sampled.append(len(edges))
            return production(n, edges, *rest)

        generators._finalize = spy
        try:
            physical = UNDERLAYS["waxman_sparse"](300, np.random.default_rng(1))
        finally:
            generators._finalize = production
        assert physical.is_connected()
        assert physical.num_edges > sampled[0]


class TestPhysicalTopologyArrays:
    @given(
        n=st.integers(1, 12),
        links=st.lists(
            st.tuples(
                st.integers(-1, 12),
                st.integers(-1, 12),
                st.sampled_from([-1.0, 0.0, 1e-4, 2.0**-11, 0.25, 0.3, 1.0, 2.5, 7.75]),
            ),
            max_size=40,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_link_list_builds_or_fails_like_the_per_link_constructor(self, n, links):
        edges = [(u, v) for u, v, _ in links]
        delays = [d for _, _, d in links]
        try:
            want = parts_bits(*physical_parts(n, edges, delays))
        except ValueError as refused:
            for given_edges, given_delays in ((edges, delays), (np.array(edges), np.array(delays))):
                with pytest.raises(ValueError) as got:
                    PhysicalTopology(n, given_edges, given_delays)
                assert str(got.value) == str(refused)
            return
        for given_edges, given_delays in ((edges, delays), (np.array(edges), np.array(delays))):
            physical = PhysicalTopology(n, given_edges, given_delays)
            got = (physical._edge_delays, physical._adjacency, physical._matrix)
            assert parts_bits(*got) == want

    def test_duplicate_links_keep_the_cheaper_in_first_arrival_order(self):
        edges = np.array([(2, 3), (0, 1), (3, 2), (1, 0), (1, 2)])
        delays = np.array([4.0, 1.5, 2.0, 3.0, 1.0])
        physical = PhysicalTopology(4, edges, delays)
        assert list(physical.edges()) == [(2, 3, 2.0), (0, 1, 1.5), (1, 2, 1.0)]
        assert physical.neighbors(2) == (1, 3)
        assert physical.delay(0, 3) == 4.5

    @pytest.mark.parametrize(
        "edges, delays, message",
        [
            ([(0, 1), (1, 5), (2, 2)], [1.0, 1.0, 1.0], "edge (1, 5) out of range for 4 nodes"),
            ([(0, 1), (-1, 2)], [1.0, 0.0], "edge (-1, 2) out of range for 4 nodes"),
            ([(0, 1), (2, 2), (0, 9)], [1.0, 1.0, 1.0], "self-loop at node 2 is not allowed"),
            (
                [(0, 1), (1, 2), (2, 3)],
                [1.0, 2.0**-12, -3.0],
                "link delay must be positive on the 0.0009765625 grid, got 0.000244140625 on (1, 2)",
            ),
            ([(0, 1)], [1.0, 2.0], "edges and delays must have the same length"),
            ([(0, 1, 2)], [1.0], "edges must be (u, v) pairs"),
        ],
    )
    def test_errors_name_the_first_bad_link(self, edges, delays, message):
        for given_edges, given_delays in ((edges, delays), (np.array(edges), np.array(delays))):
            with pytest.raises(ValueError) as refused:
                PhysicalTopology(4, given_edges, given_delays)
            assert str(refused.value) == message


class TestOverlays:
    PHYSICAL = generators.barabasi_albert(300, m=2, rng=np.random.default_rng(7))

    @given(
        kind=st.sampled_from(sorted(OVERLAYS)),
        peers=st.integers(2, 160),
        degree=st.sampled_from([1.0, 2.0, 3.0, 6.0, 8.0, 11.0]),
        seed=seeds,
    )
    @settings(max_examples=80, deadline=None)
    def test_generators_equal_the_object_build(self, kind, peers, degree, seed):
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        try:
            reference = OVERLAYS[kind](self.PHYSICAL, peers, avg_degree=degree, rng=reference_rng)
        except ValueError as refused:
            with pytest.raises(ValueError, match=str(refused)):
                PRODUCTION_OVERLAYS[kind](self.PHYSICAL, peers, avg_degree=degree, rng=rng)
            return
        got = PRODUCTION_OVERLAYS[kind](self.PHYSICAL, peers, avg_degree=degree, rng=rng)
        assert type(got) is ArrayOverlay
        assert overlay_view(got) == overlay_view(reference)
        # The generator packs what a compaction of the same links leaves.
        packed = twin(ArrayOverlay, reference)
        packed.flush_edits()
        assert overlay_bits(got) == overlay_bits(packed)
        assert rng.bit_generator.state == reference_rng.bit_generator.state
