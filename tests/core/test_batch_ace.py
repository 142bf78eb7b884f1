"""The batched ACE kernel is an optimization, not a treatment.

``repro.core.batch_ace`` runs the per-peer closure/Phase-1/MST inner loop
of :meth:`AceProtocol.step` as one shared CSR frontier sweep, a flat cost
pass and a segmented MST kernel.  These tests pin the contract from the
inside against the per-peer reference loop (``tests.reference.ace``) on
the object model: identical step
reports, identical replacement actions, identical state versions,
identical overlay edges and routing sets — across depths, oracles and
seeds, static and under churn — plus the perf counters the kernel is
observable through.

Figure-level byte-identity (the experiment blobs) rides in
``tests/experiments/test_reproducibility.py``.
"""

import dataclasses
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import batch_ace
from repro.core.ace import AceConfig, AceProtocol
from repro.core.batch_ace import extract_closures
from repro.core.turn import phases12
from repro.experiments.depth_sweep import DepthSweepConfig, run_depth_sweep
from repro.experiments.dynamic_env import DynamicConfig, run_dynamic_experiment
from repro.experiments.setup import ScenarioConfig, build_scenario
from repro.experiments.static_env import run_static_experiment
from repro.oracle.exact import ExactOracle
from repro.perf import counters
from repro.topology.physical import PhysicalTopology
from repro.topology.soa import FLOODING, NON_FLOODING, ArrayOverlay
from tests.reference import production_and_reference
from tests.reference.ace import ReferenceAce, reference_drivers
from tests.reference.closure import neighbor_closure
from tests.reference.overlay import Overlay
from tests.reference.spanning_tree import prim_mst_heap


def config(seed=5, oracle="exact", peers=60, nodes=240):
    return ScenarioConfig(
        physical_nodes=nodes,
        peers=peers,
        avg_degree=6.0,
        seed=seed,
        oracle=oracle,
    )


def scenario(**world):
    return build_scenario(config(**world))


def protocol_for(sc, depth=2, seed=5):
    """Production ACE on an array world, the reference loop on its twin."""
    overlay = sc.fresh_overlay()
    overlay.warm_edge_costs()
    engine = AceProtocol if isinstance(overlay, ArrayOverlay) else ReferenceAce
    return engine(
        overlay,
        AceConfig(depth=depth),
        rng=np.random.default_rng(seed + 0xACE),
    )


def full_state(protocol, steps=3):
    """Run *steps* ACE steps and snapshot everything the kernel may touch."""
    reports = [dataclasses.asdict(protocol.step()) for _ in range(steps)]
    overlay = protocol.overlay
    return {
        "reports": reports,
        "actions": [dataclasses.asdict(a) for a in protocol.last_actions],
        "version": protocol.state_version,
        "edges": sorted(
            (min(u, v), max(u, v), overlay.cost(u, v)) for u, v in overlay.edges()
        ),
        "flooding": {
            p: sorted(protocol.flooding_neighbors(p)) for p in overlay.peers()
        },
        "non_flooding": {
            p: sorted(protocol.non_flooding_neighbors(p))
            for p in overlay.peers()
        },
    }


def kernel_and_reference(depth=2, seed=5, **world):
    """The batched kernel's protocol and the per-peer loop's, equal worlds."""
    production, reference = production_and_reference(config(seed=seed, **world))
    kern = protocol_for(production, depth=depth, seed=seed)
    ref = protocol_for(reference, depth=depth, seed=seed)
    assert isinstance(kern, AceProtocol) and isinstance(kern.overlay, ArrayOverlay)
    assert isinstance(ref, ReferenceAce) and type(ref.overlay) is Overlay
    return kern, ref


class TestKernelEquality:
    """Object-model loop and batched kernel agree on every observable."""

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("oracle", ["exact", "landmark:8"])
    def test_full_state_matches_across_depth_and_oracle(self, depth, oracle):
        kern, ref = kernel_and_reference(depth=depth, oracle=oracle)
        assert full_state(kern) == full_state(ref)

    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_full_state_matches_across_seeds(self, seed):
        kern, ref = kernel_and_reference(seed=seed)
        assert full_state(kern) == full_state(ref)

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("block", [1, 7, 64, 256])
    def test_full_state_matches_at_every_block_size(
        self, monkeypatch, block, depth
    ):
        # The block size moves only which turns go stale, never a result:
        # one peer per block, blocks that straddle the order unevenly, and
        # one block for all 150 peers give the reference's state.
        monkeypatch.setattr(batch_ace, "_BLOCK", block)
        kern, ref = kernel_and_reference(depth=depth, peers=150, nodes=400)
        assert full_state(kern) == full_state(ref)

    def test_rebuild_all_trees_matches_the_per_peer_loop(self):
        kern, ref = kernel_and_reference(depth=2)
        for protocol in (kern, ref):
            protocol.step()
            protocol.rebuild_all_trees()
        assert kern.state_version == ref.state_version
        for peer in ref.overlay.peers():
            want = ref.state_of(peer)
            labels = {
                v: FLOODING if v in want.flooding else NON_FLOODING
                for v in want.known
            }
            assert kern.overlay.link_labels(peer) == (labels, False)

    def test_dynamic_churn_series_matches(self):
        dyn = DynamicConfig(total_queries=120, window=40)
        production, reference = production_and_reference(config())
        with reference_drivers():
            ref = run_dynamic_experiment(reference, dyn)
        kern = run_dynamic_experiment(production, dyn)
        assert dataclasses.asdict(kern) == dataclasses.asdict(ref)

    def test_object_engine_is_untouched_by_the_toggle(self):
        # The kernel is production's only step; the per-peer reference
        # never enters it.
        kern, ref = kernel_and_reference()
        counters.reset()
        ref_state = full_state(ref)
        assert counters.ace_batched_steps == 0
        kern_state = full_state(kern)
        assert counters.ace_batched_steps == 3
        assert kern_state == ref_state


def members_of(batch, i):
    return batch.members[batch.offsets[i] : batch.offsets[i + 1]].tolist()


def assert_batch_matches_reference(overlay, batch, sources, depth):
    """Every ``ClosureBatch`` field against ``neighbor_closure`` + heap Prim."""
    assert batch.sources == list(sources)
    # One flat member array, cut per source by the offsets.
    assert batch.members.dtype == batch.offsets.dtype == np.int64
    assert len(batch.offsets) == len(sources) + 1
    assert batch.offsets[0] == 0 and batch.offsets[-1] == len(batch.members)
    for i, peer in enumerate(sources):
        ref = neighbor_closure(overlay, peer, depth)
        assert members_of(batch, i) == sorted(ref.members)
        assert batch.closure_edges[i] == ref.num_edges()
        assert batch.direct[i] == sorted(ref.edges[peer])
        assert batch.direct_costs[i] == [
            ref.edges[peer][t] for t in batch.direct[i]
        ]
        total = 0.0
        for cost in batch.direct_costs[i]:
            total += cost
        assert batch.probe_sum[i] == total
        tree = prim_mst_heap(ref.edges, peer)
        assert batch.flooding[i] == sorted(tree.tree_neighbors(peer))


class TestExtractClosures:
    """The batched extractor equals the per-peer reference closure."""

    def test_members_edges_and_trees_match_neighbor_closure(self):
        sc = scenario()
        overlay = sc.fresh_overlay()
        overlay.warm_edge_costs()
        peers = overlay.peers()
        batch = extract_closures(overlay, peers, depth=2)
        assert_batch_matches_reference(overlay, batch, peers, 2)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_two_sweeps_an_isolated_source_and_a_pending_edit_buffer(self, depth):
        overlay = scenario(peers=300, nodes=600, oracle="landmark:8").fresh_overlay()
        overlay.adjacency_csr()
        # Edits left in the buffer: a cut, a new link, a peer with no links.
        u = overlay.peers()[0]
        cut = min(overlay.neighbors(u))
        overlay.disconnect(u, cut)
        overlay.connect(
            u,
            next(
                p
                for p in overlay.peers()[1:]
                if p != cut and not overlay.has_edge(u, p)
            ),
        )
        loner = max(overlay.peers()) + 1
        overlay.add_peer(loner, 0)
        sources = overlay.peers()
        np.random.default_rng(depth).shuffle(sources)  # > 256: two sweeps
        compactions = counters.soa_compactions
        batch = extract_closures(overlay, sources, depth)
        assert counters.soa_compactions == compactions + 1, "buffer was empty"
        assert_batch_matches_reference(overlay, batch, sources, depth)
        i = sources.index(loner)
        assert members_of(batch, i) == [loner] and batch.probe_sum[i] == 0.0
        assert (batch.flooding[i], batch.direct[i], batch.closure_edges[i]) == (
            [], [], 0
        )

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_an_edges_only_buffer_is_read_without_a_compaction(self, depth):
        overlay = scenario(peers=300, nodes=600, oracle="landmark:8").fresh_overlay()
        overlay.adjacency_csr()
        # Tombstones and buffered links, but the peer set is the packed one.
        peers = overlay.peers()
        for u in peers[:40:4]:
            overlay.disconnect(u, min(overlay.neighbors(u)))
        for u, v in zip(peers[:60:3], peers[-60::3]):
            overlay.connect(u, v)
        assert overlay._extra and overlay._edits
        np.random.default_rng(depth).shuffle(peers)
        compactions = counters.soa_compactions
        batch = extract_closures(overlay, peers, depth)
        assert counters.soa_compactions == compactions
        assert_batch_matches_reference(overlay, batch, peers, depth)

    def test_depth_below_one_is_rejected_like_neighbor_closure(self):
        overlay = scenario().fresh_overlay()
        peer = overlay.peers()[0]
        with pytest.raises(ValueError, match="depth must be >= 1"):
            neighbor_closure(overlay, peer, 0)
        with pytest.raises(ValueError, match="depth must be >= 1"):
            extract_closures(overlay, [peer], 0)

    def test_probe_sum_is_the_sequential_direct_cost_sum(self):
        sc = scenario()
        overlay = sc.fresh_overlay()
        overlay.warm_edge_costs()
        peers = overlay.peers()[:8]
        batch = extract_closures(overlay, peers, depth=2)
        for i in range(len(peers)):
            total = 0.0
            for cost in batch.direct_costs[i]:
                total += cost
            assert batch.probe_sum[i] == total

    def test_empty_batch_is_empty(self):
        sc = scenario()
        overlay = sc.fresh_overlay()
        batch = extract_closures(overlay, [], depth=2)
        assert batch.sources == []
        assert len(batch.members) == 0 and batch.offsets.tolist() == [0]


def stale_world(seed):
    """Twelve peers on a 16-host ring with chords, under the exact oracle."""
    rng = np.random.default_rng(seed)
    nodes = 16
    links = [(i, (i + 1) % nodes) for i in range(nodes)] + [(0, 7), (3, 12)]
    physical = PhysicalTopology(
        nodes, links, rng.uniform(0.1, 1.0, size=len(links)), cache_size=4
    )
    hosts = {p: int(h) for p, h in enumerate(rng.integers(0, nodes, size=12))}
    overlay = ArrayOverlay(physical, hosts, oracle=ExactOracle(physical))
    for p in range(1, 12):
        overlay.connect(p, int(rng.integers(0, p)))
    return overlay


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    ops=st.lists(
        st.tuples(
            st.sampled_from(("connect", "disconnect", "rejoin", "check")),
            st.integers(0, 10_000),
            st.integers(0, 10_000),
        ),
        min_size=1,
        max_size=30,
    ),
)
def test_a_stale_turn_rederives_the_sweep_entry(seed, ops):
    """``phases12`` is the sweep's entry for the same peer, bit for bit.

    Connects and disconnects leave tombstones and buffered links; a rejoin
    puts a peer on a free slot (slot order no longer peer order) and on a
    host pair nobody has costed yet.  Each check re-derives before the
    sweep, which then compacts.
    """
    overlay = stale_world(seed)
    ops = list(ops) + [("check", seed, seed)]
    for op, a, b in ops:
        peers = overlay.peers()
        p, q = peers[a % len(peers)], peers[b % len(peers)]
        if op == "connect" and p != q:
            overlay.connect(p, q)
        elif op == "disconnect" and p != q:
            overlay.disconnect(p, q)
        elif op == "rejoin" and p != q:
            overlay.remove_peer(p)
            overlay.add_peer(p, b % overlay.physical.num_nodes)
            overlay.connect(p, q)
        elif op == "check":
            for depth in (1, 2, 3):
                overlay.warm_edge_costs()
                lean = phases12(overlay, p, depth)
                batch = extract_closures(overlay, [p], depth)
                assert lean == (
                    batch.flooding[0],
                    batch.direct[0],
                    batch.direct_costs[0],
                    batch.probe_sum[0],
                    len(batch.members),
                    batch.closure_edges[0],
                )
                assert_batch_matches_reference(overlay, batch, [p], depth)


@settings(max_examples=200, deadline=None)
@given(
    log=st.lists(st.integers(0, 24), max_size=40),
    closures=st.lists(
        st.lists(st.integers(0, 24), min_size=1, max_size=8, unique=True),
        min_size=1,
        max_size=6,
    ),
    at=st.integers(0, 40),
)
def test_the_stamp_rule_is_the_set_intersection_rule(log, closures, at):
    """A member stamped above *since* is a member logged since *since*."""
    since = min(at, len(log))
    stamps = np.zeros(25, dtype=np.int64)
    for length, peer in enumerate(log, 1):
        stamps[peer] = length
    want = [not set(log[since:]).isdisjoint(c) for c in closures]
    members = np.array([m for c in closures for m in c], dtype=np.int64)
    offsets = np.cumsum([0] + [len(c) for c in closures])
    # The rebuild's form, a block at once; the turn's form, one closure.
    assert batch_ace._stale(stamps, members, offsets[:-1], since).tolist() == want
    for closure, stale in zip(closures, want):
        assert batch_ace._stale(stamps, np.array(closure), [0], since)[0] == stale


class TestClosuresHeld:
    """A step, its rebuild and ``store_closures`` hold one batch at a time."""

    @pytest.fixture
    def alive(self, monkeypatch):
        """The number of live batches at each extraction's start."""
        batches = weakref.WeakSet()
        seen = []

        class Counted(batch_ace.ClosureBatch):
            __slots__ = ("__weakref__",)

            def __init__(self):
                super().__init__()
                batches.add(self)

        def extract(*args):
            seen.append(len(batches))
            return extract_closures(*args)

        monkeypatch.setattr(batch_ace, "ClosureBatch", Counted)
        monkeypatch.setattr(batch_ace, "extract_closures", extract)
        return seen

    def test_one_block_batch_and_one_sweep_batch(self, alive):
        world = config(peers=2000, nodes=4000, oracle="landmark:8")
        protocol = protocol_for(build_scenario(world), depth=1)
        counters.reset()
        protocol.step()
        assert max(alive) <= 1
        # 32 blocks, then the rebuild's sweeps over the stale peers.
        sweeps = -(-(counters.closure_batch_peers - 2000) // 256)
        assert len(alive) == 32 + sweeps and sweeps > 1
        for call in (
            protocol.rebuild_all_trees,
            lambda: batch_ace.store_closures(protocol, protocol.overlay.peers()[::-1]),
        ):
            alive.clear()
            call()
            assert max(alive) <= 1 and len(alive) == 8


class TestPerfCounters:
    def test_batched_step_counters(self):
        protocol = protocol_for(scenario())
        n = len(protocol.overlay.peers())
        counters.reset()
        protocol.step()
        assert counters.ace_batched_steps == 1
        # Every scheduled peer goes through the batched extractor at least
        # once; peers whose closures were dirtied mid-step are re-extracted
        # by the end-of-step tree rebuild on top of that.
        assert counters.closure_batch_peers >= n
        protocol.step()
        assert counters.ace_batched_steps == 2
        assert counters.closure_batch_peers >= 2 * n

    def test_tree_rebuilds_reuse_fresh_closures(self):
        # Depth-1 closures on a larger overlay: some peers see no mutation
        # inside their closure after their own round, so their end-of-step
        # tree rebuild must reuse the batch entry rather than re-extract.
        # (Small dense overlays legitimately show zero reuses — almost every
        # closure intersects some mutation — hence the 800-peer scenario.)
        protocol = protocol_for(scenario(peers=800, nodes=2400), depth=1)
        counters.reset()
        protocol.step()
        assert counters.closure_reuses > 0

    def test_refresh_then_recompute_reuses_the_closure(self):
        # The reference loop's closure cache: back-to-back
        # refresh_peer/recompute_tree on an unmutated overlay extract the
        # closure once, not twice — the reuse is keyed on (overlay.epoch,
        # depth) and observable through the counter.
        protocol = protocol_for(production_and_reference(config())[1])
        peer = protocol.overlay.peers()[0]
        counters.reset()
        protocol.refresh_peer(peer)
        assert counters.closure_reuses == 0
        protocol.recompute_tree(peer)
        assert counters.closure_reuses == 1
        # A structural mutation invalidates the cached closure.
        u, v = next(iter(protocol.overlay.edges()))
        protocol.overlay.disconnect(u, v)
        protocol.recompute_tree(peer)
        assert counters.closure_reuses == 1

    def test_churn_counter_rides_the_dynamic_driver(self):
        counters.reset()
        run_dynamic_experiment(
            scenario(), DynamicConfig(total_queries=120, window=40)
        )
        assert counters.ace_batched_steps > 0
        assert counters.churn_batch_mutations > 0

    def test_drivers_never_refresh_one_peer_at_a_time(self):
        # The step, churn and sweep drivers go through the batched kernel
        # only: the per-peer entry points live in the reference alone, so a
        # driver calling one fails here.
        for name in ("refresh_peer", "recompute_tree", "optimize_peer"):
            assert hasattr(ReferenceAce, name)
            assert not hasattr(AceProtocol, name)
        world = config(peers=40, nodes=200)
        run_static_experiment(build_scenario(world), steps=2, query_samples=8)
        run_dynamic_experiment(
            build_scenario(world), DynamicConfig(total_queries=120, window=40)
        )
        run_depth_sweep(DepthSweepConfig(
            degrees=(4,), depths=(1, 2), convergence_steps=2,
            query_samples=8, base=world,
        ))
        protocol_for(build_scenario(world)).rebuild_all_trees()
