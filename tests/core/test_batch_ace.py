"""The batched ACE kernel is an optimization, not a treatment.

``repro.core.batch_ace`` replaces the per-peer closure/Phase-1/MST inner
loop of :meth:`AceProtocol.step` with one shared CSR frontier sweep, a flat
cost pass and a segmented MST kernel.  These tests pin the contract from
the inside against the object-model reference loop: identical step
reports, identical replacement actions, identical state versions,
identical overlay edges and routing sets — across depths, oracles and
seeds, static and under churn — plus the perf counters the kernel is
observable through.

Figure-level byte-identity (the experiment blobs) rides in
``tests/experiments/test_reproducibility.py``.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.ace import AceConfig, AceProtocol
from repro.core.batch_ace import extract_closures
from repro.core.closure import neighbor_closure
from repro.core.spanning_tree import prim_mst_heap
from repro.experiments.dynamic_env import DynamicConfig, run_dynamic_experiment
from repro.experiments.setup import ScenarioConfig, build_scenario
from repro.perf import counters
from repro.topology.overlay import Overlay
from repro.topology.soa import ArrayOverlay
from tests.reference import production_and_reference


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
    overlay = sc.fresh_overlay()
    overlay.warm_edge_costs()
    return AceProtocol(
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
    assert isinstance(kern.overlay, ArrayOverlay) and kern.flat_store is not None
    assert type(ref.overlay) is Overlay and ref.flat_store is None
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

    def test_dynamic_churn_series_matches(self):
        dyn = DynamicConfig(total_queries=120, window=40)
        production, reference = production_and_reference(config())
        ref = run_dynamic_experiment(reference, dyn)
        kern = run_dynamic_experiment(production, dyn)
        assert dataclasses.asdict(kern) == dataclasses.asdict(ref)

    def test_object_engine_is_untouched_by_the_toggle(self):
        # The kernel engages on the array overlay only — chosen by the
        # overlay type, not by a switch; the object-model reference never
        # enters it.
        kern, ref = kernel_and_reference()
        counters.reset()
        ref_state = full_state(ref)
        assert counters.ace_batched_steps == 0
        kern_state = full_state(kern)
        assert counters.ace_batched_steps == 3
        assert kern_state == ref_state


def assert_batch_matches_reference(overlay, batch, sources, depth):
    """Every ``ClosureBatch`` field against ``neighbor_closure`` + heap Prim."""
    assert batch.sources == list(sources)
    assert batch.index == {peer: i for i, peer in enumerate(sources)}
    for i, peer in enumerate(sources):
        ref = neighbor_closure(overlay, peer, depth)
        assert batch.members[i] == sorted(ref.members)
        assert batch.member_sets[i] == frozenset(ref.members)
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
        assert batch.row(i) == (
            batch.flooding[i],
            batch.direct[i],
            len(ref.members),
            ref.num_edges(),
        )


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
        i = batch.index[loner]
        assert batch.members[i] == [loner] and batch.probe_sum[i] == 0.0
        assert batch.row(i) == ([], [], 1, 0)

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
        for peer in peers:
            i = batch.index[peer]
            total = 0.0
            for cost in batch.direct_costs[i]:
                total += cost
            assert batch.probe_sum[i] == total

    def test_empty_batch_is_empty(self):
        sc = scenario()
        overlay = sc.fresh_overlay()
        batch = extract_closures(overlay, [], depth=2)
        assert batch.sources == []
        assert batch.index == {}


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
        # The satellite fix for AceProtocol.recompute_tree: back-to-back
        # refresh_peer/recompute_tree on an unmutated overlay must extract
        # the closure once, not twice — the reuse is keyed on
        # (overlay.epoch, depth) and observable through the counter.
        protocol = protocol_for(scenario())
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
