"""Array-lowered ACE forwarding graph vs. the row-by-row reference.

On the array engine :func:`repro.search.batch.compile_strategy` lowers the
ACE forwarding graph from the overlay's CSR and one bulk read of the flat
state store; the reference walks ``sorted(protocol.flooding_neighbors(p))``
peer by peer.  The two must agree field for field after any interleaving of
overlay mutations and state writes: every branch of the routing rule by
name below, random interleavings under hypothesis after that.

The interleaving test is two-sided: the same operations drive a production
world (``ArrayOverlay``, flat store, batched step, compiled strategies,
``run_queries``) and its object twin (``Overlay``, the per-peer reference
loop with its dict store, row lowering, heap-engine ``run_queries``), and
every observable is compared
after each one — the randomized counterpart of the pinned-seed driver
comparisons in ``tests/experiments/test_reproducibility.py``.
"""

import copy
import dataclasses
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ace import AceConfig, AceProtocol
from repro.core.batch_ace import churn_refresh, store_closures
from repro.core.flat_state import FlatAceStore
from repro.core.turn import phase1_charges
from repro.perf import counters
from repro.search.batch import ace_graph_by_rows, compile_strategy, run_queries
from repro.search.flooding import blind_flooding_strategy
from repro.search.tree_routing import ace_strategy
from repro.topology.generators import barabasi_albert
from repro.topology.overlay import Overlay, small_world_overlay
from repro.topology.soa import ArrayOverlay
from tests.reference import object_twin
from tests.reference import search as reference_search
from tests.reference.ace import ReferenceAce, reference_churn_refresh

ARRAYS = ("peer_ids", "indptr", "targets", "costs")


def make_world(seed, peers=24, repack_threshold=None, compact_threshold=None):
    """Array overlay + protocol whose store repacks past *repack_threshold*."""
    rng = np.random.default_rng(seed)
    physical = barabasi_albert(120, m=2, rng=rng)
    overlay = ArrayOverlay.from_overlay(
        small_world_overlay(physical, peers, avg_degree=6, rng=rng),
        compact_threshold=compact_threshold,
    )
    protocol = AceProtocol(overlay, AceConfig(depth=2), rng=rng)
    assert len(protocol.flat_store) == 0
    protocol._flat = FlatAceStore(repack_threshold=repack_threshold)
    return overlay, protocol


def row(graph, peer):
    i = graph.index[peer]
    return graph.peer_ids[graph.targets[graph.indptr[i] : graph.indptr[i + 1]]].tolist()


def assert_graphs_equal(graph, reference):
    assert (graph.kind, graph.directed) == (reference.kind, reference.directed)
    assert graph.index == reference.index
    for name in ARRAYS:
        got, want = getattr(graph, name), getattr(reference, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


def assert_equals_reference(overlay, protocol):
    graph = compile_strategy(overlay, ace_strategy(protocol))
    assert (graph.kind, graph.directed) == ("ace", True)
    assert_graphs_equal(graph, ace_graph_by_rows(overlay, protocol))
    return graph


def tree_edge(overlay, protocol):
    """A live edge ``(p, q)`` with q in p's stored flooding set."""
    store = protocol.flat_store
    return min(
        (p, q) for p in overlay.peers() if p in store for q in store.flooding_of(p)
    )


class TestRoutingRuleBranches:
    def test_peer_without_state_floods(self):
        overlay, protocol = make_world(1)
        graph = assert_equals_reference(overlay, protocol)
        flooding = compile_strategy(overlay, blind_flooding_strategy(overlay))
        for name in ARRAYS:
            assert getattr(graph, name).tobytes() == getattr(flooding, name).tobytes()

    def test_stored_tree_prunes_non_flooding_links(self):
        overlay, protocol = make_world(2)
        protocol.rebuild_all_trees()
        graph = assert_equals_reference(overlay, protocol)
        assert graph.targets.size < 2 * overlay.num_edges
        for p in overlay.peers():
            assert row(graph, p) == sorted(protocol.flat_store.flooding_of(p))

    def test_departed_flooding_neighbor_falls_back_to_all_live(self):
        overlay, protocol = make_world(3)
        protocol.rebuild_all_trees()
        p, q = tree_edge(overlay, protocol)
        overlay.remove_peer(q)
        protocol.handle_peer_left(q)
        graph = assert_equals_reference(overlay, protocol)
        assert row(graph, p) == sorted(overlay.neighbors(p))

    def test_cut_flooding_link_falls_back_to_all_live(self):
        overlay, protocol = make_world(3)
        protocol.rebuild_all_trees()
        p, q = tree_edge(overlay, protocol)
        overlay.disconnect(p, q)
        graph = assert_equals_reference(overlay, protocol)
        assert row(graph, p) == sorted(overlay.neighbors(p))

    def test_departed_id_above_every_live_id(self):
        overlay, protocol = make_world(4)
        protocol.rebuild_all_trees()
        top = overlay.peers()[-1]
        p = min(protocol.flat_store.flooding_of(top))
        assert top in protocol.flat_store.flooding_of(p)
        overlay.remove_peer(top)
        protocol.handle_peer_left(top)
        graph = assert_equals_reference(overlay, protocol)
        assert row(graph, p) == sorted(overlay.neighbors(p))

    def test_neighbor_gained_since_phase_two_is_added(self):
        overlay, protocol = make_world(5)
        protocol.rebuild_all_trees()
        p = overlay.peers()[0]
        q = next(x for x in overlay.peers() if x != p and not overlay.has_edge(p, x))
        overlay.connect(p, q)
        graph = assert_equals_reference(overlay, protocol)
        assert row(graph, p) == sorted(protocol.flat_store.flooding_of(p) | {q})
        assert p in row(graph, q)

    def test_state_only_in_pending_rows(self):
        overlay, protocol = make_world(6, repack_threshold=10_000)
        protocol.rebuild_all_trees()
        store = protocol.flat_store
        assert (store.packed_rows, store.pending_rows) == (0, overlay.num_peers)
        assert_equals_reference(overlay, protocol)

    def test_state_only_in_packed_rows(self):
        overlay, protocol = make_world(7, repack_threshold=10_000)
        protocol.rebuild_all_trees()
        store = protocol.flat_store
        store._repack()
        assert (store.packed_rows, store.pending_rows) == (overlay.num_peers, 0)
        assert_equals_reference(overlay, protocol)

    def test_packed_row_overwritten_by_pending(self):
        overlay, protocol = make_world(8, repack_threshold=10_000)
        protocol.rebuild_all_trees()
        protocol.flat_store._repack()
        p, q = tree_edge(overlay, protocol)
        overlay.disconnect(p, q)
        store_closures(protocol, [p])
        assert protocol.flat_store.pending_rows == 1
        graph = assert_equals_reference(overlay, protocol)
        assert row(graph, p) == sorted(protocol.flat_store.flooding_of(p))

    def test_state_dropped_and_put_again_leaves_a_hole(self):
        overlay, protocol = make_world(9, repack_threshold=10_000)
        protocol.rebuild_all_trees()
        store = protocol.flat_store
        store._repack()
        p = overlay.peers()[3]
        protocol.handle_peer_left(p)  # state dropped, peer stays
        graph = assert_equals_reference(overlay, protocol)
        assert row(graph, p) == sorted(overlay.neighbors(p))
        store_closures(protocol, [p])
        assert store._row[p] == store.packed_rows  # a new row; the old is a hole
        graph = assert_equals_reference(overlay, protocol)
        assert row(graph, p) == sorted(store.flooding_of(p))

    def test_state_of_a_peer_the_overlay_lost_is_ignored(self):
        overlay, protocol = make_world(10)
        protocol.rebuild_all_trees()
        for victim in (overlay.peers()[0], overlay.peers()[-1]):
            overlay.remove_peer(victim)  # the protocol is not told
            assert victim in protocol.flat_store
            assert_equals_reference(overlay, protocol)

    def test_empty_and_edgeless_overlays(self):
        overlay, protocol = make_world(11, peers=6)
        protocol.rebuild_all_trees()
        for u, v in list(overlay.edges()):
            overlay.disconnect(u, v)
        graph = assert_equals_reference(overlay, protocol)
        assert graph.targets.size == 0
        for p in overlay.peers():
            overlay.remove_peer(p)
        assert assert_equals_reference(overlay, protocol).num_peers == 0


class TestCounters:
    def test_lowering_adds_no_compaction_repack_or_compile(self, monkeypatch):
        """Same structural counters as the row loop on a tiny churn run."""
        from repro.experiments.dynamic_env import (
            DynamicConfig,
            run_dynamic_experiment,
        )
        from repro.experiments.setup import ScenarioConfig, build_scenario
        from repro.search import batch

        def run():
            scenario = build_scenario(
                ScenarioConfig(physical_nodes=300, peers=60, seed=5)
            )
            before = counters.copy()
            series = run_dynamic_experiment(
                scenario,
                DynamicConfig(total_queries=90, window=30, optimization_interval=4.0),
            )
            return series, counters.delta(before)

        lowered, got = run()
        original = batch._lower_arrays
        monkeypatch.setattr(
            batch,
            "_lower_arrays",
            lambda overlay, kind, protocol=None: (
                original(overlay, kind) if protocol is None
                else ace_graph_by_rows(overlay, protocol)
            ),
        )
        by_rows, want = run()
        assert lowered == by_rows
        assert lowered.departures > 0
        for name in ("compiled_strategies", "soa_compactions", "array_state_syncs"):
            assert got[name] == want[name] > 0, name
        # The one counter that moves: no per-row probe of the cost cache.
        assert got["edge_cost_hits"] < want["edge_cost_hits"]
        assert got["edge_cost_misses"] == want["edge_cost_misses"]


OPS = (
    "join", "leave", "vanish", "connect", "disconnect", "step", "recompute",
    "refresh", "drop_state", "churn", "copy", "queries",
)


class World:
    """An overlay and its protocol, plus the overlays ``copy`` retired."""

    def __init__(self, overlay, protocol):
        self.overlay, self.protocol = overlay, protocol
        self.retired = []

    def flooding(self):
        return blind_flooding_strategy(self.overlay)

    def ace(self):
        return ace_strategy(self.protocol)


def structure(overlay):
    """Peers, hosts, sorted adjacency and every edge cost (floats as is)."""
    return [
        (
            p,
            overlay.host_of(p),
            sorted(overlay.costs_from(p, sorted(overlay.neighbors(p))).items()),
        )
        for p in overlay.peers()
    ]


def depart_and_replace(world, departing, joiner, host, bootstrap):
    """The departure handler of ``run_dynamic_experiment``, both branches."""
    overlay, protocol = world.overlay, world.protocol
    affected = set(overlay.neighbors(departing))
    protocol.handle_peer_left(departing)
    overlay.remove_peer(departing)
    overlay.add_peer(joiner, host)
    for target in bootstrap:
        overlay.connect(joiner, target)
    protocol.handle_peer_joined(joiner)
    affected |= set(overlay.neighbors(joiner))
    affected.discard(joiner)
    if isinstance(protocol, AceProtocol):
        return churn_refresh(protocol, joiner, affected)
    return reference_churn_refresh(protocol, joiner, affected)


def apply(world, op, a, b, next_id):
    """Apply one drawn operation; returns what it reported, for comparison."""
    overlay, protocol = world.overlay, world.protocol
    peers = overlay.peers()
    p, q = peers[a % len(peers)], peers[b % len(peers)]
    host = b % overlay.physical.num_nodes
    if op == "join":
        overlay.add_peer(next_id, host)
        protocol.handle_peer_joined(next_id)
        overlay.connect(next_id, p)
    elif op in ("leave", "vanish") and len(peers) > 4:
        overlay.remove_peer(p)
        if op == "leave":
            protocol.handle_peer_left(p)
    elif op == "connect" and p != q:
        return overlay.connect(p, q)
    elif op == "disconnect" and p != q:
        return overlay.disconnect(p, q)
    elif op == "step":
        return dataclasses.asdict(protocol.step())
    elif op == "recompute":
        if isinstance(protocol, AceProtocol):
            store_closures(protocol, [p])
        else:
            protocol.recompute_tree(p)
    elif op == "refresh":
        if isinstance(protocol, ReferenceAce):
            _state, phase1 = protocol.refresh_peer(p)
            return phase1.probe_cost, phase1.exchange_cost
        overlay.warm_edge_costs()
        batch = store_closures(protocol, [p])
        return phase1_charges(batch.probe_sum[0], batch.closure_edges[0])
    elif op == "drop_state":
        protocol.handle_peer_left(p)
    elif op == "churn" and len(peers) > 4:
        bootstrap = [t for t in (q, peers[(b + 1) % len(peers)]) if t != p]
        return depart_and_replace(world, p, next_id, host, bootstrap)
    elif op == "copy":
        world.retired.append((overlay, structure(overlay)))
        world.overlay = protocol.overlay = overlay.copy()
    return None


def assert_worlds_agree(production, reference, ids, sources, holders):
    """Every observable of the production world equals its object twin's."""
    for world in (production, reference):
        # The drivers' discipline: costs of edges made outside a step are
        # filled in the canonical direction before anything reads them.
        world.overlay.warm_edge_costs()
    assert structure(production.overlay) == structure(reference.overlay)
    got, want = production.protocol, reference.protocol
    for peer in ids:
        assert got.state_of(peer) == want.state_of(peer), peer
    assert got.state_version == want.state_version
    assert got.steps_run == want.steps_run
    assert got.last_actions == want.last_actions
    lowered = assert_equals_reference(production.overlay, got)
    assert_graphs_equal(lowered, ace_graph_by_rows(reference.overlay, want))
    twin = reference.overlay
    assert_graphs_equal(
        compile_strategy(production.overlay, production.flooding()),
        reference_search.graph_by_rows(
            twin, {p: sorted(twin.neighbors(p)) for p in twin.peers()},
            kind="flooding", directed=False,
        ),
    )
    queries = [(s, holders) for s in sources]
    for ttl in (None, 3):
        for strategy in (World.flooding, World.ace):
            want = reference_search.run_queries(
                twin, strategy(reference), queries, ttl=ttl
            )
            ask = partial(run_queries, production.overlay, strategy(production), queries, ttl=ttl)
            if compile_strategy(production.overlay, strategy(production)).has_zero_cost:
                # A joiner shares a host: the kernel refuses, nothing falls back.
                with pytest.raises(ValueError, match="zero-cost"):
                    ask()
            else:
                assert ask() == want


def run_interleaving(seed, thresholds, ops):
    """Drive production and its object twin through *ops*, side by side."""
    repack, compact = thresholds
    overlay, protocol = make_world(
        seed, peers=14, repack_threshold=repack, compact_threshold=compact
    )
    production = World(overlay, protocol)
    twin = object_twin(overlay)
    reference = World(
        twin, ReferenceAce(twin, protocol.config, rng=copy.deepcopy(protocol.rng))
    )
    assert isinstance(production.overlay, ArrayOverlay)
    assert type(reference.overlay) is Overlay
    next_id = overlay.peers()[-1] + 1
    assert_worlds_agree(production, reference, range(next_id), overlay.peers()[:2], [0])
    for op, a, b in ops:
        assert apply(production, op, a, b, next_id) == apply(reference, op, a, b, next_id)
        next_id += 1
        peers = production.overlay.peers()
        sources = peers if op == "queries" else [peers[a % len(peers)]]
        holders = [peers[b % len(peers)], peers[(a + b) % len(peers)]]
        assert_worlds_agree(production, reference, range(next_id), sources, holders)
    for world in (production, reference):
        for retired, snapshot in world.retired:
            assert structure(retired) == snapshot


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    thresholds=st.tuples(st.sampled_from([0, 2, 7]), st.sampled_from([2, 9, None])),
    ops=st.lists(
        st.tuples(st.sampled_from(OPS), st.integers(0, 10_000), st.integers(0, 10_000)),
        min_size=1,
        max_size=14,
    ),
)
def test_random_interleavings_equal_reference(seed, thresholds, ops):
    run_interleaving(seed, thresholds, ops)


def test_interleaving_under_the_sanitizer_records_no_violation():
    """Every operation, twice over, in a process with ``REPRO_SANITIZE=1``."""
    root = Path(__file__).resolve().parents[2]
    code = """
import repro.sanitize as sanitize
assert sanitize.maybe_install()
from tests.search.test_ace_array_lowering import OPS, run_interleaving
run_interleaving(7, (2, 2), [(op, 3 * i + 1, 5 * i + 2) for i, op in enumerate(OPS * 2)])
assert sanitize.violation_count() == 0, sanitize.violations()
print("CLEAN")
"""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, cwd=root,
        env={"PYTHONPATH": f"{root / 'src'}:{root}", "PATH": "/usr/bin:/bin",
             "REPRO_SANITIZE": "1"},
    )
    assert "CLEAN" in proc.stdout, proc.stdout + proc.stderr
