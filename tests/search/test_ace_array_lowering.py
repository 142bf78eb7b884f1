"""Array-lowered ACE forwarding graph vs. the row-by-row reference.

On the array engine :func:`repro.search.batch.compile_strategy` lowers the
ACE forwarding graph from the overlay's CSR and its link labels in one
mask; the reference walks ``sorted(protocol.flooding_neighbors(p))`` peer
by peer.  The two must agree field for field after any interleaving of
overlay mutations and label writes: every branch of the routing rule by
name below, random interleavings under hypothesis after that.

The interleaving test is two-sided: the same operations drive a production
world (``ArrayOverlay`` with its label column, batched step, compiled
strategies, ``run_queries``) and its object twin (a ``LabelledOverlay``
keeping the §3.3 labels in per-peer dicts, the per-peer reference loop,
row lowering, heap-engine ``run_queries``), and every observable — each
peer's labels and broken bit included — is compared after each one: the
randomized counterpart of the pinned-seed driver comparisons in
``tests/experiments/test_reproducibility.py``.
"""

import copy
import dataclasses
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.ace import AceConfig, AceProtocol
from repro.core.batch_ace import churn_refresh, store_closures
from repro.perf import counters
from repro.search.batch import ace_graph_by_rows, compile_strategy, run_queries
from repro.search.flooding import blind_flooding_strategy
from repro.search.tree_routing import ace_strategy
from repro.topology.generators import barabasi_albert
from repro.topology.overlay import small_world_overlay
from repro.topology.soa import FLOODING, NON_FLOODING, UNLABELLED, ArrayOverlay
from tests.reference import search as reference_search
from tests.reference import twin as twin_of
from tests.reference.ace import ReferenceAce, reference_churn_refresh
from tests.reference.labels import (
    LabelledOverlay,
    LabelledReferenceAce,
    labelled_twin,
)

ARRAYS = ("peer_ids", "indptr", "targets", "costs")


def make_world(seed, peers=24, compact_threshold=None):
    """Array overlay + protocol, compacting past *compact_threshold* edits."""
    rng = np.random.default_rng(seed)
    physical = barabasi_albert(120, m=2, rng=rng)
    overlay = twin_of(
        ArrayOverlay,
        small_world_overlay(physical, peers, avg_degree=6, rng=rng),
        compact_threshold=compact_threshold,
    )
    overlay.flush_edits()
    protocol = AceProtocol(overlay, AceConfig(depth=2), rng=rng)
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


def labelled(overlay, peer, wanted):
    """*peer*'s neighbors whose link it labelled *wanted*, ascending."""
    return sorted(q for q, label in overlay.link_labels(peer)[0].items() if label == wanted)


def tree_edge(overlay, protocol):
    """A live edge ``(p, q)`` that p labelled flooding."""
    return min((p, q) for p in overlay.peers() for q in labelled(overlay, p, FLOODING))


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
            assert row(graph, p) == labelled(overlay, p, FLOODING)

    def test_departed_flooding_neighbor_falls_back_to_all_live(self):
        overlay, protocol = make_world(3)
        protocol.rebuild_all_trees()
        p, q = tree_edge(overlay, protocol)
        overlay.remove_peer(q)
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
        p = min(labelled(overlay, top, FLOODING))
        assert top in labelled(overlay, p, FLOODING)
        overlay.remove_peer(top)
        graph = assert_equals_reference(overlay, protocol)
        assert row(graph, p) == sorted(overlay.neighbors(p))

    def test_neighbor_gained_since_phase_two_is_added(self):
        overlay, protocol = make_world(5)
        protocol.rebuild_all_trees()
        p = overlay.peers()[0]
        q = next(x for x in overlay.peers() if x != p and not overlay.has_edge(p, x))
        overlay.connect(p, q)
        graph = assert_equals_reference(overlay, protocol)
        assert row(graph, p) == sorted({*labelled(overlay, p, FLOODING), q})
        assert p in row(graph, q)

    def test_remade_flooding_link_leaves_the_tree_broken(self):
        # §3.3: the cut broke p's tree, and a new connection to the same
        # peer does not mend it — only p's next Phase 2 does.
        overlay, protocol = make_world(12)
        protocol.rebuild_all_trees()
        p, q = tree_edge(overlay, protocol)
        overlay.disconnect(p, q)
        overlay.connect(p, q)
        labels, broken = overlay.link_labels(p)
        assert broken and labels[q] == UNLABELLED
        graph = assert_equals_reference(overlay, protocol)
        assert row(graph, p) == sorted(overlay.neighbors(p))
        store_closures(protocol, [p])
        assert not overlay.link_labels(p)[1]
        assert_equals_reference(overlay, protocol)

    def test_remade_non_flooding_link_is_forwarded_on(self):
        overlay, protocol = make_world(13)
        protocol.rebuild_all_trees()
        p, q = min(
            (p, q) for p in overlay.peers() for q in labelled(overlay, p, NON_FLOODING)
        )
        tree = labelled(overlay, p, FLOODING)
        overlay.disconnect(p, q)
        overlay.connect(p, q)
        labels, broken = overlay.link_labels(p)
        assert not broken and labels[q] == UNLABELLED
        graph = assert_equals_reference(overlay, protocol)
        assert row(graph, p) == sorted({*tree, q})

    def test_reused_slot_starts_unlabelled_and_unbroken(self):
        overlay, protocol = make_world(14, compact_threshold=10_000)
        protocol.rebuild_all_trees()
        p, q = tree_edge(overlay, protocol)
        overlay.disconnect(p, q)  # p's tree breaks, then p leaves
        slot, host = overlay._index[p], overlay.host_of(p)
        overlay.remove_peer(p)
        joiner = overlay.peers()[-1] + 1
        overlay.add_peer(joiner, host)
        assert overlay._index[joiner] == slot
        for target in overlay.peers()[:3]:
            overlay.connect(joiner, target)
        labels, broken = overlay.link_labels(joiner)
        assert not broken and set(labels.values()) == {UNLABELLED}
        graph = assert_equals_reference(overlay, protocol)
        assert row(graph, joiner) == sorted(overlay.neighbors(joiner))

    def test_labels_survive_compaction_and_copy(self):
        overlay, protocol = make_world(15, compact_threshold=10_000)
        protocol.rebuild_all_trees()
        p, q = tree_edge(overlay, protocol)
        overlay.disconnect(p, q)  # a tombstone and a broken tree
        u = overlay.peers()[-1]
        v = next(x for x in overlay.peers() if x != u and not overlay.has_edge(u, x))
        overlay.connect(u, v)  # a buffered link ...
        store_closures(protocol, [u])  # ... labelled while buffered
        assert overlay._extra and overlay.link_labels(u)[0][v] != UNLABELLED

        def every_label(world):
            return {x: world.link_labels(x) for x in world.peers()}

        before = every_label(overlay)
        assert before[p][1]
        clone = overlay.copy()
        overlay._compact()
        assert not overlay._extra
        assert every_label(overlay) == before == every_label(clone)
        assert_equals_reference(overlay, protocol)
        clone.label_links(p, [])  # the copy's labels are its own
        assert every_label(overlay) == before != every_label(clone)

    def test_fresh_protocol_on_a_labelled_overlay_floods_everywhere(self):
        overlay, protocol = make_world(16)
        protocol.rebuild_all_trees()
        overlay.disconnect(*tree_edge(overlay, protocol))
        fresh = AceProtocol(overlay, protocol.config, rng=np.random.default_rng(0))
        graph = assert_equals_reference(overlay, fresh)
        flooding = compile_strategy(overlay, blind_flooding_strategy(overlay))
        for name in ARRAYS:
            assert getattr(graph, name).tobytes() == getattr(flooding, name).tobytes()

    def test_state_of_a_peer_the_overlay_lost_is_ignored(self):
        overlay, protocol = make_world(10)
        protocol.rebuild_all_trees()
        for victim in (overlay.peers()[0], overlay.peers()[-1]):
            overlay.remove_peer(victim)  # its links, and their labels, go
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
        for name in ("compiled_strategies", "soa_compactions"):
            assert got[name] == want[name] > 0, name
        # The one counter that moves: no per-row probe of the cost cache.
        assert got["edge_cost_hits"] < want["edge_cost_hits"]
        assert got["edge_cost_misses"] == want["edge_cost_misses"]


OPS = (
    "join", "leave", "connect", "disconnect", "remake", "step", "recompute",
    "refresh", "churn", "copy", "queries",
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
    overlay.remove_peer(departing)
    overlay.add_peer(joiner, host)
    for target in bootstrap:
        overlay.connect(joiner, target)
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
        overlay.connect(next_id, p)
    elif op == "leave" and len(peers) > 4:
        overlay.remove_peer(p)
    elif op == "connect" and p != q:
        return overlay.connect(p, q)
    elif op == "disconnect" and p != q:
        return overlay.disconnect(p, q)
    elif op == "remake" and p != q:
        # Cut and re-made before either end's next Phase 2: the one case
        # in which the label rule and the rule of remembered sets differ.
        return overlay.disconnect(p, q), overlay.connect(p, q)
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
        return store_closures(protocol, [p])
    elif op == "churn" and len(peers) > 4:
        bootstrap = [t for t in (q, peers[(b + 1) % len(peers)]) if t != p]
        return depart_and_replace(world, p, next_id, host, bootstrap)
    elif op == "copy":
        world.retired.append((overlay, structure(overlay)))
        world.overlay = protocol.overlay = overlay.copy()
    return None


def assert_worlds_agree(production, reference, sources, holders):
    """Every observable of the production world equals its object twin's."""
    for world in (production, reference):
        # The drivers' discipline: costs of edges made outside a step are
        # filled in the canonical direction before anything reads them.
        world.overlay.warm_edge_costs()
    assert structure(production.overlay) == structure(reference.overlay)
    got, want = production.protocol, reference.protocol
    twin = reference.overlay
    for peer in twin.peers():
        labels = {v: twin.labels[peer].get(v, UNLABELLED) for v in twin.neighbors(peer)}
        assert production.overlay.link_labels(peer) == (labels, twin.broken[peer]), peer
    assert got.state_version == want.state_version
    assert got.steps_run == want.steps_run
    assert got.last_actions == want.last_actions
    lowered = assert_equals_reference(production.overlay, got)
    assert_graphs_equal(lowered, ace_graph_by_rows(twin, want))
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


def run_interleaving(seed, compact, ops):
    """Drive production and its labelled object twin through *ops*."""
    overlay, protocol = make_world(seed, peers=14, compact_threshold=compact)
    production = World(overlay, protocol)
    twin = labelled_twin(overlay)
    reference = World(
        twin,
        LabelledReferenceAce(twin, protocol.config, rng=copy.deepcopy(protocol.rng)),
    )
    assert isinstance(production.overlay, ArrayOverlay)
    assert type(reference.overlay) is LabelledOverlay
    next_id = overlay.peers()[-1] + 1
    assert_worlds_agree(production, reference, overlay.peers()[:2], [0])
    for op, a, b in ops:
        assert apply(production, op, a, b, next_id) == apply(reference, op, a, b, next_id)
        next_id += 1
        peers = production.overlay.peers()
        sources = peers if op == "queries" else [peers[a % len(peers)]]
        holders = [peers[b % len(peers)], peers[(a + b) % len(peers)]]
        assert_worlds_agree(production, reference, sources, holders)
    for world in (production, reference):
        for retired, snapshot in world.retired:
            assert structure(retired) == snapshot


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# Every run covers the two ways a tree loses a link after a Phase 2: the
# cut of a link both ends labelled flooding, and the departure of a peer
# its neighbors' trees route through.
@example(seed=5, compact=None, ops=[("step", 0, 0), ("disconnect", 0, 12)])
@example(seed=5, compact=None, ops=[("step", 0, 0), ("leave", 0, 0)])
@given(
    seed=st.integers(0, 10_000),
    compact=st.sampled_from([2, 9, None]),
    ops=st.lists(
        st.tuples(st.sampled_from(OPS), st.integers(0, 10_000), st.integers(0, 10_000)),
        min_size=1,
        max_size=14,
    ),
)
def test_random_interleavings_equal_reference(seed, compact, ops):
    run_interleaving(seed, compact, ops)


def test_interleaving_under_the_sanitizer_records_no_violation():
    """Every operation, twice over, in a process with ``REPRO_SANITIZE=1``."""
    root = Path(__file__).resolve().parents[2]
    code = """
import repro.sanitize as sanitize
assert sanitize.maybe_install()
from tests.search.test_ace_array_lowering import OPS, run_interleaving
run_interleaving(7, 2, [(op, 3 * i + 1, 5 * i + 2) for i, op in enumerate(OPS * 2)])
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
