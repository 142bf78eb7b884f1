"""Batched multi-source propagation vs. the scalar reference engine.

PR 5's acceptance gate (see ``docs/PERFORMANCE.md``): on a warmed
blind-flooding overlay, compiling the strategy once and answering a batch
of query sources through the vectorized kernel
(:func:`repro.search.batch.propagate_many`) must be **>= 5x** faster than
looping the scalar heap engine — with bit-identical results, which this
bench spot-checks by materializing full ``QueryPropagation`` records from
the batch and comparing them (dataclass equality = exact float equality).

Scale: 2,000 peers on a 4,000-node underlay by default; set
``REPRO_BENCH_QUICK=1`` (the CI perf-smoke path) for a laptop-sized run
with a correspondingly softer 3x bar.

The compile gate (PR 15) runs at 2,000 peers in both modes: on the array
engine the ACE forwarding graph is lowered from the overlay's CSR and one
bulk read of the flat state store, which must be **>= 5x** faster than the
row-by-row reference compile of the same state and equal to it byte for
byte.  A churn run recompiles per epoch, so this is what keeps
``search.compile_s`` out of the ``churn_2k`` profile.
"""

import os
from time import perf_counter

import numpy as np

from conftest import report

from repro.core.ace import AceProtocol
from repro.perf import counters, reset_counters
import repro.search.batch as search_batch
from repro.search.batch import ace_graph_by_rows, propagate_many
from repro.search.flooding import blind_flooding_strategy, propagate
from repro.topology.generators import barabasi_albert
from repro.topology.overlay import small_world_overlay
from repro.topology.soa import ArrayOverlay

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") in ("1", "true")
UNDERLAY_NODES = 1000 if QUICK else 4000
PEERS = 500 if QUICK else 2000
N_SOURCES = 32 if QUICK else 64
SPEEDUP_BAR = 3.0 if QUICK else 5.0
EQUIVALENCE_SAMPLES = 6
SEED = 4242
COMPILE_PEERS = 2000
COMPILE_UNDERLAY_NODES = 4000
COMPILE_SPEEDUP_BAR = 5.0
COMPILE_REPEATS = 5


def _warmed_world():
    rng = np.random.default_rng(SEED)
    physical = barabasi_albert(UNDERLAY_NODES, m=2, rng=rng)
    overlay = small_world_overlay(physical, PEERS, avg_degree=6, rng=rng)
    overlay.warm_edge_costs()
    return overlay


def test_batched_propagation_speedup(capsys):
    overlay = _warmed_world()
    strategy = blind_flooding_strategy(overlay)
    peers = overlay.peers()
    rng = np.random.default_rng(SEED + 1)
    sources = [peers[int(i)] for i in rng.integers(0, len(peers), N_SOURCES)]

    # Scalar reference: one heap simulation per source.
    reset_counters()
    start = perf_counter()
    scalar_props = [
        propagate(overlay, s, strategy, ttl=None) for s in sources
    ]
    scalar_time = perf_counter() - start

    # Batched kernel: compile once, all sources through one solve.  The
    # first call pays the compile; the second measures the warmed steady
    # state the experiment loops live in.
    reset_counters()
    compile_start = perf_counter()
    propagate_many(overlay, sources[:1], strategy, ttl=None)
    compile_time = perf_counter() - compile_start
    compiled = counters.compiled_strategies
    start = perf_counter()
    batch = propagate_many(overlay, sources, strategy, ttl=None)
    batched_time = perf_counter() - start

    # TTL=7 rides the gated kernel (unbounded labels + fringe repair).
    start = perf_counter()
    propagate_many(overlay, sources, strategy, ttl=7)
    gated_time = perf_counter() - start

    speedup = scalar_time / batched_time if batched_time > 0 else float("inf")
    report(capsys, "\n".join([
        f"Batched propagation ({PEERS} peers, {N_SOURCES} sources, warmed"
        f"{', quick' if QUICK else ''}):",
        f"  scalar engine:      {scalar_time:.3f}s "
        f"({N_SOURCES / scalar_time:,.0f} queries/s)",
        f"  compile (once):     {compile_time:.3f}s "
        f"({compiled} strategies compiled)",
        f"  batched ttl=None:   {batched_time:.3f}s "
        f"({N_SOURCES / batched_time:,.0f} queries/s)",
        f"  batched ttl=7:      {gated_time:.3f}s "
        f"({N_SOURCES / gated_time:,.0f} queries/s)",
        f"  speedup (ttl=None): {speedup:.1f}x (bar: {SPEEDUP_BAR:g}x)",
    ]))

    # Equivalence is part of the gate: same floats, same counts.
    for i in range(0, N_SOURCES, max(1, N_SOURCES // EQUIVALENCE_SAMPLES)):
        assert batch.result(i) == scalar_props[i]
    assert counters.batched_queries >= 2 * N_SOURCES
    assert speedup >= SPEEDUP_BAR


def _best_of(fn, repeats=COMPILE_REPEATS):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = perf_counter()
        result = fn()
        best = min(best, perf_counter() - start)
    return best, result


def test_array_lowered_ace_compile_speedup(capsys):
    rng = np.random.default_rng(SEED)
    physical = barabasi_albert(COMPILE_UNDERLAY_NODES, m=2, rng=rng)
    overlay = ArrayOverlay.from_overlay(
        small_world_overlay(physical, COMPILE_PEERS, avg_degree=8, rng=rng)
    )
    protocol = AceProtocol(overlay, rng=rng)
    protocol.step()
    # What a churn run compiles against: some peers gone (their neighbors
    # fall back to flooding), state partly packed and partly pending.
    for peer in rng.choice(overlay.peers(), 20, replace=False).tolist():
        overlay.remove_peer(peer)
        protocol.handle_peer_left(peer)
    overlay.adjacency_csr()  # compact outside the timed region

    rows_time, reference = _best_of(lambda: ace_graph_by_rows(overlay, protocol))
    array_time, graph = _best_of(
        lambda: search_batch._lower_arrays(overlay, "ace", protocol)
    )
    speedup = rows_time / array_time if array_time > 0 else float("inf")
    report(capsys, "\n".join([
        f"ACE strategy compile ({COMPILE_PEERS} peers, "
        f"{graph.targets.size} forwarding edges, best of {COMPILE_REPEATS}):",
        f"  row by row (reference): {rows_time * 1e3:.1f} ms",
        f"  array-lowered:          {array_time * 1e3:.1f} ms",
        f"  speedup:                {speedup:.1f}x "
        f"(bar: {COMPILE_SPEEDUP_BAR:g}x)",
    ]))

    assert graph.index == reference.index
    for name in ("peer_ids", "indptr", "targets", "costs"):
        assert getattr(graph, name).tobytes() == getattr(reference, name).tobytes()
    assert speedup >= COMPILE_SPEEDUP_BAR
