"""Batched ACE optimization kernel vs. the object-model reference loop.

PR 8's acceptance gate (see the Layer-7 section of ``docs/PERFORMANCE.md``):
the vectorized step kernel (:mod:`repro.core.batch_ace` — one shared CSR
frontier sweep extracting every scheduled peer's closure, a flat phase-1
cost pass and a segmented local-index MST) must run the ACE step loop on a
10,000-peer overlay **>= 5x** faster than the untouched object-model
reference protocol — with identical step reports, which this bench asserts
field-for-field across both arms (byte-identity of the figures is pinned
exhaustively by ``tests/experiments/test_reproducibility.py`` and
``tests/core/test_batch_ace.py``).

Two arms, same underlay, same landmark oracle, same RNG stream:

* ``object``  — the reference step loop on the object-model overlay (dicts
  of dicts; the path the ISSUE names as *the untouched reference*).
* ``batched`` — the array (SoA) overlay driven by the batched kernel.

Both arms run the same sequential Phase-3 turn (:mod:`repro.core.turn`:
RNG-ordered probes and mutations), which bounds how far batching alone can
go once the per-peer closure/phase-1/MST work is vectorized.

Quick/CI mode (``REPRO_BENCH_QUICK=1``) trims the overlay to 2,000 peers
and softens the bar to 3x so the gate stays a smoke test; the headline
claim is the full 10k-peer ratio.  Set ``REPRO_SOA_SCALE=1`` to also run
the 100,000-peer *dynamic churn* demonstration (batched kernel +
vectorized churn driver end-to-end).

Every run appends a machine-readable entry to ``BENCH_ace.json`` at the
repo root (see ``EXPERIMENTS.md`` for the narrative trajectory).
"""

import dataclasses
import os
import resource
import time

import numpy as np
import pytest

from conftest import ACE_TRAJECTORY_PATH, record_trajectory, report

from repro.core.ace import AceConfig, AceProtocol
from repro.experiments.dynamic_env import DynamicConfig, run_dynamic_experiment
from repro.experiments.setup import ScenarioConfig, build_scenario
from repro.perf import counters
from repro.sim.churn import ChurnConfig

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") in ("1", "true")
PEERS = 2_000 if QUICK else 10_000
NODES = 2 * PEERS
ORACLE = "landmark:16"
AVG_DEGREE = 6.0
SEED = 11
STEPS = 2
SPEEDUP_BAR = 3.0 if QUICK else 5.0

SCALE_PEERS = 100_000
SCALE_NODES = 120_000


def _step_loop(engine, peers=PEERS, nodes=NODES):
    """Run STEPS optimization steps on a fresh scenario; time the loop only.

    Scenario build, cost warming and query measurement are excluded — the
    gate is about the step loop the kernel replaced, not the shared layers
    underneath it.
    """
    counters.reset()
    config = ScenarioConfig(
        physical_nodes=nodes,
        peers=peers,
        avg_degree=AVG_DEGREE,
        seed=SEED,
        oracle=ORACLE,
        engine=engine,
    )
    scenario = build_scenario(config)
    overlay = scenario.fresh_overlay()
    overlay.warm_edge_costs()
    protocol = AceProtocol(
        overlay, AceConfig(), rng=np.random.default_rng(SEED + 0xACE)
    )
    start = time.perf_counter()
    reports = [dataclasses.asdict(protocol.step()) for _ in range(STEPS)]
    seconds = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return reports, seconds, rss_mb, counters.snapshot()


@pytest.mark.perf_smoke
def test_ace_kernel_speedup(capsys):
    """Batched kernel >= 5x (3x quick) over the object reference loop."""
    obj_reports, obj_s, _, obj_perf = _step_loop("object")
    kern_reports, kern_s, rss_mb, kern_perf = _step_loop("array")

    # Identity is part of the gate: the two arms must disagree on nothing
    # but wall-clock.
    assert kern_reports == obj_reports
    assert kern_perf["ace_batched_steps"] == STEPS
    assert obj_perf["ace_batched_steps"] == 0

    speedup = obj_s / kern_s if kern_s > 0 else float("inf")
    report(capsys, "\n".join([
        f"Batched ACE kernel ({PEERS:,} peers, {NODES:,} underlay nodes, "
        f"{ORACLE}, {STEPS} ACE steps{', quick' if QUICK else ''}):",
        f"  object reference loop: {obj_s:.1f}s "
        f"({STEPS * PEERS / obj_s:,.0f} peer-rounds/s)",
        f"  array batched kernel:  {kern_s:.1f}s "
        f"({STEPS * PEERS / kern_s:,.0f} peer-rounds/s), "
        f"peak RSS {rss_mb:.0f} MB",
        f"  speedup vs object: {speedup:.1f}x (bar: {SPEEDUP_BAR:g}x)",
        "  ace kernel: {ace_batched_steps} batched steps, "
        "{closure_batch_peers} closures batch-extracted, "
        "{closure_reuses} closure reuses".format(**kern_perf),
    ]))

    record_trajectory(
        "bench_ace_kernel",
        path=ACE_TRAJECTORY_PATH,
        mode="quick" if QUICK else "full",
        peers=PEERS,
        underlay_nodes=NODES,
        oracle=ORACLE,
        steps=STEPS,
        object_seconds=round(obj_s, 2),
        batched_seconds=round(kern_s, 2),
        speedup_vs_object=round(speedup, 2),
        speedup_bar=SPEEDUP_BAR,
        batched_peer_rounds_per_second=round(STEPS * PEERS / kern_s, 1),
        peak_rss_mb=round(rss_mb, 1),
        ace_batched_steps=kern_perf["ace_batched_steps"],
        closure_batch_peers=kern_perf["closure_batch_peers"],
        closure_reuses=kern_perf["closure_reuses"],
    )
    assert speedup >= SPEEDUP_BAR


@pytest.mark.skipif(
    not os.environ.get("REPRO_SOA_SCALE"),
    reason="100k-peer demonstration is opt-in: set REPRO_SOA_SCALE",
)
def test_ace_kernel_100k_dynamic_churn(capsys):
    """The headline: 100k peers under churn, kernel + vectorized driver."""
    counters.reset()
    config = ScenarioConfig(
        physical_nodes=SCALE_NODES,
        peers=SCALE_PEERS,
        avg_degree=AVG_DEGREE,
        seed=SEED,
        oracle=ORACLE,
        engine="array",
    )
    start = time.perf_counter()
    scenario = build_scenario(config)
    build_s = time.perf_counter() - start
    # 600 Poisson queries over 100k peers at the paper's per-peer rate span
    # ~1.2 s of simulated time, so the churn and optimization timescales are
    # compressed to match: session lifetimes short enough for a few hundred
    # departures inside the window, ACE steps every 0.4 simulated seconds.
    dyn = DynamicConfig(
        total_queries=600,
        window=200,
        optimization_interval=0.4,
        churn=ChurnConfig(mean_lifetime=5.0, std_lifetime=2.5),
    )
    start = time.perf_counter()
    series = run_dynamic_experiment(scenario, dyn)
    run_s = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    perf = counters.snapshot()

    assert series.departures > 0
    assert perf["ace_batched_steps"] > 0
    assert perf["churn_batch_mutations"] > 0

    report(capsys, "\n".join([
        f"100k-peer dynamic churn ({SCALE_PEERS:,} peers, "
        f"{SCALE_NODES:,} underlay nodes, {ORACLE}):",
        f"  build {build_s:.1f}s, run {run_s:.1f}s, peak RSS {rss_mb:.0f} MB",
        f"  {series.total_queries} queries, {series.departures} departures, "
        f"mean traffic/query {series.mean_traffic:,.0f}",
        "  ace kernel: {ace_batched_steps} batched steps, "
        "{closure_batch_peers} closures batch-extracted, "
        "{churn_batch_mutations} churn mutations batched".format(**perf),
    ]))

    record_trajectory(
        "bench_ace_kernel_100k_churn",
        path=ACE_TRAJECTORY_PATH,
        peers=SCALE_PEERS,
        underlay_nodes=SCALE_NODES,
        oracle=ORACLE,
        total_queries=series.total_queries,
        departures=series.departures,
        build_seconds=round(build_s, 2),
        run_seconds=round(run_s, 2),
        peak_rss_mb=round(rss_mb, 1),
        traffic_points=[round(t, 3) for t in series.traffic_points],
        mean_traffic=round(series.mean_traffic, 3),
        total_overhead=round(series.total_overhead, 3),
        ace_batched_steps=perf["ace_batched_steps"],
        closure_batch_peers=perf["closure_batch_peers"],
        churn_batch_mutations=perf["churn_batch_mutations"],
    )
