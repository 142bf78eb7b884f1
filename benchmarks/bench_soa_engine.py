"""The struct-of-arrays overlay engine at 100,000 peers (opt-in).

Set ``REPRO_SOA_SCALE=1`` to run a static experiment — one ACE step plus
query measurement — on 100,000 peers over a 120,000-node underlay and
append its numbers to ``BENCH_soa.json`` at the repo root (see
``EXPERIMENTS.md`` for the narrative trajectory).  The run uses the
landmark delay oracle: with the exact backend the wall-clock is dominated
by the underlay Dijkstra floor (see ``bench_hotpath_delay.py`` for that
layer's own gate), which says nothing about the overlay engine.
"""

import os
import resource
import time

import pytest

from conftest import record_trajectory, report

from repro.experiments.setup import ScenarioConfig, build_scenario
from repro.experiments.static_env import run_static_experiment
from repro.perf import counters

ORACLE = "landmark:16"
AVG_DEGREE = 6.0
SEED = 11
STEPS = 1

SCALE_PEERS = 100_000
SCALE_NODES = 120_000


def _run(peers, nodes, samples):
    """One seeded static experiment; returns (series, timings, rss, perf)."""
    counters.reset()
    config = ScenarioConfig(
        physical_nodes=nodes,
        peers=peers,
        avg_degree=AVG_DEGREE,
        seed=SEED,
        oracle=ORACLE,
    )
    start = time.perf_counter()
    scenario = build_scenario(config)
    build_seconds = time.perf_counter() - start
    start = time.perf_counter()
    series = run_static_experiment(scenario, steps=STEPS, query_samples=samples)
    run_seconds = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return series, build_seconds, run_seconds, rss_mb, counters.snapshot()


@pytest.mark.skipif(
    not os.environ.get("REPRO_SOA_SCALE"),
    reason="100k-peer demonstration is opt-in: set REPRO_SOA_SCALE",
)
def test_soa_engine_100k_peers(capsys):
    """The headline: a 100,000-peer static experiment completes (array only)."""
    series, build_s, run_s, rss_mb, perf = _run(
        peers=SCALE_PEERS, nodes=SCALE_NODES, samples=2
    )
    assert series.traffic_per_query[-1] > 0

    report(capsys, "\n".join([
        f"100k-peer demonstration ({SCALE_PEERS:,} peers, "
        f"{SCALE_NODES:,} underlay nodes, {ORACLE}, {STEPS} ACE step):",
        f"  build {build_s:.1f}s, run {run_s:.1f}s "
        f"({SCALE_PEERS / run_s:,.0f} peers optimized/s), "
        f"peak RSS {rss_mb:.0f} MB",
        f"  traffic/query {series.traffic_per_query[0]:,.0f} -> "
        f"{series.traffic_per_query[-1]:,.0f}",
        "  array engine: {soa_compactions} compactions "
        "({soa_edit_buffer_flushes} with buffered edits), "
        "{array_state_syncs} state syncs".format(**perf),
    ]))

    record_trajectory(
        "bench_soa_engine_100k",
        peers=SCALE_PEERS,
        underlay_nodes=SCALE_NODES,
        oracle=ORACLE,
        steps=STEPS,
        query_samples=2,
        build_seconds=round(build_s, 2),
        run_seconds=round(run_s, 2),
        peers_per_second=round(SCALE_PEERS / run_s, 1),
        peak_rss_mb=round(rss_mb, 1),
        traffic_per_query=[round(t, 3) for t in series.traffic_per_query],
        soa_compactions=perf["soa_compactions"],
        soa_edit_buffer_flushes=perf["soa_edit_buffer_flushes"],
        array_state_syncs=perf["array_state_syncs"],
    )
