"""The batched ACE kernel under churn at 100,000 peers (opt-in).

Set ``REPRO_SOA_SCALE=1`` to run a dynamic experiment — the vectorized step
kernel (:mod:`repro.core.batch_ace`) plus the vectorized churn driver, end
to end — on 100,000 peers over a 120,000-node underlay with the landmark
oracle, and append its numbers to ``BENCH_ace.json`` at the repo root (see
``EXPERIMENTS.md`` for the narrative trajectory).  Kernel == reference is
pinned by ``tests/core/test_batch_ace.py`` and
``tests/experiments/test_reproducibility.py``; step-loop speed is the
``peer_rounds_per_s`` metric of ``benchmarks/suite``.
"""

import os
import resource
import time

import pytest

from conftest import ACE_TRAJECTORY_PATH, record_trajectory, report

from repro.experiments.dynamic_env import DynamicConfig, run_dynamic_experiment
from repro.experiments.setup import ScenarioConfig, build_scenario
from repro.perf import counters
from repro.sim.churn import ChurnConfig

ORACLE = "landmark:16"
AVG_DEGREE = 6.0
SEED = 11

SCALE_PEERS = 100_000
SCALE_NODES = 120_000


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
