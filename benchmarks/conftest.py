"""Shared state for the benchmark harness.

Each ``bench_*`` file regenerates one of the paper's tables or figures and
prints it (via ``report()``, which bypasses pytest's capture so the series
land in ``bench_output.txt``).  Heavy simulations that feed several figures —
the static convergence runs (Figs 7-8), the dynamic arms (Figs 9-10) and the
depth sweep (Figs 11-16) — are computed once per session and cached here;
the *first* bench touching a cached artifact pays (and times) its cost.

Scale: defaults are laptop-sized (~160 peers on a ~1200-node underlay; the
paper uses 8000 peers on 20,000 nodes).  Set ``REPRO_SCALE`` (e.g. ``4``) to
grow toward paper scale.

Nothing here times the engine or writes to the tree: speed is measured by
``python3 benchmarks/suite/run.py`` (``BENCHMARK.json``) and compared with
the parent commit's.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.depth_sweep import DepthSweepConfig, run_depth_sweep
from repro.experiments.dynamic_env import DynamicConfig, run_dynamic_trials
from repro.experiments.setup import ScenarioConfig, repro_workers
from repro.experiments.static_env import run_static_trials

#: Average-neighbor counts swept in Figures 7, 8, 11 and 12.
DEGREES = (4, 6, 8, 10)
#: Closure depths swept in Figures 11-16.
DEPTHS = (1, 2, 3, 4, 5, 6)

BASE = ScenarioConfig(physical_nodes=1200, peers=160, seed=42).scaled()
DYNAMIC_BASE = ScenarioConfig(
    physical_nodes=1200, peers=160, avg_degree=8, seed=42
).scaled()

_cache: Dict[str, object] = {}


def report(capsys, text: str) -> None:
    """Print a rendered table through pytest's capture."""
    with capsys.disabled():
        print()
        print(text)


def static_series():
    """Figure 7/8 series: one static convergence run per average degree.

    The per-degree trials are independent, so they fan out over a process
    pool when ``REPRO_WORKERS`` > 1; the underlay is built once, exported to
    shared memory, and attached zero-copy by every worker (no regeneration,
    no topology pickling).
    """
    if "static" not in _cache:
        configs = [
            ScenarioConfig(
                physical_nodes=BASE.physical_nodes,
                peers=BASE.peers,
                avg_degree=float(degree),
                seed=BASE.seed,
            )
            for degree in DEGREES
        ]
        results = run_static_trials(
            configs, steps=10, query_samples=16, max_workers=repro_workers()
        )
        _cache["static"] = dict(zip(DEGREES, results))
    return _cache["static"]


def depth_sweep():
    """Figure 11-16 input: the (C, h) trade-off sweep."""
    if "sweep" not in _cache:
        _cache["sweep"] = run_depth_sweep(
            DepthSweepConfig(
                degrees=DEGREES,
                depths=DEPTHS,
                convergence_steps=8,
                query_samples=16,
                base=BASE,
            )
        )
    return _cache["sweep"]


def dynamic_arms():
    """Figure 9/10 arms: Gnutella-like, ACE, and ACE + index cache.

    The three arms are independent simulations, so they ride the same
    ``REPRO_WORKERS`` fan-out (and shared-memory underlay) as the static
    trials; results are byte-identical to running them serially.
    """
    if "dynamic" not in _cache:
        # Keep the query budget an exact multiple of the window so no
        # partial final window concentrates the amortized overhead.
        window = max(150, DYNAMIC_BASE.peers)
        total = 6 * window
        names_kwargs = (
            ("gnutella", dict(enable_ace=False)),
            ("ace", dict(enable_ace=True)),
            ("ace+cache", dict(enable_ace=True, enable_cache=True)),
        )
        results = run_dynamic_trials(
            [
                (DYNAMIC_BASE,
                 DynamicConfig(total_queries=total, window=window, **kwargs))
                for _, kwargs in names_kwargs
            ],
            max_workers=repro_workers(),
        )
        _cache["dynamic"] = {
            name: series for (name, _), series in zip(names_kwargs, results)
        }
    return _cache["dynamic"]
