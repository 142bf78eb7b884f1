#!/usr/bin/env python
"""A churning Gnutella-like system, with and without ACE (paper Section 5.2).

Reproduces the dynamic environment of Figures 9 and 10 at laptop scale:
peers join and leave with log-normal lifetimes (mean 10 minutes), every peer
issues 0.3 queries per minute, and — in the ACE arm — every peer optimizes
its connections twice per minute.  The script prints the windowed traffic
and response-time series for three arms: Gnutella-like blind flooding, ACE,
and ACE combined with a 100-item response index cache.

Run:  python examples/dynamic_gnutella.py [peers] [queries]
"""

import sys

from repro.experiments.dynamic_env import DynamicConfig, run_dynamic_experiment
from repro.experiments.reporting import format_series
from repro.experiments.setup import ScenarioConfig, build_scenario
from repro.metrics.collector import left_fold


def main(peers: int = 100, total_queries: int = 600) -> None:
    window = total_queries // 6
    base = ScenarioConfig(
        physical_nodes=max(8 * peers, 400),
        peers=peers,
        avg_degree=8,
        seed=20,
    )
    arms = {}
    for name, kwargs in (
        ("gnutella", dict(enable_ace=False)),
        ("ace", dict(enable_ace=True)),
        ("ace+cache", dict(enable_ace=True, enable_cache=True)),
    ):
        print(f"Simulating the {name} arm "
              f"({peers} peers, {total_queries} queries, churn on)...")
        scenario = build_scenario(base)
        arms[name] = run_dynamic_experiment(
            scenario,
            DynamicConfig(total_queries=total_queries, window=window, **kwargs),
        )
        s = arms[name]
        print(f"  simulated {s.duration:,.0f} s of system time, "
              f"{s.departures} peer departures, "
              f"overhead traffic {s.total_overhead:,.0f}")

    x = list(range(1, 7))
    print()
    print(format_series(
        f"queries (x{window})", x,
        {n: [round(p) for p in s.traffic_points] for n, s in arms.items()},
        title="Average traffic cost per query (ACE arms include overhead) — Figure 9",
    ))
    print()
    print(format_series(
        f"queries (x{window})", x,
        {n: [round(p) for p in s.response_points] for n, s in arms.items()},
        title="Average response time per query — Figure 10",
    ))

    g, a, c = (arms[n] for n in ("gnutella", "ace", "ace+cache"))
    steady = lambda pts: left_fold(pts[3:]) / len(pts[3:])
    print()
    print(f"Steady-state traffic reduction, ACE vs gnutella-like: "
          f"{100 * (1 - steady(a.traffic_points) / steady(g.traffic_points)):.1f}%")
    print(f"Steady-state response reduction, ACE vs gnutella-like: "
          f"{100 * (1 - steady(a.response_points) / steady(g.response_points)):.1f}%")
    print(f"With index caching: "
          f"{100 * (1 - steady(c.traffic_points) / steady(g.traffic_points)):.1f}% "
          "traffic reduction")


if __name__ == "__main__":
    peers = int(sys.argv[1]) if len(sys.argv) > 1 else 100
    queries = int(sys.argv[2]) if len(sys.argv) > 2 else 600
    main(peers, queries)
