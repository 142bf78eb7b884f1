#!/usr/bin/env python
"""AS-border crossings: the paper's Section 1 motivation, quantified.

Builds a transit-stub Internet (stub domains = autonomous systems), places
a random Gnutella-like overlay on it, and measures what the paper's cited
studies measured: the share of logical connections that stay inside one AS
(Gnutella: 2-5%).  Then ACE runs and the script tracks, step by step, how
the overlay "comes home": intra-AS connections multiply and query traffic
falls, with the search scope untouched.

Run:  python examples/as_locality.py [peers]
"""

import sys

import numpy as np

from repro import AceProtocol
from repro.experiments.ascii_plot import line_chart, sparkline
from repro.experiments.reporting import format_table
from repro.metrics.collector import left_fold
from repro.search.batch import run_queries
from repro.search.flooding import blind_flooding_strategy
from repro.search.tree_routing import ace_strategy
from repro.topology.autonomous_systems import as_traffic_report, transit_stub
from repro.topology.overlay import small_world_overlay

STEPS = 10


def main(peers: int = 120) -> None:
    rng = np.random.default_rng(13)
    print("Building a transit-stub Internet (42 stub ASes on a 14-router core)...")
    topo, labels = transit_stub(
        transit_nodes=14, stubs_per_transit=3, stub_size=12, rng=rng
    )
    overlay = small_world_overlay(topo, peers, avg_degree=8, rng=rng)
    sources = overlay.peers()[:8]

    def measure(strategy):
        link = as_traffic_report(labels, overlay)
        stats = run_queries(overlay, strategy, [(s, ()) for s in sources], ttl=None)
        traffic = left_fold(r.traffic_cost for r in stats) / len(sources)
        return link.intra_link_fraction, traffic

    intra0, traffic0 = measure(blind_flooding_strategy(overlay))
    print(f"Random overlay: {100 * intra0:.1f}% of logical connections stay "
          "inside one AS")
    print("  (the paper's cited measurement of Gnutella: 2-5%)")
    print()

    protocol = AceProtocol(overlay, rng=rng)
    intra_series = [100 * intra0]
    traffic_series = [traffic0]
    for _ in range(STEPS):
        protocol.step()
        intra, traffic = measure(ace_strategy(protocol))
        intra_series.append(100 * intra)
        traffic_series.append(traffic)

    print(format_table(
        ["step", "intra-AS links %", "traffic/query"],
        [
            (k, round(intra_series[k], 1), round(traffic_series[k]))
            for k in range(STEPS + 1)
        ],
        title="ACE bringing the overlay home:",
    ))
    print()
    print("intra-AS link share per step: ", sparkline(intra_series))
    print("traffic per query per step:   ", sparkline(traffic_series))
    print()
    norm = [t / traffic_series[0] for t in traffic_series]
    locality = [v / max(intra_series) for v in intra_series]
    print(line_chart(
        {"traffic (normalized)": norm, "AS locality (normalized)": locality},
        height=9,
    ))
    print()
    print(f"After {STEPS} steps: intra-AS links x"
          f"{intra_series[-1] / max(intra_series[0], 0.1):.1f}, "
          f"traffic -{100 * (1 - traffic_series[-1] / traffic_series[0]):.1f}%")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 120)
