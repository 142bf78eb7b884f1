#!/usr/bin/env python
"""Compare Phase-3 candidate policies and rival schemes (paper Sections 2/6).

Runs, on identical copies of one overlay:

* ACE with the paper's **random** policy,
* ACE with the **closest** and **naive** future-work policies (Section 6),
* the **AOTO** precursor (selective flooding + swap-only replacement), and
* a simplified **LTM** (triangle cutting, Section 2's comparison scheme),

reporting converged traffic, probe counts and final degree for each.

Run:  python examples/policy_comparison.py [peers]
"""

import sys

import numpy as np

from repro import AceConfig, AceProtocol, AotoProtocol, LtmProtocol
from repro.experiments.reporting import format_table
from repro.experiments.setup import ScenarioConfig, build_scenario
from repro.metrics.collector import left_fold
from repro.search.batch import run_queries
from repro.search.flooding import blind_flooding_strategy
from repro.search.tree_routing import ace_strategy

STEPS = 8


def main(peers: int = 96) -> None:
    scenario = build_scenario(ScenarioConfig(
        physical_nodes=max(8 * peers, 400), peers=peers, avg_degree=8, seed=40
    ))
    all_peers = scenario.overlay.peers()
    rng = np.random.default_rng(1)
    sources = [all_peers[int(i)] for i in rng.integers(0, len(all_peers), 12)]

    def measure(overlay, strategy):
        stats = run_queries(overlay, strategy, [(s, ()) for s in sources], ttl=None)
        return left_fold(r.traffic_cost for r in stats) / len(sources)

    baseline = measure(scenario.overlay, blind_flooding_strategy(scenario.overlay))
    print(f"Blind-flooding baseline: {baseline:,.0f} cost units per query\n")

    rows = []

    for policy in ("random", "closest", "naive"):
        overlay = scenario.fresh_overlay()
        protocol = AceProtocol(
            overlay, AceConfig(policy=policy), rng=np.random.default_rng(2)
        )
        reports = protocol.run(STEPS)
        traffic = measure(overlay, ace_strategy(protocol))
        rows.append([
            f"ace/{policy}",
            round(traffic),
            round(100 * (baseline - traffic) / baseline, 1),
            sum(r.probes for r in reports),
            round(overlay.average_degree(), 2),
        ])
        print(f"ACE with the {policy} policy done.")

    overlay = scenario.fresh_overlay()
    aoto = AotoProtocol(overlay, rng=np.random.default_rng(2))
    reports = aoto.run(STEPS)
    traffic = measure(overlay, ace_strategy(aoto))
    rows.append([
        "aoto",
        round(traffic),
        round(100 * (baseline - traffic) / baseline, 1),
        sum(r.probes for r in reports),
        round(overlay.average_degree(), 2),
    ])
    print("AOTO done.")

    overlay = scenario.fresh_overlay()
    ltm = LtmProtocol(overlay, rng=np.random.default_rng(2))
    ltm.run(STEPS)
    traffic = measure(overlay, blind_flooding_strategy(overlay))
    rows.append([
        "ltm (simplified)",
        round(traffic),
        round(100 * (baseline - traffic) / baseline, 1),
        0,
        round(overlay.average_degree(), 2),
    ])
    print("LTM done.\n")

    print(format_table(
        ["scheme", "traffic/query", "reduction %", "probes", "final degree"],
        rows,
        title=f"Scheme comparison after {STEPS} optimization rounds",
    ))
    print()
    print("Notes: 'closest' pays more probes for its reduction; 'naive'")
    print("explores globally without locality guidance; LTM reduces traffic")
    print("by *removing* connections (watch its final degree), the autonomy")
    print("trade-off the paper's related-work section points out.")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 96)
