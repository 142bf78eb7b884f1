#!/usr/bin/env python
"""Quickstart: fix a mismatched overlay with ACE.

Builds a BRITE-style underlay, places a Gnutella-like overlay on it, runs
ACE for ten optimization steps and shows the before/after traffic cost,
response time and search scope of a full-coverage query.

Run:  python examples/quickstart.py [seed]
"""

import sys

import numpy as np

from repro import (
    AceConfig,
    AceProtocol,
    ObjectCatalog,
    WorkloadConfig,
    ace_strategy,
    barabasi_albert,
    blind_flooding_strategy,
    run_queries,
    small_world_overlay,
)
from repro.metrics.collector import left_fold


def main(seed: int = 9) -> None:
    rng = np.random.default_rng(seed)

    print("1. Building a 1000-node physical underlay (Barabasi-Albert)...")
    physical = barabasi_albert(1000, m=2, rng=rng)

    print("2. Placing a 128-peer Gnutella-like overlay (avg degree 8)...")
    overlay = small_world_overlay(physical, 128, avg_degree=8, rng=rng)
    print(f"   peers={overlay.num_peers} links={overlay.num_edges} "
          f"avg degree={overlay.average_degree():.2f}")

    catalog = ObjectCatalog(
        overlay.peers(), WorkloadConfig(num_objects=100, replicas_per_object=8), rng
    )
    sources = overlay.peers()[:12]

    def measure(strategy, label):
        traffic, responses, scope = 0.0, [], 0
        queries = [
            (src, catalog.holders_of(i % catalog.num_objects))
            for i, src in enumerate(sources)
        ]
        for result in run_queries(overlay, strategy, queries, ttl=None):
            traffic += result.traffic_cost
            scope = result.search_scope
            if result.first_response_time is not None:
                responses.append(result.first_response_time)
        avg_traffic = traffic / len(sources)
        avg_response = left_fold(responses) / len(responses)
        print(f"   {label}: traffic/query={avg_traffic:,.0f} "
              f"response={avg_response:,.0f} scope={scope}")
        return avg_traffic, avg_response

    print("3. Measuring blind flooding (the Gnutella baseline)...")
    before = measure(blind_flooding_strategy(overlay), "blind flooding")

    print("4. Running ACE (depth h=1, random policy) for 10 steps...")
    protocol = AceProtocol(overlay, AceConfig(depth=1), rng=rng)
    for report in protocol.run(10):
        print(f"   step {report.step_index + 1}: "
              f"{report.replacements} replacements, "
              f"{report.keep_both_adds} keep-both adds, "
              f"{report.redundant_sheds} sheds")

    print("5. Measuring ACE tree routing on the optimized overlay...")
    after = measure(ace_strategy(protocol), "ACE routing ")

    print()
    print(f"Traffic reduction:  {100 * (1 - after[0] / before[0]):.1f}% "
          "(paper: ~50% in 10 steps)")
    print(f"Response reduction: {100 * (1 - after[1] / before[1]):.1f}% "
          "(paper: ~35%)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 9)
