"""Record the golden figures of the paper-default scenario.

``paper_default.json`` holds, as ``float.hex``, every figure of one static
run (10 ACE steps) and one dynamic run with churn (600 queries) at the
paper default: 160 peers on 1,200 underlay nodes, exact delays.  A second
dynamic run, ``dynamic_landmark``, repeats the churned one under the
``landmark:8`` oracle, whose estimates put link costs on the 2^-11 grid the
paper-scale benchmark workloads run on.  Beside its figures each series
holds ``ace_events``: per ACE step, its replacements, probes, redundant-link
sheds and keep-both adds, so a change that keeps the figures but moves what
a step did still shows.
``worlds.json`` holds sha256 digests of generated worlds: every underlay
kind under every overlay kind at 600 nodes / 120 peers (seeds 1-3), a Waxman
underlay sparse enough to need its components joined, the ``static_8k``
benchmark world (20,000 nodes / 8,000 peers, seed 61), and the synthetic
Gnutella crawl on every underlay kind (same sizes and seeds) and on the
``topology_properties`` figure row's underlay (``figures.BASE``).  An
underlay's digest covers its ``(u, v, delay.hex())`` links in order and its
coordinates; an overlay's covers its hosts and sorted adjacency.  A crawl
also records its epoch: one bump per peer and per link.
``tests/golden/test_golden.py`` recomputes both and compares the files bit
for bit.  A change that moves a figure or a world on purpose rewrites them
with::

    PYTHONPATH=src python tests/golden/regenerate.py

and says in CHANGES.md why it moved; the JSON diff is the review.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List

import numpy as np

from repro.core.ace import AceProtocol
from repro.experiments.dynamic_env import DynamicConfig, run_dynamic_experiment
from repro.experiments.figures import BASE
from repro.experiments.setup import ScenarioConfig, build_scenario
from repro.experiments.static_env import run_static_experiment
from repro.topology.generators import waxman
from repro.topology.overlay import (
    power_law_overlay,
    random_overlay,
    small_world_overlay,
    synthesize_gnutella_snapshot,
)
from repro.topology.soa import ArrayOverlay

GOLDEN = Path(__file__).with_name("paper_default.json")
WORLDS = Path(__file__).with_name("worlds.json")

CONFIG = ScenarioConfig(
    physical_nodes=1200, peers=160, avg_degree=6.0, seed=1, oracle="exact"
)
LANDMARK = dataclasses.replace(CONFIG, oracle="landmark:8")
DYNAMIC = DynamicConfig(total_queries=600, window=100)
UNDERLAY_KINDS = ("ba", "waxman", "glp", "ws")
OVERLAYS = {
    "random": random_overlay,
    "power_law": power_law_overlay,
    "small_world": small_world_overlay,
}


def _hexed(series: object) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for name, value in dataclasses.asdict(series).items():
        if isinstance(value, float):
            out[name] = value.hex()
        elif isinstance(value, list):
            out[name] = [v.hex() if isinstance(v, float) else v for v in value]
        else:
            out[name] = value
    return out


@contextmanager
def _ace_events() -> Iterator[List[List[int]]]:
    """Record ``[replacements, probes, sheds, keep-both adds]`` per ACE step."""
    events: List[List[int]] = []
    step = AceProtocol.step

    def counted(self, peers=None):
        report = step(self, peers)
        events.append([
            report.replacements, report.probes,
            report.redundant_sheds, report.keep_both_adds,
        ])
        return report

    AceProtocol.step = counted
    try:
        yield events
    finally:
        AceProtocol.step = step


def figures() -> Dict[str, Dict[str, object]]:
    """Every golden figure, computed by the code as it stands."""
    runs = {
        "static": lambda: run_static_experiment(build_scenario(CONFIG), steps=10),
        "dynamic": lambda: run_dynamic_experiment(build_scenario(CONFIG), DYNAMIC),
        "dynamic_landmark": lambda: run_dynamic_experiment(
            build_scenario(LANDMARK), DYNAMIC
        ),
    }
    out: Dict[str, Dict[str, object]] = {}
    for name, run in runs.items():
        with _ace_events() as events:
            out[name] = _hexed(run())
        out[name]["ace_events"] = events
    return out


def _sha256(*parts: object) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
    return digest.hexdigest()


def world_digest(overlay: ArrayOverlay) -> Dict[str, str]:
    """sha256 of an overlay's underlay and of its logical layer."""
    physical = overlay.physical
    peers = overlay.peers()
    return {
        "underlay": _sha256(
            [(int(u), int(v), float(d).hex()) for u, v, d in physical.edges()],
            np.ascontiguousarray(physical.coordinates, dtype=np.float64).tobytes(),
        ),
        "overlay": _sha256(
            [(p, overlay.host_of(p)) for p in peers],
            [sorted(overlay.neighbors(p)) for p in peers],
        ),
    }


def crawl_digest(physical, n_peers: int, seed: int) -> Dict[str, object]:
    """The digest and epoch of a synthetic crawl on *physical*."""
    crawl = synthesize_gnutella_snapshot(
        physical, n_peers=n_peers, rng=np.random.default_rng(seed)
    )
    return {**world_digest(crawl), "epoch": crawl.epoch}


def worlds() -> Dict[str, Dict[str, object]]:
    """The digest of every golden world, built by the code as it stands."""
    out: Dict[str, Dict[str, object]] = {}
    for underlay in UNDERLAY_KINDS:
        for kind in OVERLAYS:
            for seed in (1, 2, 3):
                config = ScenarioConfig(
                    physical_nodes=600, peers=120, underlay=underlay,
                    overlay_kind=kind, seed=seed,
                )
                scenario = build_scenario(config)
                out[f"{underlay}/{kind}/{seed}"] = world_digest(scenario.overlay)
                if kind == "random":
                    out[f"{underlay}/crawl/{seed}"] = crawl_digest(
                        scenario.physical, 120, seed
                    )
    # At alpha 0.02 a 600-node Waxman draw falls into ~45 components, so
    # these worlds also pin the closest-pair joins.
    for kind, build in OVERLAYS.items():
        for seed in (1, 2, 3):
            physical = waxman(600, alpha=0.02, rng=np.random.default_rng(seed))
            overlay = build(physical, 120, rng=np.random.default_rng(100 + seed))
            out[f"waxman_alpha_0.02/{kind}/{seed}"] = world_digest(overlay)
    static_8k = ScenarioConfig(physical_nodes=20000, peers=8000, avg_degree=6.0, seed=61)
    out["static_8k"] = world_digest(build_scenario(static_8k).overlay)
    # The crawl the topology_properties figure row analyses.
    out["topology_properties/crawl"] = crawl_digest(
        build_scenario(BASE).physical, BASE.peers, BASE.seed
    )
    return out


def main() -> None:
    GOLDEN.write_text(json.dumps(figures(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
    WORLDS.write_text(json.dumps(worlds(), indent=1) + "\n")
    print(f"wrote {WORLDS}")


if __name__ == "__main__":
    main()
