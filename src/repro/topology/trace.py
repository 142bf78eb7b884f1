"""Synthetic Gnutella-crawl overlay ("DSS Clip2 trace" substitute).

Section 5 of the paper reports simulating ACE on "a real-world P2P topology
(based on DSS Clip2 trace)" and obtaining results consistent with generated
topologies.  The Clip2 Distributed Search Solutions crawl data is no longer
obtainable, so this module provides the closest synthetic equivalent:

* :func:`synthesize_gnutella_snapshot` builds an overlay whose degree
  distribution follows the power law measured on Gnutella crawls
  (exponent around 2.3, maximum degree capped as crawlers observed), with a
  giant component covering all peers.
* :func:`save_snapshot` / :func:`load_snapshot` serialize the logical
  topology in a simple crawl-file format (one ``peer: neighbor ...`` line per
  peer), standing in for the trace-parsing path the authors had.

The substitution preserves what the experiment depends on: the degree skew
and small-world shape of a real crawl, fed through exactly the same
simulation pipeline as generated topologies.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..rng import ensure_rng
from .overlay import Overlay
from .physical import PhysicalTopology

__all__ = [
    "synthesize_gnutella_snapshot",
    "save_snapshot",
    "load_snapshot",
    "snapshot_from_adjacency",
]


def _power_law_degrees(
    n: int,
    exponent: float,
    d_min: int,
    d_max: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample a graphical power-law degree sequence (even total)."""
    ds = np.arange(d_min, d_max + 1, dtype=float)
    probs = ds ** (-exponent)
    probs /= probs.sum()
    seq = rng.choice(np.arange(d_min, d_max + 1), size=n, p=probs)
    if seq.sum() % 2 == 1:
        seq[int(rng.integers(n))] += 1
    return seq.astype(np.int64)


def synthesize_gnutella_snapshot(
    physical: PhysicalTopology,
    n_peers: int = 1000,
    exponent: float = 2.3,
    d_min: int = 1,
    d_max: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> Overlay:
    """Build a Gnutella-crawl-shaped overlay on the given underlay.

    Uses a configuration-model pairing of a sampled power-law degree
    sequence, then removes self-loops/multi-edges and stitches the result
    into a single component (crawl snapshots are connected by construction —
    a crawler only reaches the giant component).
    """
    rng = ensure_rng(rng)
    if d_max is None:
        d_max = max(8, int(round(n_peers ** 0.5)))
    degrees = _power_law_degrees(n_peers, exponent, d_min, d_max, rng)

    candidates = physical.largest_component_nodes()
    if n_peers > len(candidates):
        raise ValueError("not enough physical hosts for the requested snapshot")
    host_idx = rng.choice(len(candidates), size=n_peers, replace=False)
    hosts = {i: candidates[int(h)] for i, h in enumerate(host_idx)}
    ov = Overlay(physical, hosts)

    stubs: List[int] = []
    for peer, d in enumerate(degrees):
        stubs.extend([peer] * int(d))
    stubs_arr = np.array(stubs)
    rng.shuffle(stubs_arr)
    for i in range(0, len(stubs_arr) - 1, 2):
        u, v = int(stubs_arr[i]), int(stubs_arr[i + 1])
        if u != v and not ov.has_edge(u, v):
            ov.connect(u, v)

    # Stitch smaller components onto the giant one (crawler reachability).
    comps = ov.components()
    giant = comps[0]
    giant_list = sorted(giant)
    for comp in comps[1:]:
        u = next(iter(comp))
        v = giant_list[int(rng.integers(len(giant_list)))]
        ov.connect(u, v)
        giant_list.extend(sorted(comp))
    return ov


def snapshot_from_adjacency(
    physical: PhysicalTopology,
    adjacency: Dict[int, Sequence[int]],
    hosts: Optional[Dict[int, int]] = None,
    rng: Optional[np.random.Generator] = None,
) -> Overlay:
    """Build an overlay from an explicit adjacency mapping.

    If *hosts* is omitted, peers are assigned random distinct hosts in the
    underlay's largest component.
    """
    rng = ensure_rng(rng)
    peers = sorted(set(adjacency) | {v for nbrs in adjacency.values() for v in nbrs})
    if hosts is None:
        candidates = physical.largest_component_nodes()
        if len(peers) > len(candidates):
            raise ValueError("not enough physical hosts")
        picked = rng.choice(len(candidates), size=len(peers), replace=False)
        hosts = {p: candidates[int(i)] for p, i in zip(peers, picked)}
    ov = Overlay(physical, {p: hosts[p] for p in peers})
    for u, nbrs in adjacency.items():
        for v in nbrs:
            if u != v and not ov.has_edge(u, v):
                ov.connect(u, v)
    return ov


def save_snapshot(overlay: Overlay, path: Union[str, Path]) -> None:
    """Write the logical topology in crawl-file format.

    Format: ``# peers: N`` header, then one ``peer: host n1 n2 ...`` line per
    peer (neighbors sorted, each edge appears on both endpoint lines).
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as f:
        f.write(f"# peers: {overlay.num_peers}\n")
        for p in overlay.peers():
            nbrs = " ".join(str(n) for n in sorted(overlay.neighbors(p)))
            f.write(f"{p}: {overlay.host_of(p)} {nbrs}\n".rstrip() + "\n")


def load_snapshot(
    physical: PhysicalTopology, path: Union[str, Path]
) -> Overlay:
    """Read a crawl file written by :func:`save_snapshot`."""
    path = Path(path)
    adjacency: Dict[int, List[int]] = {}
    hosts: Dict[int, int] = {}
    with path.open("r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            head, _, rest = line.partition(":")
            peer = int(head)
            fields = rest.split()
            if not fields:
                raise ValueError(f"malformed snapshot line for peer {peer}")
            hosts[peer] = int(fields[0])
            adjacency[peer] = [int(x) for x in fields[1:]]
    return snapshot_from_adjacency(physical, adjacency, hosts=hosts)
