"""Overlay generators: the Gnutella-like logical networks the paper studies.

Peers (integer ids ``0..n-1``) are placed on random hosts of the underlay's
largest component and linked by one of four processes — uniform random,
preferential attachment, Holme–Kim small world, and the synthetic
Gnutella crawl that stands in for the DSS Clip2 trace.  Each generator
fills plain neighbor sets or link lists and packs the result straight into
the array engine every run uses (:class:`~repro.topology.soa.ArrayOverlay`),
at the epoch a link-by-link build reaches: one bump per peer and per link.
The dict-of-sets overlay those builds used to produce is the tests'
reference (``tests/reference/overlay.py``).
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

import numpy as np

from ..rng import ensure_rng
from .physical import PhysicalTopology
from .soa import ArrayOverlay

__all__ = [
    "random_overlay",
    "power_law_overlay",
    "small_world_overlay",
    "synthesize_gnutella_snapshot",
]


def _pick_hosts(
    physical: PhysicalTopology, n_peers: int, rng: np.random.Generator
) -> List[int]:
    if n_peers > physical.num_nodes:
        raise ValueError(
            f"cannot place {n_peers} peers on {physical.num_nodes} physical nodes"
        )
    candidates = physical.largest_component_nodes()
    if n_peers > len(candidates):
        raise ValueError(
            f"largest physical component has only {len(candidates)} nodes"
        )
    chosen = rng.choice(len(candidates), size=n_peers, replace=False)
    return [candidates[int(i)] for i in chosen]


def _installed(physical: PhysicalTopology, hosts: List[int], ends: List[int]) -> ArrayOverlay:
    """Peer ``i`` on ``hosts[i]``, linked by *ends* (``u0, v0, u1, v1, ...``),
    at the epoch a link-by-link build reaches: one bump per peer and per link."""
    overlay = ArrayOverlay._packed(physical, hosts, ends)
    overlay._epoch = len(hosts) + len(ends) // 2
    return overlay


def random_overlay(
    physical: PhysicalTopology,
    n_peers: int,
    avg_degree: float = 6.0,
    rng: Optional[np.random.Generator] = None,
) -> ArrayOverlay:
    """Uniform random overlay with the given average logical degree.

    This mirrors the paper's logical-topology generation: peers are placed on
    random physical hosts and connected at random — exactly the stochastic
    bootstrap-list connection process that *creates* the mismatch problem.
    The result is made connected by chaining components with random links.
    """
    rng = ensure_rng(rng)
    if avg_degree < 2:
        raise ValueError("avg_degree must be >= 2 to allow a connected overlay")
    hosts = _pick_hosts(physical, n_peers, rng)
    linked: Set[Tuple[int, int]] = set()
    target_edges = int(round(n_peers * avg_degree / 2.0))
    # Random spanning tree first (guarantees connectivity), then random fill.
    order = list(range(n_peers))
    rng.shuffle(order)
    for i in range(1, n_peers):
        u, v = order[i], order[int(rng.integers(i))]
        linked.add((min(u, v), max(u, v)))
    attempts = 0
    max_attempts = 20 * target_edges + 100
    while len(linked) < target_edges and attempts < max_attempts:
        u = int(rng.integers(n_peers))
        v = int(rng.integers(n_peers))
        attempts += 1
        if u != v:
            linked.add((min(u, v), max(u, v)))
    return _installed(physical, hosts, [x for link in linked for x in link])


def power_law_overlay(
    physical: PhysicalTopology,
    n_peers: int,
    avg_degree: float = 6.0,
    rng: Optional[np.random.Generator] = None,
) -> ArrayOverlay:
    """Preferential-attachment overlay (power-law degrees, Gnutella-like).

    Measurement studies cited by the paper ([7] and the DSS Clip2 crawls)
    found Gnutella overlays follow power laws; this generator reproduces that
    shape while keeping the same host-placement process as
    :func:`random_overlay`.
    """
    rng = ensure_rng(rng)
    m = max(1, int(round(avg_degree / 2.0)))
    if n_peers < m + 1:
        raise ValueError("n_peers too small for the requested degree")
    hosts = _pick_hosts(physical, n_peers, rng)
    # The pool lists both ends of every link: a draw is degree-proportional.
    pool: List[int] = []
    for u in range(m + 1):
        for v in range(u + 1, m + 1):
            pool += (u, v)
    for new in range(m + 1, n_peers):
        chosen: Set[int] = set()
        guard = 0
        while len(chosen) < m and guard < 50 * m:
            chosen.add(pool[int(rng.integers(len(pool)))])
            guard += 1
        for t in chosen:
            pool += (t, new)
    return _installed(physical, hosts, pool)


def small_world_overlay(
    physical: PhysicalTopology,
    n_peers: int,
    avg_degree: float = 6.0,
    triad_probability: float = 0.75,
    rng: Optional[np.random.Generator] = None,
) -> ArrayOverlay:
    """Power-law *and* small-world overlay (Holme–Kim triad formation).

    The paper's Section 4.1: "PP overlay topologies follow small world and
    power law properties.  Power law describes the node degree while small
    world describes characteristics of path length and clustering
    coefficient."  Plain preferential attachment yields the power law but
    vanishing clustering at scale; the Holme–Kim model adds a *triad
    formation* step — after a preferential attachment to peer ``t``, the
    next link goes to a random neighbor of ``t`` with probability
    *triad_probability* — producing the high clustering coefficient real
    Gnutella snapshots show.  This is the default overlay of the experiment
    scenarios, because ACE's Phase 2 prunes exactly the neighbor-neighbor
    links that clustering creates.
    """
    rng = ensure_rng(rng)
    if not 0.0 <= triad_probability <= 1.0:
        raise ValueError("triad_probability must be in [0, 1]")
    m = max(2, int(round(avg_degree / 2.0)))
    if n_peers < m + 1:
        raise ValueError("n_peers too small for the requested degree")
    hosts = _pick_hosts(physical, n_peers, rng)
    # Sets filled in link order iterate, and so draw, as the link-by-link
    # reference build's do (tests/reference/generators.py).
    adj: List[Set[int]] = [set() for _ in range(n_peers)]
    pool: List[int] = []
    for u in range(m + 1):
        for v in range(u + 1, m + 1):
            adj[u].add(v)
            adj[v].add(u)
            pool += (u, v)
    for new in range(m + 1, n_peers):
        mine = adj[new]
        links = 0
        last_target: Optional[int] = None
        guard = 0
        while links < m and guard < 50 * m:
            guard += 1
            target: Optional[int] = None
            if last_target is not None and rng.random() < triad_probability:
                # Triad formation: close a triangle through the last target,
                # to its pick-th neighbor other than new and new's links.
                nbrs = adj[last_target]
                free = len(nbrs) - (new in nbrs) - len(mine & nbrs)
                if free:
                    pick = int(rng.integers(free))
                    for x in nbrs:
                        if x != new and x not in mine:
                            if not pick:
                                target = x
                                break
                            pick -= 1
            if target is None:
                # Preferential attachment step.
                cand = pool[int(rng.integers(len(pool)))]
                if cand == new or cand in mine:
                    continue
                target = cand
            mine.add(target)
            adj[target].add(new)
            pool += (target, new)
            links += 1
            last_target = target
    return _installed(physical, hosts, pool)


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
) -> ArrayOverlay:
    """A Gnutella-crawl-shaped overlay: the DSS Clip2 trace substitute.

    Section 5 of the paper simulates ACE on "a real-world P2P topology
    (based on DSS Clip2 trace)"; that crawl is no longer obtainable, so this
    builds its closest synthetic equivalent.  Degrees are sampled from a
    power law with exponent *exponent* (2.3, the Gnutella-crawl figure) and
    capped at *d_max*, paired by the configuration model (self-loops and
    repeated links dropped), and the components are stitched into one, as a
    crawler only reaches the giant component.  With ``d_min = 1`` most peers
    keep one or two links: the maximum-likelihood fit over degrees >= 2
    reads alpha ~ 3.1 (EXPERIMENTS.md section 4.1), and the clustering
    coefficient is ~ 0 — a near-tree, not a small world.
    """
    rng = ensure_rng(rng)
    if d_max is None:
        d_max = max(8, int(round(n_peers ** 0.5)))
    degrees = _power_law_degrees(n_peers, exponent, d_min, d_max, rng)
    hosts = _pick_hosts(physical, n_peers, rng)
    stubs = np.repeat(np.arange(n_peers), degrees)
    rng.shuffle(stubs)
    adj: List[Set[int]] = [set() for _ in range(n_peers)]
    ends: List[int] = []
    paired = stubs.tolist()
    for u, v in zip(paired[::2], paired[1::2]):
        if u != v and v not in adj[u]:
            adj[u].add(v)
            adj[v].add(u)
            ends += (u, v)
    # Components by depth-first search, largest first.  Set iteration order
    # picks each stitched component's end, so the walk and its sets stay as
    # they are (tests/golden/worlds.json pins the crawl).
    comps: List[Set[int]] = []
    remaining = set(range(n_peers))
    while remaining:
        start = next(iter(remaining))
        seen, stack = {start}, [start]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        comps.append(seen)
        remaining -= seen
    comps.sort(key=len, reverse=True)
    giant = sorted(comps[0])
    for comp in comps[1:]:
        ends += (next(iter(comp)), giant[int(rng.integers(len(giant)))])
        giant.extend(sorted(comp))
    return _installed(physical, hosts, ends)
