"""Hybrid Periodical Flooding (the authors' reference [23], simplified).

Zhuang, Liu, Xiao & Ni, "Hybrid Periodical Flooding in Unstructured
Peer-to-Peer Networks" (ICPP 2003): instead of relaying a query to *all*
neighbors, a peer forwards to a weighted subset — a fraction of its
neighbor list, chosen uniformly at random, by degree (reach more peers per
message) or by cost (stay physically local).

HPF trades search scope for traffic: coverage becomes probabilistic.  It is
*orthogonal* to ACE (which keeps full scope); the figure rows combine the two
to show the mismatch repair also benefits partial-flooding schemes.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

import numpy as np

from ..search.flooding import ForwardingStrategy
from ..topology.overlay import Overlay

__all__ = ["hpf_strategy", "HPF_WEIGHTINGS"]

#: Supported neighbor-selection weightings.
HPF_WEIGHTINGS = ("random", "degree", "cost")


def hpf_strategy(
    overlay: Overlay,
    rng: np.random.Generator,
    fraction: float = 0.5,
    min_neighbors: int = 2,
    weighting: str = "random",
) -> ForwardingStrategy:
    """Partial-flooding strategy: forward to a weighted neighbor subset.

    Parameters
    ----------
    fraction:
        Target fraction of the neighbor list each relay forwards to.
    min_neighbors:
        Floor on the subset size (coverage collapses below ~2).
    weighting:
        ``"random"`` — uniform subset; ``"degree"`` — prefer high-degree
        neighbors (maximize reach); ``"cost"`` — prefer physically close
        neighbors (minimize underlay cost).

    The returned strategy is stochastic: each call re-draws the subset, so
    build one strategy per query for reproducibility.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    if min_neighbors < 1:
        raise ValueError("min_neighbors must be >= 1")
    if weighting not in HPF_WEIGHTINGS:
        raise ValueError(
            f"unknown weighting {weighting!r}; choose from {HPF_WEIGHTINGS}"
        )

    def strategy(peer: int, came_from: Optional[int]) -> Iterable[int]:
        nbrs = sorted(overlay.neighbors(peer))
        if came_from in nbrs and len(nbrs) > 1:
            nbrs.remove(came_from)
        if not nbrs:
            return []
        k = min(len(nbrs), max(min_neighbors, math.ceil(fraction * len(nbrs))))
        if k >= len(nbrs):
            return nbrs
        if weighting == "random":
            idx = rng.choice(len(nbrs), size=k, replace=False)
            return [nbrs[int(i)] for i in idx]
        if weighting == "degree":
            weights = np.array([overlay.degree(n) for n in nbrs], dtype=float)
        else:  # cost: prefer cheap links
            weights = np.array(
                [1.0 / (1.0 + overlay.cost(peer, n)) for n in nbrs], dtype=float
            )
        probs = weights / weights.sum()
        idx = rng.choice(len(nbrs), size=k, replace=False, p=probs)
        return [nbrs[int(i)] for i in idx]

    return strategy
