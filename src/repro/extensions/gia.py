"""Gia-style capacity-aware topology adaptation (related work [4]).

Chawathe, Ratnasamy, Breslau, Lanham & Shenker, "Making Gnutella-like P2P
Systems Scalable" (SIGCOMM 2003): a topology adaptation algorithm ensures
"that high capacity nodes are indeed the ones with high degree and low
capacity nodes are within short reach of high capacity nodes".

The paper's Section 2 positions Gia precisely: "It addresses a different
matching problem in overlay networks, but does not address the topology
mismatching problem between the overlay and physical networks."  This
module implements the adaptation so that a figure row can show both halves
of that sentence: Gia raises the capacity-degree correlation (its goal) but
leaves the underlay cost of the overlay — and hence flooding traffic —
essentially untouched, while ACE does the reverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..rng import ensure_rng
from ..topology.soa import ArrayOverlay

__all__ = ["GiaReport", "GiaAdaptation", "assign_capacities"]


def assign_capacities(
    peers: Sequence[int],
    rng: np.random.Generator,
    levels: Sequence[float] = (1.0, 10.0, 100.0, 1000.0),
    weights: Sequence[float] = (0.2, 0.45, 0.3, 0.05),
) -> Dict[int, float]:
    """Draw per-peer capacities from Gia's measured multi-level profile.

    The default levels/weights follow the Saroiu-measurement-derived
    distribution used in the Gia paper (capacities spanning three orders of
    magnitude).
    """
    if len(levels) != len(weights):
        raise ValueError("levels and weights must align")
    probs = np.asarray(weights, dtype=float)
    probs = probs / probs.sum()
    draws = rng.choice(len(levels), size=len(peers), p=probs)
    return {p: float(levels[int(d)]) for p, d in zip(peers, draws)}


@dataclass
class GiaReport:
    """Outcome of one adaptation round."""

    step_index: int
    rewires: int = 0
    satisfied_peers: int = 0


class GiaAdaptation:
    """Capacity-driven neighbor adaptation (simplified Gia).

    Each peer has a capacity and wants ``degree <= capacity_share``; an
    unsatisfied peer (degree too high for its capacity, or capacity to
    spare) adapts by connecting toward higher-capacity candidates and
    dropping its lowest-capacity neighbor.  Physical locality plays no role
    — exactly why Gia does not repair the mismatch.
    """

    def __init__(
        self,
        overlay: ArrayOverlay,
        capacities: Optional[Dict[int, float]] = None,
        rng: Optional[np.random.Generator] = None,
        degree_per_capacity: float = 2.0,
        min_degree: int = 2,
        max_degree: int = 32,
    ) -> None:
        self.overlay = overlay
        self.rng = ensure_rng(rng)
        if capacities is None:
            capacities = assign_capacities(overlay.peers(), self.rng)
        self.capacities = capacities
        self.degree_per_capacity = degree_per_capacity
        self.min_degree = min_degree
        self.max_degree = max_degree
        self._steps_run = 0

    @property
    def steps_run(self) -> int:
        """Completed adaptation rounds."""
        return self._steps_run

    def target_degree(self, peer: int) -> int:
        """The degree the peer's capacity entitles it to."""
        raw = self.degree_per_capacity * np.log10(
            1.0 + self.capacities.get(peer, 1.0)
        )
        return int(np.clip(round(self.min_degree + raw), self.min_degree,
                           self.max_degree))

    def capacity_degree_correlation(self) -> float:
        """Pearson correlation between capacity and logical degree."""
        peers = self.overlay.peers()
        if len(peers) < 3:
            return 0.0
        caps = np.array([np.log10(self.capacities[p]) for p in peers])
        degs = np.array([float(self.overlay.degree(p)) for p in peers])
        if caps.std() == 0 or degs.std() == 0:
            return 0.0
        return float(np.corrcoef(caps, degs)[0, 1])

    def optimize_peer(self, peer: int, report: GiaReport) -> bool:
        """One adaptation attempt: move a link toward higher capacity."""
        degree = self.overlay.degree(peer)
        target = self.target_degree(peer)
        if degree >= target:
            report.satisfied_peers += 1
            # Over-subscribed: shed the lowest-capacity neighbor.
            if degree > target:
                victim = min(
                    self.overlay.neighbors(peer),
                    key=lambda n: (self.capacities.get(n, 0.0), n),
                )
                if (
                    self.overlay.degree(victim) > self.min_degree
                    and degree > self.min_degree
                ):
                    self.overlay.disconnect(peer, victim)
                    report.rewires += 1
                    return True
            return False
        # Capacity to spare: connect toward a high-capacity candidate.
        exclude = set(self.overlay.neighbors(peer)) | {peer}
        pool = [p for p in self.overlay.peers() if p not in exclude]
        if not pool:
            return False
        k = min(4, len(pool))
        idx = self.rng.choice(len(pool), size=k, replace=False)
        best = max(
            (pool[int(i)] for i in idx),
            key=lambda c: (self.capacities.get(c, 0.0), c),
        )
        if self.overlay.degree(best) >= self.max_degree:
            return False
        self.overlay.connect(peer, best)
        report.rewires += 1
        return True

    def step(self) -> GiaReport:
        """One adaptation round at every peer, random order."""
        order = self.overlay.peers()
        self.rng.shuffle(order)
        report = GiaReport(step_index=self._steps_run)
        for peer in order:
            if self.overlay.has_peer(peer):
                self.optimize_peer(peer, report)
        self._steps_run += 1
        return report

    def run(self, steps: int) -> List[GiaReport]:
        """Run several rounds."""
        return [self.step() for _ in range(steps)]
