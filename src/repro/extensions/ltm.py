"""LTM — Location-aware Topology Matching (simplified comparator).

Reference [9] of the paper: "each peer issues a detector in a small region so
that the peers receiving the detector can record relative delay information.
Based on the delay information, a receiver can detect and cut most of the
inefficient and redundant logical links, and add closer nodes as its direct
neighbors."  The paper positions LTM as its own earlier alternative that
"creates slightly more overhead and requires that the clocks in all peers be
synchronized."

This module implements the scheme's core mechanism at the same abstraction
level as our ACE: each peer floods a TTL-2 detector, learns the delays of
the logical triangles it sits in, and **cuts the most expensive link of each
triangle it is an endpoint of** (the link a query would traverse redundantly
— Section 3.1's L-M situation in Figure 1).  Cutting the triangle's longest
edge can never disconnect the overlay and never shrinks the search scope,
because the two shorter sides remain.

The clock-synchronization requirement and the probabilistic
connection-adding of the full LTM are out of scope; the comparison
figure rows therefore pair LTM's cutting with blind flooding, which is how
its traffic saving materializes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..metrics.collector import left_fold
from ..rng import ensure_rng
from ..topology.soa import ArrayOverlay

__all__ = ["LtmReport", "LtmProtocol"]

#: Detector scope: the original scheme floods detectors with TTL 2.
DETECTOR_TTL = 2


@dataclass
class LtmReport:
    """Outcome of one LTM round."""

    step_index: int
    cuts: int = 0
    detector_overhead: float = 0.0
    triangles_seen: int = 0


class LtmProtocol:
    """Triangle-cutting topology matcher (simplified LTM)."""

    def __init__(
        self,
        overlay: ArrayOverlay,
        rng: Optional[np.random.Generator] = None,
        min_degree: int = 2,
        round_trip_factor: float = 1.0,
    ) -> None:
        self.overlay = overlay
        self.rng = ensure_rng(rng)
        self.min_degree = min_degree
        self.round_trip_factor = round_trip_factor
        self._steps_run = 0

    @property
    def steps_run(self) -> int:
        """Number of completed LTM rounds."""
        return self._steps_run

    def _detector_overhead(self, peer: int) -> float:
        """Traffic of one TTL-2 detector flood from *peer*.

        The detector travels every logical link out of the peer and is
        re-flooded once by each direct neighbor (TTL 2), so the charge is
        the peer's link costs plus its neighbors' link costs.
        """
        nbrs = sorted(self.overlay.neighbors(peer))
        total = left_fold(self.overlay.costs_from(peer, nbrs).values())
        for nbr in nbrs:
            seconds = [s for s in sorted(self.overlay.neighbors(nbr)) if s != peer]
            if seconds:
                total += left_fold(self.overlay.costs_from(nbr, seconds).values())
        return total * self.round_trip_factor

    def optimize_peer(self, peer: int, report: LtmReport) -> int:
        """One peer's detection round: cut its worst triangle edges.

        The peer only ever cuts links it is an endpoint of (the protocol is
        distributed); it cuts link (peer, b) when some triangle
        peer-a-b exists in which (peer, b) is strictly the most expensive
        side, and the cut respects the degree floor.
        """
        report.detector_overhead += self._detector_overhead(peer)
        cuts = 0
        neighbors = sorted(self.overlay.neighbors(peer))
        d_peer = self.overlay.costs_from(peer, neighbors)
        # Batch the closing-side costs up front: the peer only ever cuts its
        # own links, so (a, b) edges — and their costs — are invariant for
        # the whole round.  One costs_from sweep per apex replaces a scalar
        # cost() fault per triangle.
        d_close: dict = {}
        for i, a in enumerate(neighbors):
            closing = [b for b in neighbors[i + 1 :] if self.overlay.has_edge(a, b)]
            if closing:
                row = self.overlay.costs_from(a, closing)
                for b in closing:
                    d_close[(a, b)] = row[b]
        for i, a in enumerate(neighbors):
            if not self.overlay.has_edge(peer, a):
                continue
            for b in neighbors[i + 1 :]:
                if not self.overlay.has_edge(peer, b):
                    continue
                if (a, b) not in d_close:
                    continue
                report.triangles_seen += 1
                d_pa = d_peer[a]
                d_pb = d_peer[b]
                d_ab = d_close[(a, b)]
                # Cut the strictly longest side if it is incident to us.
                if d_pb > d_pa and d_pb > d_ab:
                    victim = b
                elif d_pa > d_pb and d_pa > d_ab:
                    victim = a
                else:
                    continue
                if (
                    self.overlay.degree(peer) > self.min_degree
                    and self.overlay.degree(victim) > self.min_degree
                ):
                    self.overlay.disconnect(peer, victim)
                    cuts += 1
        report.cuts += cuts
        return cuts

    def step(self) -> LtmReport:
        """One LTM round at every peer, in random order."""
        order = self.overlay.peers()
        self.rng.shuffle(order)
        report = LtmReport(step_index=self._steps_run)
        for peer in order:
            if self.overlay.has_peer(peer):
                self.optimize_peer(peer, report)
        self._steps_run += 1
        return report

    def run(self, steps: int) -> List[LtmReport]:
        """Run several rounds; returns one report per round."""
        return [self.step() for _ in range(steps)]
