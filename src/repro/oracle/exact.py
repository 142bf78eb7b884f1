"""The exact delay oracle: a transparent front for the batched engine.

:class:`ExactOracle` delegates every query verbatim to the
:class:`~repro.topology.physical.PhysicalTopology` batched-Dijkstra + LRU
machinery — no extra caching, no value transformation, no additional
counter traffic.  An :class:`~repro.topology.overlay.Overlay` routing its
cost lookups through this oracle therefore behaves **byte-for-byte** like
one calling the underlay directly (same answers, same Dijkstra workload,
same perf-counter increments), which is what lets the oracle seam exist
without perturbing any seeded experiment
(``tests/experiments/test_reproducibility.py`` pins this).  Once an
overlay's fill has named its hosts, the underlay solves on its
series-reduced graph
(:meth:`~repro.topology.physical.PhysicalTopology.reduce_series`); the
answers stay those of the full graph, bit for bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Optional, Sequence

import numpy as np

from .base import DelayOracle

if TYPE_CHECKING:  # pragma: no cover - import-cycle-free type hints only
    from ..topology.physical import PhysicalTopology

__all__ = ["ExactOracle"]


class ExactOracle(DelayOracle):
    """Exact shortest-path delays via the underlay's Dijkstra engine."""

    def __init__(self, physical: "PhysicalTopology") -> None:
        self._physical = physical

    @property
    def physical(self) -> "PhysicalTopology":
        """The underlay this oracle answers for."""
        return self._physical

    def delay(self, u: int, v: int) -> float:
        """Exact delay between *u* and *v* (LRU-served, Dijkstra on miss)."""
        return self._physical.delay(u, v)

    def delays_from(
        self, source: int, targets: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Exact delays from *source*: the vector, or at *targets* only."""
        if targets is None:
            return self._physical.delays_from(source)
        return self._physical.delays_to(source, list(targets))

    def delays_from_many(
        self, sources: Iterable[int], cache: bool = True
    ) -> Dict[int, np.ndarray]:
        """Exact vectors for several sources via one batched solve."""
        return self._physical.delays_from_many(sources, cache=cache)

    def warm(self, sources: Iterable[int]) -> int:
        """Prefetch exact vectors for a working set (grows the LRU)."""
        return self._physical.warm(sources)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ExactOracle(num_nodes={self._physical.num_nodes})"
