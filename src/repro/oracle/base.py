"""The delay-oracle seam: one protocol, swappable backends.

Every layer above the underlay consumes exactly one quantity — the
shortest-path delay between two physical hosts — but the *right way to
compute it* depends on scale.  The batched-Dijkstra engine answers exactly
and amortizes well up to paper scale (20,000 nodes); beyond that, exact
all-pairs warming stops being tractable and the landmark-embedding scheme
the paper criticizes in Section 2 (Xu et al. [21]) becomes the pragmatic
trade: *k* Dijkstra runs up front, vector arithmetic per query, bounded
error.

:class:`DelayOracle` is the seam that makes the trade selectable instead of
hard-coded: :class:`~repro.oracle.exact.ExactOracle` delegates to the
:class:`~repro.topology.physical.PhysicalTopology` engine (byte-identical
to calling it directly), :class:`~repro.oracle.landmark.LandmarkOracle`
answers from a landmark embedding with triangle-inequality error bounds.
:class:`~repro.topology.overlay.Overlay` routes every cost lookup through
its oracle; ``tests/test_perf.py`` holds ``repro.core``/``repro.search`` to
the seam (a landmark-oracle run solves nothing beyond its embedding).

The interface mirrors the underlay engine's access patterns on purpose —
scalar :meth:`~DelayOracle.delay`, single-source
:meth:`~DelayOracle.delays_from` (optionally restricted to a target list),
batched :meth:`~DelayOracle.delays_from_many`, and
:meth:`~DelayOracle.warm` prefetch — so swapping backends never changes
call sites, only answers.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import-cycle-free type hints only
    from ..topology.physical import PhysicalTopology

__all__ = ["DelayOracle"]


class DelayOracle(ABC):
    """Answers host-to-host shortest-path delay queries for one underlay.

    Implementations must be *deterministic* (same construction inputs, same
    answers — the repo's one-seed-one-figure contract extends through the
    oracle) and must report their work through
    :data:`repro.perf.counters` so experiments can budget it.
    """

    @property
    @abstractmethod
    def physical(self) -> "PhysicalTopology":
        """The underlay this oracle answers for."""

    @abstractmethod
    def delay(self, u: int, v: int) -> float:
        """Delay between hosts *u* and *v* (0 when ``u == v``)."""

    @abstractmethod
    def delays_from(
        self, source: int, targets: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Delays from *source* to every node, or just to *targets*.

        With ``targets=None`` returns the full length-``num_nodes`` vector
        (indexable by host id); otherwise a 1-D array aligned with
        *targets*.  The returned array must not be mutated by the caller.
        """

    @abstractmethod
    def delays_from_many(
        self, sources: Iterable[int], cache: bool = True
    ) -> Dict[int, np.ndarray]:
        """Full delay vectors for several sources: ``{source: vector}``.

        ``cache=False`` asks the backend not to retain the vectors beyond
        the call (bounded memory when streaming a large source set).
        """

    @abstractmethod
    def warm(self, sources: Iterable[int]) -> int:
        """Prefetch whatever makes later queries from *sources* cheap.

        Returns the number of sources actually solved now (0 when the
        backend has nothing to precompute — e.g. an embedding already
        covers every node).
        """

    #: Whether :meth:`delay_pairs` is cheap enough that callers should
    #: prefer it over vector prefetching.  ``False`` when answering one
    #: pair costs a full single-source solve (the exact engine); ``True``
    #: when a pair is O(landmarks) arithmetic (embedding backends).  The
    #: struct-of-arrays overlay consults this to decide between streaming
    #: whole vectors (and keeping a probe memo of them) and direct pairwise
    #: fills.
    pairwise_cheap: bool = False

    def delay_pairs(
        self, sources: Sequence[int], targets: Sequence[int]
    ) -> np.ndarray:
        """Delays for aligned ``(sources[i], targets[i])`` host pairs.

        Must return exactly the values the vector interface would:
        ``delay_pairs(us, vs)[i] == delays_from(us[i])[vs[i]]`` bit for
        bit, so callers may mix the two forms without perturbing the
        one-seed-one-figure contract.  The default groups by source and
        slices :meth:`delays_from` — one solve per distinct source;
        backends with a cheap pairwise form override it.
        """
        us = np.asarray(sources, dtype=np.int64)
        vs = np.asarray(targets, dtype=np.int64)
        if us.shape != vs.shape:
            raise ValueError("sources and targets must have equal length")
        out = np.empty(len(us), dtype=np.float64)
        by_source: Dict[int, List[int]] = {}
        for i, s in enumerate(us.tolist()):
            by_source.setdefault(int(s), []).append(i)
        for s, idx in by_source.items():
            got = self.delays_from(s, [int(vs[i]) for i in idx])
            out[idx] = got
        return out
