"""The delay-oracle seam: one protocol, swappable backends, one delay store.

Every layer above the underlay consumes exactly one quantity — the
shortest-path delay between two physical hosts — but the *right way to
compute it* depends on scale.  The batched-Dijkstra engine answers exactly
and amortizes well up to paper scale (20,000 nodes); beyond that, exact
all-pairs solving stops being tractable and the landmark-embedding scheme
the paper criticizes in Section 2 (Xu et al. [21]) becomes the pragmatic
trade: *k* Dijkstra runs up front, vector arithmetic per query, bounded
error.

:class:`DelayOracle` is the seam that makes the trade selectable instead of
hard-coded: :class:`~repro.oracle.exact.ExactOracle` answers from the
:class:`~repro.topology.physical.PhysicalTopology` engine,
:class:`~repro.oracle.landmark.LandmarkOracle` from a landmark embedding
with triangle-inequality error bounds.  ``tests/test_perf.py`` holds
``repro.core``/``repro.search`` to the seam (a landmark-oracle run solves
nothing beyond its embedding).

The seam is three calls, the whole of what a run asks:
:meth:`~DelayOracle.known`, :meth:`~DelayOracle.delays_from` (one source,
listed targets) and :meth:`~DelayOracle.delay_pairs` (a bulk fill of
aligned pairs).  The oracle is also the one object that remembers a
host-pair delay.  A link's cost is a fact of its two hosts, so every pair
the two lookups answer goes into the oracle's store, and
:meth:`~DelayOracle.known` reads it back without doing any work.  Overlays
keep only their per-edge cost column: copies of an overlay share the store
because they share the oracle, and a new oracle starts with an empty one.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import-cycle-free type hints only
    from ..topology.physical import PhysicalTopology

__all__ = ["DelayOracle"]

#: ``keep(first, at)`` of :meth:`DelayOracle.delay_pairs`: ``first[i]`` says
#: pair ``i`` is read off its source's row (else off its target's), and *at*
#: lists the pairs whose rows are about to be read; the answer maps a host
#: whose row is read to the sorted hosts worth keeping from that row.
Keep = Callable[[np.ndarray, np.ndarray], Dict[int, np.ndarray]]

#: ``keep()`` of :meth:`DelayOracle.delays_from`: the sorted hosts worth keeping
#: from the source's row, asked only when that row is solved.
Pool = Callable[[], np.ndarray]


class DelayOracle(ABC):
    """Answers host-to-host shortest-path delay queries for one underlay.

    Implementations must be *deterministic* (same construction inputs, same
    answers — the repo's one-seed-one-figure contract extends through the
    oracle) and must report their work through
    :data:`repro.perf.counters` so experiments can budget it.
    """

    def __init__(self, physical: "PhysicalTopology") -> None:
        self._physical = physical
        #: The host-pair store, ``(lower host, higher host) -> delay``.
        self._store: Dict[Tuple[int, int], float] = {}

    @property
    def physical(self) -> "PhysicalTopology":
        """The underlay this oracle answers for."""
        return self._physical

    def known(self, u: int, v: int) -> Optional[float]:
        """The delay of *u*-*v* if it costs no work, else ``None``.

        0 for one host, otherwise the store's float; nothing is computed
        and no counter moves.
        """
        if u == v:
            return 0.0
        return self._store.get((u, v) if u < v else (v, u))

    def _remember(
        self, sources: Iterable[int], targets: Iterable[int], delays: Iterable[float]
    ) -> None:
        """Put answered pairs into the store."""
        store = self._store
        for u, v, d in zip(sources, targets, delays):
            store[(u, v) if u < v else (v, u)] = d

    def _host_arrays(
        self, sources: Sequence[int], targets: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """*sources* and *targets* as aligned int64 host arrays; a length
        mismatch or an id outside the underlay raises ``ValueError``."""
        us = np.asarray(sources, dtype=np.int64)
        vs = np.asarray(targets, dtype=np.int64)
        if us.shape != vs.shape:
            raise ValueError("sources and targets must have equal length")
        n = self._physical.num_nodes
        if len(us) and (min(us.min(), vs.min()) < 0 or max(us.max(), vs.max()) >= n):
            raise ValueError("host id out of range")
        return us, vs

    def delays_from(
        self, source: int, targets: Sequence[int], keep: Optional[Pool] = None
    ) -> np.ndarray:
        """Delays from *source* to *targets*, as an array aligned with them.

        Each pair the store holds is read from it, and the rest are answered
        by one backend lookup and remembered.  A backend that solves
        *source*'s row for them calls *keep* (see :data:`Pool`) and holds on
        to the part of the row it names; one that answers pairs directly
        ignores it.  The store holds only checked ids, so checking *source*
        here and the rest in the lookup refuses every id outside the
        underlay, a pair of one host included.
        """
        if not 0 <= source < self._physical.num_nodes:
            raise ValueError(f"source {source} out of range")
        held = [self.known(source, t) for t in targets]
        if None in held:
            rest = [t for t, d in zip(targets, held) if d is None]
            got = iter(self._lookup(source, rest, keep).tolist())
            held = [next(got) if d is None else d for d in held]
        return np.array(held, dtype=np.float64)

    @abstractmethod
    def _lookup(
        self, source: int, targets: List[int], keep: Optional[Pool] = None
    ) -> np.ndarray:
        """Delays from *source* to *targets*, none of them in the store;
        remembered before they are returned.  An id outside the underlay
        raises ``ValueError``."""

    @abstractmethod
    def delay_pairs(
        self,
        sources: Sequence[int],
        targets: Sequence[int],
        keep: Optional[Keep] = None,
    ) -> np.ndarray:
        """Delays for aligned ``(sources[i], targets[i])`` host pairs.

        The bulk fill: every pair is answered, none is looked up in the
        store first (a caller asks :meth:`known` before it lists a pair),
        and all are remembered.  Must return exactly the values the
        single-source form would: ``delay_pairs(us, vs)[i] ==
        delays_from(us[i], [vs[i]])[0]`` bit for bit, so callers may mix the
        two forms without perturbing the one-seed-one-figure contract.  An id
        outside the underlay raises ``ValueError`` before any pair is
        answered.  A backend that streams whole rows calls *keep* (see
        :data:`Keep`) with the end it reads each pair off, and holds on to
        the parts of those rows it names; one that answers pairs directly
        ignores it.
        """
