"""The exact delay oracle: the batched engine, behind one lookup rule.

:class:`ExactOracle` answers from the
:class:`~repro.topology.physical.PhysicalTopology` batched Dijkstra
without transforming a value: every answer is the float a fresh solve
gives.  Besides the host-pair store every oracle keeps
(:mod:`repro.oracle.base`), it holds *partial rows*: out of each row it
solves, the delays to the hosts its caller asked to keep — for an overlay,
the hosts Phase 3 can probe from there.  A bulk fill
(:meth:`ExactOracle.delay_pairs`) keeps them for every row it streams, and
a single-source query that has to solve keeps them for its source.  No
whole row is kept, and the underlay's LRU is never read.  A single-source
query is answered by one rule, which reads either end of a pair:

1. the host-pair store;
2. the partial rows — all of the pairs still open, or none;
3. a solve of the source.

Link delays sit on a grid, so ``d(u, v) == d(v, u)`` bit for bit and the
tier or end a float comes from never changes it; the tiers decide only
how many sources are solved.  Once a fill has named the linked hosts, the
underlay solves on its series-reduced graph
(:meth:`~repro.topology.physical.PhysicalTopology.reduce_series`) and
reads the asked hosts straight off the reduced rows; the answers stay
those of the full graph, bit for bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .base import DelayOracle, Keep, Pool

if TYPE_CHECKING:  # pragma: no cover - import-cycle-free type hints only
    from ..topology.physical import PhysicalTopology

__all__ = ["ExactOracle"]

_NOTHING = np.empty(0, dtype=np.int64)

#: Sources per batched solve of a bulk fill.  scipy's time per source does
#: not fall with the batch, and the transient ``(k, n)`` block it returns
#: grows with it.
_CHUNK = 32


def _greedy_cover(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """A vertex cover of the links ``a[i] - b[i]``, as a mask over ``0..n-1``.

    Greedy by degree, in rounds: a round takes every node whose count of
    uncovered links beats that of each neighbour over an uncovered link
    (ties go to the lower id) — the parallel form of "take the node that
    covers the most links".  The best node always wins, so each round
    covers at least one link.
    """
    chosen = np.zeros(n, dtype=bool)
    uncovered = np.ones(len(a), dtype=bool)
    while uncovered.any():
        u, v = a[uncovered], b[uncovered]
        degree = np.bincount(np.concatenate([u, v]), minlength=n)
        rank = degree * n + (n - 1 - np.arange(n))
        rival = np.zeros(n, dtype=np.int64)
        np.maximum.at(rival, u, rank[v])
        np.maximum.at(rival, v, rank[u])
        won = (degree > 0) & (rank > rival)
        chosen |= won
        uncovered &= ~(won[a] | won[b])
    return chosen


class ExactOracle(DelayOracle):
    """Exact shortest-path delays via the underlay's Dijkstra engine."""

    def __init__(self, physical: "PhysicalTopology") -> None:
        super().__init__(physical)
        #: Partial rows: source host -> (sorted hosts, their delays).
        self._partial: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        #: The narrowest integer type a partial row's hosts fit.
        self._host_type = np.min_scalar_type(physical.num_nodes - 1)

    def _lookup(
        self, source: int, targets: List[int], keep: Optional[Pool] = None
    ) -> np.ndarray:
        got = self._read_partial(source, targets)
        if got is None:
            pool = keep() if keep is not None else _NOTHING
            asked = np.concatenate([np.asarray(targets, dtype=np.int64), pool])
            row = self._physical.delays_from_many([source], [asked])[source]
            got = row[: len(targets)]
            self._keep_row(source, pool, row[len(targets) :])
        self._remember([source] * len(targets), targets, got.tolist())
        return got

    def _keep_row(self, host: int, pool: np.ndarray, values: np.ndarray) -> None:
        """Make *pool* and its delays *host*'s partial row, in place of an
        older one: a host keeps one pool, the one of its last solve.  An
        empty pool keeps nothing, so a row is never empty."""
        if len(pool):
            self._partial[host] = (pool.astype(self._host_type), values)

    def _read_partial(self, source: int, targets: List[int]) -> Optional[np.ndarray]:
        """Delays from *source* to *targets* out of the partial rows.

        A target is found in *source*'s row or, failing that, *source* in
        the target's row: on the delay grid both hold the same float.
        ``None`` unless every target is found.
        """
        partial = self._partial
        out = np.empty(len(targets))
        found = np.zeros(len(targets), dtype=bool)
        entry = partial.get(source)
        if entry is not None:
            pool, values = entry
            at = np.minimum(np.searchsorted(pool, targets), len(pool) - 1)
            found = pool[at] == targets
            out[found] = values[at[found]]
        for i in np.flatnonzero(~found).tolist():
            entry = partial.get(targets[i])
            if entry is None:
                return None
            pool, values = entry
            j = int(np.searchsorted(pool, source))
            if j == len(pool) or pool[j] != source:
                return None
            out[i] = values[j]
        return out

    def delays_from_many(
        self,
        sources: Iterable[int],
        targets: Optional[Sequence[Sequence[int]]] = None,
    ) -> Dict[int, np.ndarray]:
        """Exact delays from several sources via one batched solve, not kept:
        the chunk solve of :meth:`delay_pairs`
        (:meth:`~repro.topology.physical.PhysicalTopology.delays_from_many`)."""
        return self._physical.delays_from_many(sources, targets)

    def delay_pairs(
        self,
        sources: Sequence[int],
        targets: Sequence[int],
        keep: Optional[Keep] = None,
    ) -> np.ndarray:
        """Exact delays for aligned host pairs, solved from a vertex cover.

        One row per host of a greedy cover of the pairs (fewer solves than
        one fixed end of each pair), streamed in batches of
        :data:`_CHUNK` sources.  A pair is read off its source's row when
        the source is in the cover, else off its target's.  Each row is read
        only at its pairs' other ends and at the hosts *keep* names for it,
        which become that host's partial row.
        """
        us, vs = self._host_arrays(sources, targets)
        out = np.zeros(len(us), dtype=np.float64)
        solve = np.flatnonzero(us != vs)
        if not len(solve):
            return out
        self._physical.reduce_series(np.concatenate([us[solve], vs[solve]]))
        first = _greedy_cover(us[solve], vs[solve], self._physical.num_nodes)[us]
        read, other = np.where(first, us, vs), np.where(first, vs, us)
        order = solve[np.argsort(read[solve], kind="stable")]
        heads, starts = np.unique(read[order], return_index=True)
        groups = np.split(order, starts[1:])
        for start in range(0, len(heads), _CHUNK):
            chunk = heads[start : start + _CHUNK].tolist()
            at = groups[start : start + _CHUNK]
            kept = keep(first, np.concatenate(at)) if keep is not None else {}
            pools = [kept.get(h, _NOTHING) for h in chunk]
            asked = [np.concatenate([other[g], pool]) for g, pool in zip(at, pools)]
            rows = self.delays_from_many(chunk, asked)
            for h, g, pool in zip(chunk, at, pools):
                out[g] = rows[h][: len(g)]
                self._keep_row(h, pool, rows[h][len(g) :])
        self._remember(us.tolist(), vs.tolist(), out.tolist())
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ExactOracle(num_nodes={self._physical.num_nodes})"
