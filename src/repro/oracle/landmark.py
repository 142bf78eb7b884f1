"""Landmark-embedding delay oracle: k Dijkstra runs, then vector arithmetic.

The scheme the paper criticizes in Section 2 (Xu et al. [21]), made
measurable and selectable: pick *k* landmark hosts, solve one single-source
shortest-path problem per landmark (the only Dijkstra work the oracle ever
does), and answer every later query from the resulting ``(k, N)`` embedding.
For hosts *u*, *v* with landmark vectors ``x_u``, ``x_v`` the triangle
inequality gives hard bounds on the true delay ``d(u, v)``::

    L = max_i |x_u[i] - x_v[i]|   <=   d(u, v)   <=   min_i (x_u[i] + x_v[i]) = U

and the oracle answers with their midpoint ``(L + U) / 2``, the minimax
choice inside the bracket.  :meth:`LandmarkOracle.bounds` reports the
bracket itself, so its width is measurable against exact delays
(``docs/ORACLES.md`` tabulates the error).

Landmarks are chosen by greedy k-center ("maxmin"): start from a random
host, repeatedly add the host farthest from every landmark chosen so far.
That spreads landmarks across the delay space, which tightens the triangle
bounds, and the rows computed during selection *are* the embedding rows, so
it costs exactly k solves.

A parallel trial builds its own embedding from the seeded config, like its
underlay: the k solves cost a fraction of a second at 20,000 nodes.
"""

from __future__ import annotations

from operator import add, sub
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from ..perf import counters
from ..rng import ensure_rng
from .base import DelayOracle, Keep, Pool

if TYPE_CHECKING:  # pragma: no cover - import-cycle-free type hints only
    from ..topology.physical import PhysicalTopology

__all__ = ["LandmarkOracle"]


class LandmarkOracle(DelayOracle):
    """Midpoint delay estimates from a maxmin k-landmark embedding.

    Parameters
    ----------
    physical:
        The underlay to embed.
    n_landmarks:
        Number of landmarks *k* (capped at the largest component's size).
    rng:
        Seeded generator for the first landmark's draw; falls back to the
        repo-wide seeded default (never OS entropy).
    """

    def __init__(
        self,
        physical: "PhysicalTopology",
        n_landmarks: int = 16,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if n_landmarks < 1:
            raise ValueError("need at least one landmark")
        super().__init__(physical)
        self.landmarks, self._embedding = self._select_maxmin(
            n_landmarks, ensure_rng(rng)
        )
        #: Every host reachable from every landmark: the one-pair branch of
        #: :meth:`delay_pairs` then never meets the NaN -> inf rule.
        self._finite = bool(np.isfinite(self._embedding).all())

    # ------------------------------------------------------------------
    # Landmark selection and embedding
    # ------------------------------------------------------------------

    def _select_maxmin(
        self, n_landmarks: int, rng: np.random.Generator
    ) -> Tuple[List[int], np.ndarray]:
        """Greedy k-center selection, reusing its solves as the embedding."""
        hosts = self._physical.largest_component_nodes()
        k = min(n_landmarks, len(hosts))
        host_arr = np.asarray(hosts, dtype=np.int64)
        first = hosts[int(rng.integers(len(hosts)))]
        landmarks = [first]
        rows = [self._solve_row(first)]
        while len(landmarks) < k:
            # Distance of every candidate host to its nearest landmark; the
            # farthest candidate becomes the next landmark (ties resolve to
            # the smallest host id because `hosts` is sorted).
            nearest = np.min(np.vstack(rows)[:, host_arr], axis=0)
            nxt = int(host_arr[int(np.argmax(nearest))])
            if nxt in landmarks:  # pragma: no cover - degenerate graphs only
                break
            landmarks.append(nxt)
            rows.append(self._solve_row(nxt))
        return landmarks, np.vstack(rows)

    def _solve_row(self, landmark: int) -> np.ndarray:
        """One embedding row: exact delays from *landmark* to every node."""
        counters.landmark_embed_sources += 1
        return self._physical.delays_from_many([landmark])[landmark]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n_landmarks(self) -> int:
        """Number of landmarks *k*."""
        return len(self.landmarks)

    @property
    def embedding(self) -> np.ndarray:
        """The ``(k, N)`` landmark-to-node delay matrix (do not mutate)."""
        return self._embedding

    # ------------------------------------------------------------------
    # Bounds and estimates
    # ------------------------------------------------------------------

    def bounds(self, u: int, v: int) -> Tuple[float, float]:
        """Triangle-inequality bracket ``(L, U)`` with ``L <= d(u,v) <= U``.

        ``(0, 0)`` when ``u == v``; non-finite bounds mean a host is
        unreachable from the landmark set (nodes outside the largest
        component).
        """
        if u == v:
            return 0.0, 0.0
        xu = self._embedding[:, u]
        xv = self._embedding[:, v]
        with np.errstate(invalid="ignore"):
            lower = float(np.max(np.abs(xu - xv)))
            upper = float(np.min(xu + xv))
        return lower, upper

    # ------------------------------------------------------------------
    # DelayOracle interface
    # ------------------------------------------------------------------

    def _lookup(
        self, source: int, targets: List[int], keep: Optional[Pool] = None
    ) -> np.ndarray:
        # A pair is O(n_landmarks) arithmetic: estimate just the pairs asked;
        # no row is read, so *keep* is not used.
        return self.delay_pairs([source] * len(targets), targets)

    def delay_pairs(
        self,
        sources: Sequence[int],
        targets: Sequence[int],
        keep: Optional[Keep] = None,
    ) -> np.ndarray:
        """Pairwise embedding estimates, one column of the embedding per end.

        The same elementwise ops and axis-0 reductions over the landmark
        dimension at any number of pairs (max/min are order-exact), so a
        pair's estimate does not depend on the pairs beside it.  NaN (both
        hosts outside the landmarks' component: the embedding carries no
        information) is reported as unreachable, ``inf``.

        Exactly one pair over a finite embedding — a Phase-3 probe — runs
        the same operations on Python floats instead (:meth:`_estimate_pair`).
        Every answer is remembered; *keep* is not used, as no row is read.
        """
        if len(sources) == 1 and len(targets) == 1 and self._finite:
            d = self._estimate_pair(sources[0], targets[0])
            self._remember(sources, targets, [d])
            return np.array([d])
        us, vs = self._host_arrays(sources, targets)
        if len(us) == 0:
            return np.empty(0, dtype=np.float64)
        x = self._embedding
        xu = x[:, us]
        xv = x[:, vs]
        with np.errstate(invalid="ignore"):
            lower = np.max(np.abs(xu - xv), axis=0)
            upper = np.min(xu + xv, axis=0)
            est = 0.5 * (lower + upper)
        est = np.where(np.isnan(est), np.inf, est)
        est[us == vs] = 0.0
        counters.oracle_estimates += len(us)
        self._remember(us.tolist(), vs.tolist(), est.tolist())
        return est

    def _estimate_pair(self, u: int, v: int) -> float:
        """One :meth:`delay_pairs` entry on Python floats, finite embedding.

        ``abs``, ``+`` and ``0.5 *`` are each one correctly rounded IEEE
        operation here as in numpy and ``max`` / ``min`` are exact, so the
        bits equal the array path's (``tests/oracle/test_landmark.py``).
        """
        n = self._physical.num_nodes
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError("host id out of range")
        counters.oracle_estimates += 1
        if u == v:
            return 0.0
        xu = self._embedding[:, u].tolist()
        xv = self._embedding[:, v].tolist()
        lower = max(map(abs, map(sub, xu, xv)))
        upper = min(map(add, xu, xv))
        return 0.5 * (lower + upper)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LandmarkOracle(k={len(self.landmarks)}, "
            f"num_nodes={self._physical.num_nodes})"
        )
