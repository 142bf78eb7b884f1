"""Landmark-embedding delay oracle: k Dijkstra runs, then vector arithmetic.

The scheme the paper criticizes in Section 2 (Xu et al. [21]), made
measurable and selectable: pick *k* landmark hosts, solve one single-source
shortest-path problem per landmark (the only Dijkstra work the oracle ever
does), and answer every later query from the resulting ``(k, N)`` embedding.
For hosts *u*, *v* with landmark vectors ``x_u``, ``x_v`` the triangle
inequality gives hard bounds on the true delay ``d(u, v)``::

    L = max_i |x_u[i] - x_v[i]|   <=   d(u, v)   <=   min_i (x_u[i] + x_v[i]) = U

so the oracle can report not just an estimate but its error bracket, fall
back to the exact engine when the bracket is too wide (a bounded per-oracle
budget), and *validate* a requested ``accuracy`` against exact delays on a
seeded sample at construction time — failing loudly with
:class:`~repro.oracle.base.OracleAccuracyError` instead of silently serving
garbage.

Landmark selection strategies (all deterministic given the construction
RNG):

* ``random`` — uniform draw from the largest component, reproducing the
  exact seeded draw order of the historical
  :class:`~repro.extensions.landmark.LandmarkMatcher` (which is now a thin
  adapter over this class);
* ``degree`` — the highest-degree hosts (hub landmarks see short paths to
  most of the network), ties broken by node id, no RNG consumed;
* ``maxmin`` — greedy k-center: start from a random host, repeatedly add
  the host farthest from every landmark chosen so far.  Spreads landmarks
  across the delay space, which tightens the triangle bounds; the rows
  computed during selection *are* the embedding rows, so it costs the same
  k solves.

A parallel trial builds its own embedding from the seeded config, like its
underlay: the k solves cost a fraction of a second at 20,000 nodes.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from operator import add, sub
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..perf import counters
from ..rng import ensure_rng
from .base import DelayOracle, OracleAccuracyError

if TYPE_CHECKING:  # pragma: no cover - import-cycle-free type hints only
    from ..topology.physical import PhysicalTopology

__all__ = [
    "LANDMARK_STRATEGIES",
    "LANDMARK_ESTIMATORS",
    "LandmarkOracle",
]

#: Supported landmark-selection strategies.
LANDMARK_STRATEGIES = ("random", "degree", "maxmin")

#: Supported estimators combining the per-landmark bounds into one answer.
LANDMARK_ESTIMATORS = ("euclidean", "lower", "upper", "midpoint")

#: Relative-gap floor so the fallback test is meaningful near zero delay.
_EPS = 1e-12

#: Seed of the construction-time accuracy validation sample.  A fixed
#: constant (not the caller's RNG) so validating never perturbs the
#: scenario's seeded streams.
_VALIDATION_SEED = 0xACC0


class LandmarkOracle(DelayOracle):
    """Approximate delays from a k-landmark embedding with exact bounds.

    Parameters
    ----------
    physical:
        The underlay to embed.
    n_landmarks:
        Number of landmarks *k* (ignored when *landmarks* is given).
    strategy:
        Landmark selection: one of :data:`LANDMARK_STRATEGIES`.
    estimator:
        How a query is answered from the bounds: ``euclidean`` (normalized
        vector distance — the classic GNP proxy, a lower-bound flavor),
        ``lower`` / ``upper`` (the triangle bounds themselves), or
        ``midpoint`` (their average — the minimax choice, default).
    rng:
        Seeded generator for the ``random``/``maxmin`` draws; falls back to
        the repo-wide seeded default (never OS entropy).
    landmarks:
        Explicit landmark host ids; skips selection (and the RNG) entirely.
    exact_fallback_budget:
        Number of scalar :meth:`delay` queries allowed to fall back to the
        exact engine when the triangle bracket is too wide.  ``0`` (the
        default) disables fallback, which keeps the oracle stateless — the
        right setting whenever answers must not depend on query order.
    fallback_gap:
        Relative bracket width ``(U - L) / max(L, eps)`` above which a
        query is considered uncertain enough to spend fallback budget.
    accuracy:
        Optional knob in ``(0, 1]``: at construction, the median relative
        error of the estimator is measured against exact delays on a
        seeded sample of host pairs, and construction raises
        :class:`~repro.oracle.base.OracleAccuracyError` if it exceeds
        ``1 - accuracy``.
    validation_samples:
        Sample size of that accuracy validation.
    vector_cache_size:
        LRU capacity for full estimate vectors served by
        :meth:`delays_from`.
    """

    def __init__(
        self,
        physical: "PhysicalTopology",
        n_landmarks: int = 16,
        strategy: str = "maxmin",
        estimator: str = "midpoint",
        rng: Optional[np.random.Generator] = None,
        landmarks: Optional[Sequence[int]] = None,
        exact_fallback_budget: int = 0,
        fallback_gap: float = 0.5,
        accuracy: Optional[float] = None,
        validation_samples: int = 64,
        vector_cache_size: int = 128,
    ) -> None:
        if strategy not in LANDMARK_STRATEGIES:
            raise ValueError(
                f"unknown landmark strategy {strategy!r}; "
                f"choose from {list(LANDMARK_STRATEGIES)}"
            )
        if estimator not in LANDMARK_ESTIMATORS:
            raise ValueError(
                f"unknown estimator {estimator!r}; "
                f"choose from {list(LANDMARK_ESTIMATORS)}"
            )
        if exact_fallback_budget < 0:
            raise ValueError("exact_fallback_budget must be >= 0")
        if fallback_gap < 0:
            raise ValueError("fallback_gap must be >= 0")
        if vector_cache_size < 1:
            raise ValueError("vector_cache_size must be >= 1")
        self._physical = physical
        self._strategy = strategy
        self._estimator = estimator
        self._fallback_gap = float(fallback_gap)
        self._fallback_left = int(exact_fallback_budget)
        self._vector_cache_size = int(vector_cache_size)
        self._vector_cache: "OrderedDict[int, np.ndarray]" = OrderedDict()
        #: Median relative error measured by the last accuracy validation
        #: (``None`` until :meth:`validate_accuracy` runs).
        self.validated_error: Optional[float] = None

        if landmarks is not None:
            lms = [int(x) for x in landmarks]
            if not lms:
                raise ValueError("need at least one landmark")
            for lm in lms:
                if not (0 <= lm < physical.num_nodes):
                    raise ValueError(f"landmark {lm} out of range")
            if len(set(lms)) != len(lms):
                raise ValueError("landmark ids must be distinct")
            self.landmarks: List[int] = lms
            self._embedding = self._embed(lms)
        else:
            if n_landmarks < 1:
                raise ValueError("need at least one landmark")
            rng = ensure_rng(rng)
            if strategy == "maxmin":
                self.landmarks, self._embedding = self._select_maxmin(
                    n_landmarks, rng
                )
            else:
                self.landmarks = self._select(n_landmarks, strategy, rng)
                self._embedding = self._embed(self.landmarks)
        #: Every host reachable from every landmark: the one-pair branch of
        #: :meth:`delay_pairs` then never meets the NaN -> inf rule.
        self._finite = bool(np.isfinite(self._embedding).all())

        if accuracy is not None:
            if not 0.0 < accuracy <= 1.0:
                raise ValueError("accuracy must be in (0, 1]")
            error = self.validate_accuracy(samples=validation_samples)
            allowed = 1.0 - accuracy
            if error > allowed + _EPS:
                raise OracleAccuracyError(
                    f"landmark oracle (k={len(self.landmarks)}, "
                    f"strategy={self._strategy}, estimator={self._estimator}) "
                    f"measured median relative error {error:.3f} > allowed "
                    f"{allowed:.3f} for accuracy={accuracy}; raise "
                    "n_landmarks, lower accuracy, or use the exact oracle"
                )

    # ------------------------------------------------------------------
    # Landmark selection and embedding
    # ------------------------------------------------------------------

    def _select(
        self, n_landmarks: int, strategy: str, rng: np.random.Generator
    ) -> List[int]:
        """Pick landmark hosts by the ``random`` or ``degree`` strategy."""
        hosts = self._physical.largest_component_nodes()
        k = min(n_landmarks, len(hosts))
        if strategy == "random":
            # Must stay the exact draw LandmarkMatcher historically made, so
            # the extensions adapter reproduces its seeded landmark sets.
            idx = rng.choice(len(hosts), size=k, replace=False)
            return [hosts[int(i)] for i in idx]
        degrees = self._physical.degrees()
        ranked = sorted(hosts, key=lambda h: (-int(degrees[h]), h))
        return ranked[:k]

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
        return self._physical.delays_from_many([landmark], cache=False)[landmark]

    def _embed(self, landmarks: Sequence[int]) -> np.ndarray:
        """The ``(k, N)`` embedding via one batched Dijkstra solve."""
        counters.landmark_embed_sources += len(landmarks)
        rows = self._physical.delays_from_many(landmarks, cache=False)
        return np.vstack([rows[lm] for lm in landmarks])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def physical(self) -> "PhysicalTopology":
        """The underlay this oracle answers for."""
        return self._physical

    @property
    def n_landmarks(self) -> int:
        """Number of landmarks *k*."""
        return len(self.landmarks)

    @property
    def strategy(self) -> str:
        """Landmark-selection strategy this oracle was built with."""
        return self._strategy

    @property
    def estimator(self) -> str:
        """Estimator answering queries from the triangle bounds."""
        return self._estimator

    @property
    def embedding(self) -> np.ndarray:
        """The ``(k, N)`` landmark-to-node delay matrix (do not mutate)."""
        return self._embedding

    @property
    def exact_fallbacks_remaining(self) -> int:
        """Exact-fallback budget not yet spent."""
        return self._fallback_left

    def vector_of(self, host: int) -> np.ndarray:
        """The host's landmark delay vector (a read-only-by-convention view)."""
        return self._embedding[:, host]

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

    def _estimate_from_bounds(
        self, lower: float, upper: float, euclidean: float
    ) -> float:
        if self._estimator == "euclidean":
            est = euclidean
        elif self._estimator == "lower":
            est = lower
        elif self._estimator == "upper":
            est = upper
        else:  # midpoint
            est = 0.5 * (lower + upper)
        if math.isnan(est):
            # Both hosts outside the landmarks' component: the embedding
            # carries no information; report unreachable.
            return math.inf
        return est

    def _uncertain(self, lower: float, upper: float) -> bool:
        """Whether the bracket is too wide to trust (NaN/inf count as wide)."""
        return not (upper - lower <= self._fallback_gap * max(lower, _EPS))

    def estimate(self, u: int, v: int) -> float:
        """The pure embedding estimate for ``d(u, v)`` — never falls back."""
        if u == v:
            return 0.0
        lower, upper = self.bounds(u, v)
        xu = self._embedding[:, u]
        xv = self._embedding[:, v]
        with np.errstate(invalid="ignore"):
            euclid = float(
                np.linalg.norm(xu - xv) / math.sqrt(len(self.landmarks))
            )
        return self._estimate_from_bounds(lower, upper, euclid)

    def delay(self, u: int, v: int) -> float:
        """Estimated delay, falling back to exact while budget remains.

        A query whose triangle bracket is wider than ``fallback_gap``
        (relative to the lower bound) spends one unit of
        ``exact_fallback_budget`` and returns the exact engine's answer;
        everything else is served from the embedding.
        """
        if u == v:
            return 0.0
        lower, upper = self.bounds(u, v)
        if self._fallback_left > 0 and self._uncertain(lower, upper):
            self._fallback_left -= 1
            counters.oracle_exact_fallbacks += 1
            return self._physical.delay(u, v)
        counters.oracle_estimates += 1
        xu = self._embedding[:, u]
        xv = self._embedding[:, v]
        with np.errstate(invalid="ignore"):
            euclid = float(
                np.linalg.norm(xu - xv) / math.sqrt(len(self.landmarks))
            )
        return self._estimate_from_bounds(lower, upper, euclid)

    def _estimate_vector(self, source: int) -> np.ndarray:
        """Estimated delays from *source* to every node (vectorized)."""
        x = self._embedding
        xs = x[:, source : source + 1]
        with np.errstate(invalid="ignore"):
            diff = np.abs(x - xs)
            if self._estimator == "euclidean":
                est = np.sqrt(np.sum(diff * diff, axis=0)) / math.sqrt(
                    len(self.landmarks)
                )
            else:
                lower = np.max(diff, axis=0)
                if self._estimator == "lower":
                    est = lower
                else:
                    upper = np.min(x + xs, axis=0)
                    if self._estimator == "upper":
                        est = upper
                    else:  # midpoint
                        est = 0.5 * (lower + upper)
        est = np.where(np.isnan(est), np.inf, est)
        est[source] = 0.0
        est.flags.writeable = False
        counters.oracle_estimates += 1
        return est

    # ------------------------------------------------------------------
    # DelayOracle batched interface
    # ------------------------------------------------------------------

    def delays_from(
        self, source: int, targets: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Estimate vector from *source* (LRU-cached), optionally sliced."""
        if not (0 <= source < self._physical.num_nodes):
            raise ValueError(f"source {source} out of range")
        vec = self._vector_cache.get(source)
        if vec is None:
            vec = self._estimate_vector(source)
            self._vector_cache[source] = vec
            while len(self._vector_cache) > self._vector_cache_size:
                self._vector_cache.popitem(last=False)
        else:
            self._vector_cache.move_to_end(source)
        if targets is None:
            return vec
        return vec[np.asarray(list(targets), dtype=np.int64)]

    #: Per-pair estimates are O(n_landmarks) arithmetic — callers should
    #: ask for exactly the pairs they need instead of prefetching vectors.
    pairwise_cheap = True

    def delay_pairs(
        self, sources: Sequence[int], targets: Sequence[int]
    ) -> np.ndarray:
        """Pairwise embedding estimates, bit-identical to the vector path.

        The arithmetic mirrors :meth:`_estimate_vector` column for column —
        the same elementwise ops and the same axis-0 reductions over the
        landmark dimension — so ``delay_pairs(us, vs)[i]`` equals
        ``delays_from(us[i])[vs[i]]`` exactly (max/min are order-exact;
        the euclidean sum reduces 2-D arrays over axis 0 in both paths).
        Like the vector interface, this never spends exact-fallback budget.

        Exactly one pair over a finite embedding — a Phase-3 probe — runs
        the same operations on Python floats instead (:meth:`_estimate_pair`).
        """
        if len(sources) == 1 and len(targets) == 1 and self._finite:
            return np.array([self._estimate_pair(sources[0], targets[0])])
        us = np.asarray(sources, dtype=np.int64)
        vs = np.asarray(targets, dtype=np.int64)
        if us.shape != vs.shape:
            raise ValueError("sources and targets must have equal length")
        if len(us) == 0:
            return np.empty(0, dtype=np.float64)
        n = self._physical.num_nodes
        for arr in (us, vs):
            if int(arr.min()) < 0 or int(arr.max()) >= n:
                raise ValueError("host id out of range")
        x = self._embedding
        xu = x[:, us]
        xv = x[:, vs]
        with np.errstate(invalid="ignore"):
            diff = np.abs(xu - xv)
            if self._estimator == "euclidean":
                # numpy reduces axis 0 of a wide array by sequential row
                # accumulation but takes an unrolled 1-D path for narrow
                # ones, and float addition is not associative — spell the
                # sequential order out so any pair count matches the
                # full-vector sum bit for bit.
                sq = diff * diff
                acc = sq[0].copy()
                for row in sq[1:]:
                    acc += row
                est = np.sqrt(acc) / math.sqrt(len(self.landmarks))
            else:
                lower = np.max(diff, axis=0)
                if self._estimator == "lower":
                    est = lower
                else:
                    upper = np.min(xu + xv, axis=0)
                    if self._estimator == "upper":
                        est = upper
                    else:  # midpoint
                        est = 0.5 * (lower + upper)
        est = np.where(np.isnan(est), np.inf, est)
        est[us == vs] = 0.0
        counters.oracle_estimates += len(us)
        return est

    def _estimate_pair(self, u: int, v: int) -> float:
        """One :meth:`delay_pairs` entry on Python floats, finite embedding.

        ``abs``, ``+``, ``*``, ``sqrt`` and ``0.5 *`` are each one correctly
        rounded IEEE operation here as in numpy, ``max`` / ``min`` are exact
        and the euclidean sum runs in the same landmark order, so the bits
        equal the array path's (``tests/oracle/test_landmark.py``).
        """
        n = self._physical.num_nodes
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError("host id out of range")
        counters.oracle_estimates += 1
        if u == v:
            return 0.0
        xu = self._embedding[:, u].tolist()
        xv = self._embedding[:, v].tolist()
        if self._estimator == "euclidean":
            acc = 0.0
            for d in map(abs, map(sub, xu, xv)):
                acc += d * d
            return math.sqrt(acc) / math.sqrt(len(xu))
        lower = max(map(abs, map(sub, xu, xv)))
        if self._estimator == "lower":
            return lower
        upper = min(map(add, xu, xv))
        return upper if self._estimator == "upper" else 0.5 * (lower + upper)

    def delays_from_many(
        self, sources: Iterable[int], cache: bool = True
    ) -> Dict[int, np.ndarray]:
        """Estimate vectors for several sources — no Dijkstra, ever."""
        out: Dict[int, np.ndarray] = {}
        for raw in sources:
            s = int(raw)
            if s in out:
                continue
            if cache:
                out[s] = self.delays_from(s)
                continue
            cached = self._vector_cache.get(s)
            out[s] = cached if cached is not None else self._estimate_vector(s)
        return out

    def warm(self, sources: Iterable[int]) -> int:
        """Precompute (and pin) estimate vectors for a working set.

        The embedding already covers every node, so this is pure vector
        arithmetic — no underlay solves.  Grows the vector LRU to keep the
        whole set resident; returns the number of vectors computed now.
        """
        wanted: List[int] = []
        seen = set()
        for raw in sources:
            s = int(raw)
            if not (0 <= s < self._physical.num_nodes):
                raise ValueError(f"source {s} out of range")
            if s not in seen:
                seen.add(s)
                wanted.append(s)
        if len(wanted) > self._vector_cache_size:
            self._vector_cache_size = len(wanted)
        computed = 0
        for s in wanted:
            if s not in self._vector_cache:
                self.delays_from(s)
                computed += 1
        return computed

    # ------------------------------------------------------------------
    # Accuracy validation
    # ------------------------------------------------------------------

    def validate_accuracy(self, samples: int = 64) -> float:
        """Median relative error of the estimator vs. exact delays.

        Draws *samples* host pairs from the landmarks' component with a
        fixed internal seed (the scenario's RNG streams are never
        consumed), resolves the true delays through the exact engine in
        one batched sweep per distinct source, and returns the median of
        ``|est - true| / true`` over pairs with positive true delay.  The
        result is also stored as :attr:`validated_error`.
        """
        if samples < 1:
            raise ValueError("samples must be >= 1")
        hosts = self._physical.largest_component_nodes()
        if len(hosts) < 2:
            self.validated_error = 0.0
            return 0.0
        rng = np.random.default_rng(_VALIDATION_SEED)
        idx = rng.integers(0, len(hosts), size=(samples, 2))
        pairs = [
            (hosts[int(i)], hosts[int(j)]) for i, j in idx if int(i) != int(j)
        ]
        by_source: Dict[int, set] = {}
        for a, b in pairs:
            by_source.setdefault(a, set()).add(b)
        true_rows = self._physical.delays_from_many(
            sorted(by_source), cache=False
        )
        errors: List[float] = []
        for a, b in pairs:
            true = float(true_rows[a][b])
            if not math.isfinite(true) or true <= 0.0:
                continue
            est = self.estimate(a, b)
            errors.append(abs(est - true) / true)
        error = float(np.median(errors)) if errors else 0.0
        self.validated_error = error
        return error

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LandmarkOracle(k={len(self.landmarks)}, "
            f"strategy={self._strategy!r}, estimator={self._estimator!r}, "
            f"num_nodes={self._physical.num_nodes})"
        )
