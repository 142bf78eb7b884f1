"""BRITE-style physical topology generators.

The paper (Section 4.1) generates its 20,000-node physical topologies with
BRITE, using a model whose output exhibits both *power-law* degree
distributions and *small-world* path/clustering characteristics.  BRITE's two
classic flat router-level models are Waxman and Barabási–Albert (BA), both of
which place nodes on a coordinate plane; we implement those plus the GLP
(Generalized Linear Preference) power-law model and a Watts–Strogatz
small-world model for property studies.

All generators return a connected :class:`~repro.topology.physical.PhysicalTopology`
whose link delays are the Euclidean distances between endpoint coordinates
(the standard BRITE convention for delay), floored at ``min_delay``.  Links
are drawn one attachment at a time; the component joins, delays and topology
are built on arrays, bit for bit as the per-link pass the tests keep.

Randomness is always taken from an explicit :class:`numpy.random.Generator`
so that every experiment in the repository is reproducible from a seed.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import List, Optional, Set, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from ..rng import ensure_rng
from .physical import PhysicalTopology

__all__ = [
    "waxman",
    "barabasi_albert",
    "glp",
    "watts_strogatz",
    "grid",
    "paper_underlay",
]

_PLANE_SIZE = 1000.0
_MIN_DELAY = 1.0
#: Nodes whose attachments :func:`barabasi_albert` draws in one array call.
_BA_CHUNK = 1024


def _as_rng(rng: Optional[np.random.Generator]) -> np.random.Generator:
    # Deterministic fallback: a forgotten rng still reproduces run-to-run.
    return ensure_rng(rng)


def _place_nodes(n: int, rng: np.random.Generator, plane_size: float) -> np.ndarray:
    return rng.uniform(0.0, plane_size, size=(n, 2))


def _sorted_links(edges: Set[Tuple[int, int]], n: int) -> np.ndarray:
    """*edges* as an ``(m, 2)`` array in ``sorted`` order."""
    flat = np.fromiter(chain.from_iterable(edges), dtype=np.int64, count=2 * len(edges))
    keys = np.sort(flat[0::2] * n + flat[1::2])
    return np.stack(np.divmod(keys, n), axis=1)


def _finalize(
    n: int,
    edges: Set[Tuple[int, int]],
    coords: np.ndarray,
    min_delay: float,
    cache_size: int,
) -> PhysicalTopology:
    """The underlay of the ``u < v`` links *edges*, joined into one component.

    Generators with probabilistic attachment can leave the graph
    disconnected; BRITE repairs this the same way, by joining components
    with extra links.  We join each smaller component to the largest one via
    the geometrically closest node pair, which keeps delays realistic.
    """
    links = _sorted_links(edges, n)
    graph = csr_matrix((np.ones(len(links)), tuple(links.T)), shape=(n, n))
    count, labels = connected_components(graph, directed=False)
    if count > 1:
        # Labels number the components by lowest node; largest first.
        by_size = np.argsort(-np.bincount(labels), kind="stable")
        main_arr = np.flatnonzero(labels == by_size[0])
        joins: List[Tuple[int, int]] = []
        for comp_arr in (np.flatnonzero(labels == c) for c in by_size[1:]):
            # Closest pair between comp and the main component.
            diffs = coords[comp_arr][:, None, :] - coords[main_arr][None, :, :]
            dists = np.hypot(diffs[..., 0], diffs[..., 1])
            i, j = np.unravel_index(int(np.argmin(dists)), dists.shape)
            u, v = int(comp_arr[i]), int(main_arr[j])
            joins.append((u, v) if u < v else (v, u))
            main_arr = np.concatenate([main_arr, comp_arr])
        links = _sorted_links(edges.union(joins), n)
    dx, dy = (coords[links[:, 0]] - coords[links[:, 1]]).T
    delays = np.maximum(np.hypot(dx, dy), min_delay)
    return PhysicalTopology(n, links, delays, coordinates=coords, cache_size=cache_size)


def waxman(
    n: int,
    alpha: float = 0.15,
    beta: float = 0.2,
    rng: Optional[np.random.Generator] = None,
    plane_size: float = _PLANE_SIZE,
    min_delay: float = _MIN_DELAY,
    cache_size: int = 128,
) -> PhysicalTopology:
    """Waxman random graph: P(u~v) = alpha * exp(-d(u,v) / (beta * L)).

    *L* is the plane diagonal.  The classic BRITE flat-Waxman model.
    """
    if n < 2:
        raise ValueError("need at least 2 nodes")
    rng = _as_rng(rng)
    coords = _place_nodes(n, rng, plane_size)
    diag = plane_size * math.sqrt(2.0)
    edges: Set[Tuple[int, int]] = set()
    # Vectorised edge sampling, one row at a time to bound memory.
    for u in range(n - 1):
        d = np.hypot(
            coords[u + 1 :, 0] - coords[u, 0], coords[u + 1 :, 1] - coords[u, 1]
        )
        prob = alpha * np.exp(-d / (beta * diag))
        hits = np.flatnonzero(rng.random(d.shape[0]) < prob)
        for h in hits:
            edges.add((u, u + 1 + int(h)))
    return _finalize(n, edges, coords, min_delay, cache_size)


def barabasi_albert(
    n: int,
    m: int = 2,
    rng: Optional[np.random.Generator] = None,
    plane_size: float = _PLANE_SIZE,
    min_delay: float = _MIN_DELAY,
    cache_size: int = 128,
) -> PhysicalTopology:
    """Barabási–Albert preferential attachment on a coordinate plane.

    Each arriving node attaches to *m* existing nodes with probability
    proportional to their degree — BRITE's "BA" flat model, which yields the
    power-law degree distribution the paper relies on.
    """
    if n < m + 1:
        raise ValueError("need n > m")
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = _as_rng(rng)
    coords = _place_nodes(n, rng, plane_size)
    edges: Set[Tuple[int, int]] = set()
    # Seed clique of m+1 nodes.
    targets_pool: List[int] = []
    for u in range(m + 1):
        for v in range(u + 1, m + 1):
            edges.add((u, v))
            targets_pool.extend((u, v))
    # Node k draws m times from the first m(2k - m - 1) pool entries (each
    # edge endpoint appears once per incident edge — classic BA trick), and
    # more often only when a pick repeats.  One array call draws a chunk of
    # nodes as that many scalar calls would; at a repeated pick the stream
    # rewinds to the chunk, replays up to the node and draws on one by one.
    new = m + 1
    while new < n:
        nodes = np.arange(new, min(n, new + _BA_CHUNK))
        bounds = np.repeat(m * (2 * nodes - m - 1), m)
        state = rng.bit_generator.state
        draws = rng.integers(0, bounds).tolist()
        for at in range(0, len(draws), m):
            chosen = {targets_pool[d] for d in draws[at : at + m]}
            repeated = len(chosen) < m
            if repeated:
                rng.bit_generator.state = state
                rng.integers(0, bounds[: at + m])
                while len(chosen) < m:
                    chosen.add(targets_pool[int(rng.integers(len(targets_pool)))])
            for t in chosen:
                edges.add((t, new))
                targets_pool.extend((t, new))
            new += 1
            if repeated:
                break
    return _finalize(n, edges, coords, min_delay, cache_size)


def glp(
    n: int,
    m: int = 2,
    p: float = 0.45,
    beta_pref: float = 0.64,
    rng: Optional[np.random.Generator] = None,
    plane_size: float = _PLANE_SIZE,
    min_delay: float = _MIN_DELAY,
    cache_size: int = 128,
) -> PhysicalTopology:
    """Generalized Linear Preference (GLP) model (Bu & Towsley).

    With probability *p* each step adds *m* new links between existing nodes
    (preferentially), otherwise it adds a new node with *m* links.  The
    preference is ``degree - beta_pref``, which produces both power-law
    degrees and higher clustering than plain BA — the combination of
    power-law and small-world properties the paper's Section 4.1 cites.
    """
    if n < m + 2:
        raise ValueError("need n > m + 1")
    if not 0.0 <= p < 1.0:
        raise ValueError("p must be in [0, 1)")
    rng = _as_rng(rng)
    coords = _place_nodes(n, rng, plane_size)
    edges: Set[Tuple[int, int]] = set()
    degree = np.zeros(n, dtype=float)

    def add_edge(a: int, b: int) -> bool:
        if a == b:
            return False
        key = (a, b) if a < b else (b, a)
        if key in edges:
            return False
        edges.add(key)
        degree[a] += 1
        degree[b] += 1
        return True

    active = m + 1
    for u in range(active):
        for v in range(u + 1, active):
            add_edge(u, v)

    def pick_pref(count: int, exclude: Set[int]) -> List[int]:
        weights = degree[:active] - beta_pref
        weights = np.clip(weights, 0.05, None)
        for idx in exclude:
            if idx < active:
                weights[idx] = 0.0
        total = float(weights.sum())
        if total <= 0:
            pool = [i for i in range(active) if i not in exclude]
            rng.shuffle(pool)
            return pool[:count]
        out: List[int] = []
        w = weights.copy()
        for _ in range(min(count, active - len(exclude))):
            probs = w / w.sum()
            choice = int(rng.choice(active, p=probs))
            out.append(choice)
            w[choice] = 0.0
            if w.sum() <= 0:
                break
        return out

    while active < n:
        if rng.random() < p and active > m + 1:
            # Add m internal links between preferentially chosen nodes.
            for _ in range(m):
                a_list = pick_pref(1, set())
                if not a_list:
                    break
                a = a_list[0]
                b_list = pick_pref(1, {a})
                if not b_list:
                    break
                add_edge(a, b_list[0])
        else:
            new = active
            targets = pick_pref(m, set())
            active += 1
            for t in targets:
                add_edge(new, t)
            if degree[new] == 0:
                add_edge(new, int(rng.integers(active - 1)))
    return _finalize(n, edges, coords, min_delay, cache_size)


def watts_strogatz(
    n: int,
    k: int = 4,
    rewire_p: float = 0.1,
    rng: Optional[np.random.Generator] = None,
    plane_size: float = _PLANE_SIZE,
    min_delay: float = _MIN_DELAY,
    cache_size: int = 128,
) -> PhysicalTopology:
    """Watts–Strogatz small-world ring lattice with rewiring."""
    if k % 2 != 0 or k < 2:
        raise ValueError("k must be even and >= 2")
    if n <= k:
        raise ValueError("need n > k")
    rng = _as_rng(rng)
    coords = _place_nodes(n, rng, plane_size)
    edges: Set[Tuple[int, int]] = set()
    for u in range(n):
        for off in range(1, k // 2 + 1):
            v = (u + off) % n
            edges.add((u, v) if u < v else (v, u))
    rewired: Set[Tuple[int, int]] = set()
    for u, v in sorted(edges):
        if rng.random() < rewire_p:
            for _ in range(8):  # bounded retries to find a fresh endpoint
                w = int(rng.integers(n))
                key = (u, w) if u < w else (w, u)
                if w != u and key not in edges and key not in rewired:
                    rewired.add(key)
                    break
            else:
                rewired.add((u, v))
        else:
            rewired.add((u, v))
    return _finalize(n, rewired, coords, min_delay, cache_size)


def grid(
    rows: int,
    cols: int,
    delay: float = 10.0,
    cache_size: int = 128,
) -> PhysicalTopology:
    """Deterministic rows x cols grid with uniform link delay (for tests)."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    n = rows * cols
    coords = np.zeros((n, 2))
    edges: List[Tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            coords[u] = (c * delay, r * delay)
            if c + 1 < cols:
                edges.append((u, u + 1))
            if r + 1 < rows:
                edges.append((u, u + cols))
    delays = [delay] * len(edges)
    return PhysicalTopology(n, edges, delays, coordinates=coords, cache_size=cache_size)


def paper_underlay(
    n: int = 20000,
    rng: Optional[np.random.Generator] = None,
    cache_size: int = 128,
) -> PhysicalTopology:
    """The paper's physical-topology configuration.

    Section 4.1: topologies of *n* = 20,000 nodes generated with BRITE using a
    model that shows power-law and small-world properties.  We use the BA
    model with m=2 (BRITE's router-level default), which satisfies both.
    """
    return barabasi_albert(n, m=2, rng=rng, cache_size=cache_size)
