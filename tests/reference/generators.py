"""The per-link scenario builders, kept as the oracle of the array ones.

:func:`finalize` is the Python join-and-delay pass the underlay generators
ran before they built on arrays: a union-find over the links, components
joined largest first, one ``np.hypot`` per link.  :func:`barabasi_albert`
draws each attachment with its own scalar call, as the BA generator did
before it drew a chunk of nodes per call.  :func:`physical_parts` is
:class:`~repro.topology.physical.PhysicalTopology`'s per-link construction
(validation, duplicate collapse, adjacency, CSR).  The three overlay
generators build, link by link, the object :class:`Overlay` whose peers,
hosts, links and epoch the production generators must equal, with the same
draws from the same stream.  ``tests/topology/test_builders.py``
holds production to them bit for bit.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np
from scipy.sparse import csr_matrix

from repro.rng import ensure_rng
from repro.topology import generators
from repro.topology.physical import DELAY_GRID, PhysicalTopology
from tests.reference.overlay import Overlay


def _euclidean_delay(coords: np.ndarray, u: int, v: int, min_delay: float) -> float:
    d = float(np.hypot(*(coords[u] - coords[v])))
    return max(d, min_delay)


def connect_components(
    edges: Set[Tuple[int, int]], n: int, coords: np.ndarray
) -> None:
    """Add shortest geometric links until the edge set forms one component."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        parent[find(a)] = find(b)

    for u, v in edges:
        union(u, v)

    groups: dict = {}
    for node in range(n):
        groups.setdefault(find(node), []).append(node)
    components = sorted(groups.values(), key=len, reverse=True)
    main = components[0]
    main_arr = np.array(main)
    for comp in components[1:]:
        comp_arr = np.array(comp)
        diffs = coords[comp_arr][:, None, :] - coords[main_arr][None, :, :]
        dists = np.hypot(diffs[..., 0], diffs[..., 1])
        i, j = np.unravel_index(int(np.argmin(dists)), dists.shape)
        u, v = int(comp_arr[i]), int(main_arr[j])
        key = (u, v) if u < v else (v, u)
        edges.add(key)
        union(u, v)
        main_arr = np.concatenate([main_arr, comp_arr])


def finalize(
    n: int,
    edges: Set[Tuple[int, int]],
    coords: np.ndarray,
    min_delay: float,
    cache_size: int,
) -> PhysicalTopology:
    """The generators' last pass, link by link."""
    edges = set(edges)
    connect_components(edges, n, coords)
    edge_list = sorted(edges)
    delays = [_euclidean_delay(coords, u, v, min_delay) for u, v in edge_list]
    return PhysicalTopology(n, edge_list, delays, coordinates=coords, cache_size=cache_size)


@contextmanager
def reference_finalize() -> Iterator[None]:
    """Run the underlay generators with :func:`finalize` as their last pass."""
    production = generators._finalize
    generators._finalize = finalize
    try:
        yield
    finally:
        generators._finalize = production


def physical_parts(num_nodes: int, edges, delays):
    """``(edge delays, adjacency, CSR)`` as the per-link constructor built them.

    Raises the ``ValueError`` that constructor raised for the first bad link.
    """
    edge_list = [(int(u), int(v)) for u, v in edges]
    raw = [float(d) for d in delays]
    if len(edge_list) != len(raw):
        raise ValueError("edges and delays must have the same length")
    delay_list = (np.round(np.array(raw) / DELAY_GRID) * DELAY_GRID).tolist()
    for (u, v), d, r in zip(edge_list, delay_list, raw):
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise ValueError(f"edge ({u}, {v}) out of range for {num_nodes} nodes")
        if u == v:
            raise ValueError(f"self-loop at node {u} is not allowed")
        if d <= 0:
            raise ValueError(
                f"link delay must be positive on the {DELAY_GRID} grid, "
                f"got {r} on ({u}, {v})"
            )
    edge_delays: Dict[Tuple[int, int], float] = {}
    adjacency: List[List[int]] = [[] for _ in range(num_nodes)]
    for (u, v), d in zip(edge_list, delay_list):
        key = (u, v) if u < v else (v, u)
        if key in edge_delays:
            edge_delays[key] = min(edge_delays[key], d)
            continue
        edge_delays[key] = d
        adjacency[u].append(v)
        adjacency[v].append(u)
    m = len(edge_delays)
    ends = np.fromiter(
        (x for link in edge_delays for x in link), dtype=np.int64, count=2 * m
    ).reshape(m, 2)
    data = np.repeat(np.fromiter(edge_delays.values(), dtype=float, count=m), 2)
    matrix = csr_matrix(
        (data, (ends.ravel(), ends[:, ::-1].ravel())), shape=(num_nodes, num_nodes)
    )
    return edge_delays, [tuple(sorted(a)) for a in adjacency], matrix


def barabasi_albert(
    n: int, m: int = 2, rng: Optional[np.random.Generator] = None
) -> PhysicalTopology:
    """The BA underlay with one scalar draw per attachment (production's pass last)."""
    rng = ensure_rng(rng)
    coords = rng.uniform(0.0, 1000.0, size=(n, 2))
    edges: Set[Tuple[int, int]] = set()
    pool: List[int] = []
    for u in range(m + 1):
        for v in range(u + 1, m + 1):
            edges.add((u, v))
            pool.extend((u, v))
    for new in range(m + 1, n):
        chosen: Set[int] = set()
        while len(chosen) < m:
            chosen.add(pool[int(rng.integers(len(pool)))])
        for t in chosen:
            edges.add((t, new))
            pool.extend((t, new))
    return generators._finalize(n, edges, coords, 1.0, 128)


def _pick_hosts(
    physical: PhysicalTopology, n_peers: int, rng: np.random.Generator
) -> List[int]:
    if n_peers > physical.num_nodes:
        raise ValueError(
            f"cannot place {n_peers} peers on {physical.num_nodes} physical nodes"
        )
    candidates = physical.largest_component_nodes()
    if n_peers > len(candidates):
        raise ValueError(
            f"largest physical component has only {len(candidates)} nodes"
        )
    chosen = rng.choice(len(candidates), size=n_peers, replace=False)
    return [candidates[int(i)] for i in chosen]


def random_overlay(
    physical: PhysicalTopology,
    n_peers: int,
    avg_degree: float = 6.0,
    rng: Optional[np.random.Generator] = None,
) -> Overlay:
    """The uniform random overlay, built link by link."""
    rng = ensure_rng(rng)
    if avg_degree < 2:
        raise ValueError("avg_degree must be >= 2 to allow a connected overlay")
    hosts = _pick_hosts(physical, n_peers, rng)
    ov = Overlay(physical, {i: hosts[i] for i in range(n_peers)})
    target_edges = int(round(n_peers * avg_degree / 2.0))
    order = list(range(n_peers))
    rng.shuffle(order)
    for i in range(1, n_peers):
        ov.connect(order[i], order[int(rng.integers(i))])
    attempts = 0
    max_attempts = 20 * target_edges + 100
    while ov.num_edges < target_edges and attempts < max_attempts:
        u = int(rng.integers(n_peers))
        v = int(rng.integers(n_peers))
        attempts += 1
        if u != v and not ov.has_edge(u, v):
            ov.connect(u, v)
    return ov


def power_law_overlay(
    physical: PhysicalTopology,
    n_peers: int,
    avg_degree: float = 6.0,
    rng: Optional[np.random.Generator] = None,
) -> Overlay:
    """The preferential-attachment overlay, built link by link."""
    rng = ensure_rng(rng)
    m = max(1, int(round(avg_degree / 2.0)))
    if n_peers < m + 1:
        raise ValueError("n_peers too small for the requested degree")
    hosts = _pick_hosts(physical, n_peers, rng)
    ov = Overlay(physical, {i: hosts[i] for i in range(n_peers)})
    pool: List[int] = []
    for u in range(m + 1):
        for v in range(u + 1, m + 1):
            ov.connect(u, v)
            pool.extend((u, v))
    for new in range(m + 1, n_peers):
        chosen: Set[int] = set()
        guard = 0
        while len(chosen) < m and guard < 50 * m:
            chosen.add(pool[int(rng.integers(len(pool)))])
            guard += 1
        for t in chosen:
            ov.connect(new, t)
            pool.extend((t, new))
    return ov


def small_world_overlay(
    physical: PhysicalTopology,
    n_peers: int,
    avg_degree: float = 6.0,
    triad_probability: float = 0.75,
    rng: Optional[np.random.Generator] = None,
) -> Overlay:
    """The Holme–Kim overlay, built link by link."""
    rng = ensure_rng(rng)
    if not 0.0 <= triad_probability <= 1.0:
        raise ValueError("triad_probability must be in [0, 1]")
    m = max(2, int(round(avg_degree / 2.0)))
    if n_peers < m + 1:
        raise ValueError("n_peers too small for the requested degree")
    hosts = _pick_hosts(physical, n_peers, rng)
    ov = Overlay(physical, {i: hosts[i] for i in range(n_peers)})
    pool: List[int] = []
    for u in range(m + 1):
        for v in range(u + 1, m + 1):
            ov.connect(u, v)
            pool.extend((u, v))
    for new in range(m + 1, n_peers):
        links = 0
        last_target: Optional[int] = None
        guard = 0
        while links < m and guard < 50 * m:
            guard += 1
            target: Optional[int] = None
            if last_target is not None and rng.random() < triad_probability:
                nbrs = [
                    x for x in ov.neighbors(last_target)
                    if x != new and not ov.has_edge(new, x)
                ]
                if nbrs:
                    target = nbrs[int(rng.integers(len(nbrs)))]
            if target is None:
                cand = pool[int(rng.integers(len(pool)))]
                if cand == new or ov.has_edge(new, cand):
                    continue
                target = cand
            ov.connect(new, target)
            pool.extend((target, new))
            links += 1
            last_target = target
    return ov


OVERLAYS = {
    "random": random_overlay,
    "power_law": power_law_overlay,
    "small_world": small_world_overlay,
}
