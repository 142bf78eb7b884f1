"""Logical P2P overlay network on top of a physical topology.

An :class:`Overlay` is the abstract Gnutella-like network the paper studies:
peers (identified by integer ids) are mapped onto physical hosts, and logical
connections between peers are the overlay edges.  The *cost* of a logical
connection is the shortest-path delay between the two endpoint hosts in the
underlay — the measured "network delay between two nodes" used as the cost
metric in ACE Phase 1.

The overlay is mutable: ACE Phase 3 cuts and establishes connections, and the
churn model adds and removes peers.  All mutation goes through
:meth:`connect` / :meth:`disconnect` / :meth:`add_peer` / :meth:`remove_peer`
so invariants (symmetry, no self-loops, live endpoints) hold by construction.

Cost lookups are served from two layers of memoization:

All underlay delay lookups go through the overlay's
:class:`~repro.oracle.base.DelayOracle` (an
:class:`~repro.oracle.exact.ExactOracle` unless configured otherwise), so
the delay backend — exact batched Dijkstra or a landmark embedding — is a
constructor choice, not a code change.  On top of the oracle sit two layers
of memoization:

* a **host-pair cache** (append-only; a backend's answers never change),
  shared across :meth:`copy` clones, and
* a **per-edge cost cache** keyed by peer pair, covering exactly the (small,
  slowly-changing) logical edge set.  :meth:`warm_edge_costs` fills it in
  bulk through the underlay's batched Dijkstra, and the mutation methods
  keep it in sync: :meth:`disconnect` and :meth:`remove_peer` drop stale
  entries (this covers every cut site — ACE Phase 3 replacement, LTM/AOTO
  cuts, churn departures), :meth:`connect` fills the new edge from the
  host-pair cache when possible.  On a warmed static overlay the query
  engine's inner loop (:func:`repro.search.flooding.propagate`) therefore
  never touches scipy at all.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from ..oracle.base import DelayOracle
from ..oracle.exact import ExactOracle
from ..perf import counters
from ..rng import ensure_rng
from .physical import PhysicalTopology

__all__ = [
    "Overlay",
    "random_overlay",
    "power_law_overlay",
    "small_world_overlay",
]


class Overlay:
    """A logical overlay: peers on hosts, with symmetric logical links."""

    def __init__(
        self,
        physical: PhysicalTopology,
        hosts: Optional[Dict[int, int]] = None,
        oracle: Optional[DelayOracle] = None,
    ) -> None:
        self._physical = physical
        if oracle is not None and oracle.physical is not physical:
            raise ValueError("oracle answers for a different underlay")
        self._oracle: DelayOracle = (
            oracle if oracle is not None else ExactOracle(physical)
        )
        self._hosts: Dict[int, int] = {}
        self._adjacency: Dict[int, Set[int]] = {}
        self._cost_cache: Dict[Tuple[int, int], float] = {}
        self._edge_costs: Dict[Tuple[int, int], float] = {}
        self._epoch = 0
        if hosts:
            for peer, host in hosts.items():
                self.add_peer(peer, host)

    # ------------------------------------------------------------------
    # Peers
    # ------------------------------------------------------------------

    @property
    def physical(self) -> PhysicalTopology:
        """The underlay this overlay is built on."""
        return self._physical

    @property
    def oracle(self) -> DelayOracle:
        """The delay oracle answering this overlay's cost lookups."""
        return self._oracle

    def use_oracle(self, oracle: DelayOracle) -> None:
        """Swap the delay backend, dropping every cost memo.

        Cached costs are answers from the *previous* backend, so both the
        host-pair cache and the per-edge cost cache are invalidated (the
        host-pair cache is replaced rather than cleared — it may be shared
        with :meth:`copy` clones still on the old backend).
        """
        if oracle.physical is not self._physical:
            raise ValueError("oracle answers for a different underlay")
        self._oracle = oracle
        self._cost_cache = {}
        self._edge_costs.clear()
        self._epoch += 1

    @property
    def epoch(self) -> int:
        """Monotone structural version of the logical layer.

        Bumped by every mutation that can change the forwarding graph or its
        edge costs — :meth:`add_peer`, :meth:`remove_peer`, :meth:`connect`,
        :meth:`disconnect`, :meth:`use_oracle` and
        :meth:`invalidate_edge_costs` — so derived structures (notably the
        compiled CSR forwarding graphs in :mod:`repro.search.batch`) can be
        memoized per epoch and invalidated for free.
        """
        return self._epoch

    @property
    def num_peers(self) -> int:
        """Number of live peers."""
        return len(self._hosts)

    @property
    def num_edges(self) -> int:
        """Number of logical connections."""
        return sum(len(s) for s in self._adjacency.values()) // 2

    def peers(self) -> List[int]:
        """Sorted list of live peer ids."""
        return sorted(self._hosts)

    def has_peer(self, peer: int) -> bool:
        """Whether *peer* is currently in the overlay."""
        return peer in self._hosts

    def host_of(self, peer: int) -> int:
        """Physical host a peer lives on."""
        return self._hosts[peer]

    def add_peer(self, peer: int, host: int) -> None:
        """Add a (disconnected) peer residing on physical node *host*."""
        if peer in self._hosts:
            raise ValueError(f"peer {peer} already exists")
        if not (0 <= host < self._physical.num_nodes):
            raise ValueError(f"host {host} out of range")
        self._hosts[peer] = host
        self._adjacency[peer] = set()
        self._epoch += 1

    def remove_peer(self, peer: int) -> None:
        """Remove a peer and all its logical connections.

        Edge-cost cache entries of the removed connections are invalidated
        so a later re-join of the same peer id cannot observe stale costs.
        """
        for other in list(self._adjacency[peer]):
            self._adjacency[other].discard(peer)
            self._edge_costs.pop((peer, other) if peer < other else (other, peer), None)
        del self._adjacency[peer]
        del self._hosts[peer]
        self._epoch += 1

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------

    def neighbors(self, peer: int) -> Set[int]:
        """The peer's current logical neighbors (a *copy-safe* live set).

        Callers that mutate the overlay while iterating must copy first.
        """
        return self._adjacency[peer]

    def degree(self, peer: int) -> int:
        """Number of logical connections of *peer*."""
        return len(self._adjacency[peer])

    def average_degree(self) -> float:
        """Mean logical degree over live peers."""
        if not self._hosts:
            return 0.0
        return 2.0 * self.num_edges / self.num_peers

    def has_edge(self, u: int, v: int) -> bool:
        """Whether a logical connection u-v exists."""
        return v in self._adjacency.get(u, ())

    def connect(self, u: int, v: int) -> bool:
        """Establish the logical connection u-v.

        Returns ``True`` if a new connection was created, ``False`` if it
        already existed.  Raises for unknown peers or self-connections.
        """
        if u == v:
            raise ValueError("a peer cannot connect to itself")
        if u not in self._hosts or v not in self._hosts:
            raise KeyError(f"unknown peer in connect({u}, {v})")
        if v in self._adjacency[u]:
            return False
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)
        self._epoch += 1
        # Seed the edge-cost cache without touching the underlay: the cost is
        # filled now if the host pair is already known, lazily (or by the
        # next warm_edge_costs sweep) otherwise.
        key = (u, v) if u < v else (v, u)
        hu, hv = self._hosts[u], self._hosts[v]
        if hu == hv:
            self._edge_costs[key] = 0.0
        else:
            hkey = (hu, hv) if hu < hv else (hv, hu)
            cached = self._cost_cache.get(hkey)
            if cached is not None:
                self._edge_costs[key] = cached
        return True

    def disconnect(self, u: int, v: int) -> bool:
        """Cut the logical connection u-v.  Returns ``True`` if it existed."""
        if u not in self._hosts or v not in self._hosts:
            raise KeyError(f"unknown peer in disconnect({u}, {v})")
        if v not in self._adjacency[u]:
            return False
        self._adjacency[u].discard(v)
        self._adjacency[v].discard(u)
        self._edge_costs.pop((u, v) if u < v else (v, u), None)
        self._epoch += 1
        return True

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over logical edges as ``(u, v)`` with ``u < v``."""
        for u, nbrs in self._adjacency.items():
            for v in nbrs:
                if u < v:
                    yield (u, v)

    # ------------------------------------------------------------------
    # Costs
    # ------------------------------------------------------------------

    def cost(self, u: int, v: int) -> float:
        """Cost of a (potential) logical link: underlay shortest-path delay.

        Existing logical edges are served from the per-edge cost cache (one
        dict probe, no host lookups); other pairs fall back to the host-pair
        cache and, last, the underlay's Dijkstra engine.
        """
        pkey = (u, v) if u < v else (v, u)
        cached = self._edge_costs.get(pkey)
        if cached is not None:
            counters.edge_cost_hits += 1
            return cached
        hu, hv = self._hosts[u], self._hosts[v]
        if hu == hv:
            d = 0.0
        else:
            hkey = (hu, hv) if hu < hv else (hv, hu)
            d = self._cost_cache.get(hkey)
            if d is None:
                d = self._oracle.delay(hu, hv)
                self._cost_cache[hkey] = d
        if v in self._adjacency.get(u, ()):
            counters.edge_cost_misses += 1
            self._edge_costs[pkey] = d
        return d

    def costs_from(self, u: int, targets: Iterable[int]) -> Dict[int, float]:
        """Costs from *u* to several peers with at most one underlay query."""
        hu = self._hosts[u]
        nbrs = self._adjacency.get(u, ())
        out: Dict[int, float] = {}
        missing: List[int] = []
        for t in targets:
            pkey = (u, t) if u < t else (t, u)
            cached = self._edge_costs.get(pkey)
            if cached is not None:
                counters.edge_cost_hits += 1
                out[t] = cached
                continue
            ht = self._hosts[t]
            if ht == hu:
                out[t] = 0.0
                if t in nbrs:
                    self._edge_costs[pkey] = 0.0
                continue
            key = (hu, ht) if hu < ht else (ht, hu)
            cached = self._cost_cache.get(key)
            if cached is None:
                missing.append(t)
            else:
                out[t] = cached
                if t in nbrs:
                    self._edge_costs[pkey] = cached
        if missing:
            vec = self._oracle.delays_from(hu)
            for t in missing:
                ht = self._hosts[t]
                d = float(vec[ht])
                key = (hu, ht) if hu < ht else (ht, hu)
                self._cost_cache[key] = d
                out[t] = d
                pkey = (u, t) if u < t else (t, u)
                # A target listed twice fills (and counts) its edge once.
                if t in nbrs and pkey not in self._edge_costs:
                    counters.edge_cost_misses += 1
                    self._edge_costs[pkey] = d
        return out

    def warm_edge_costs(self, chunk_size: int = 256) -> int:
        """Bulk-fill the per-edge cost cache for every current logical edge.

        Edges whose cost is not yet known are grouped by source host and
        solved through :meth:`PhysicalTopology.delays_from_many
        <repro.topology.physical.PhysicalTopology.delays_from_many>` in
        batches of at most *chunk_size* sources, extracting only the scalar
        costs (the full delay vectors are not retained, so memory stays
        bounded even at paper scale).  Idempotent and cheap when already
        warm.  Returns the number of edge costs computed.
        """
        pending: Dict[int, List[Tuple[Tuple[int, int], int, Tuple[int, int]]]] = {}
        for u, v in self.edges():
            pkey = (u, v)
            if pkey in self._edge_costs:
                continue
            hu, hv = self._hosts[u], self._hosts[v]
            if hu == hv:
                self._edge_costs[pkey] = 0.0
                continue
            hkey = (hu, hv) if hu < hv else (hv, hu)
            cached = self._cost_cache.get(hkey)
            if cached is not None:
                self._edge_costs[pkey] = cached
                continue
            pending.setdefault(hu, []).append((pkey, hv, hkey))
        if not pending:
            return 0
        filled = 0
        sources = sorted(pending)
        for start in range(0, len(sources), chunk_size):
            chunk = sources[start : start + chunk_size]
            rows = self._oracle.delays_from_many(chunk, cache=False)
            for h in chunk:
                row = rows[h]
                for pkey, hv, hkey in pending[h]:
                    d = float(row[hv])
                    self._cost_cache[hkey] = d
                    self._edge_costs[pkey] = d
                    counters.edge_cost_misses += 1
                    filled += 1
        return filled

    def warm_sources(self, peers: Iterable[int]) -> int:
        """Prefetch underlay delay vectors for the given peers' hosts.

        Makes every later ``cost``/``costs_from`` rooted at one of these
        peers (including probes of *non*-edges, e.g. ACE Phase-3 candidate
        probing) Dijkstra-free.  Returns the number of sources solved.
        """
        hosts = {self._hosts[p] for p in peers if p in self._hosts}
        return self._oracle.warm(hosts)

    @property
    def cached_edge_costs(self) -> int:
        """Number of logical edges with a resident cached cost."""
        return len(self._edge_costs)

    def invalidate_edge_costs(self) -> None:
        """Drop the whole per-edge cost cache (host-pair memos survive)."""
        self._edge_costs.clear()
        self._epoch += 1

    def total_edge_cost(self) -> float:
        """Sum of logical-link costs over all overlay edges."""
        return sum(self.cost(u, v) for u, v in self.edges())

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------

    def component_of(self, peer: int) -> Set[int]:
        """All peers reachable from *peer* over logical links."""
        seen = {peer}
        stack = [peer]
        while stack:
            cur = stack.pop()
            for nxt in self._adjacency[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    def components(self) -> List[Set[int]]:
        """All connected components, largest first."""
        remaining = set(self._hosts)
        out: List[Set[int]] = []
        while remaining:
            comp = self.component_of(next(iter(remaining)))
            out.append(comp)
            remaining -= comp
        out.sort(key=len, reverse=True)
        return out

    def is_connected(self) -> bool:
        """Whether all live peers form a single component."""
        if not self._hosts:
            return True
        return len(self.component_of(next(iter(self._hosts)))) == self.num_peers

    # ------------------------------------------------------------------

    def copy(self) -> "Overlay":
        """Deep copy of the logical layer (shares the underlay and oracle)."""
        clone = Overlay(self._physical, oracle=self._oracle)
        clone._hosts = dict(self._hosts)
        clone._adjacency = {p: set(nbrs) for p, nbrs in self._adjacency.items()}
        clone._cost_cache = self._cost_cache  # shared, append-only cache
        clone._edge_costs = dict(self._edge_costs)  # private: edges diverge
        clone._epoch = self._epoch  # compiled-graph caches key on identity
        return clone

    def to_networkx(self):
        """Export the logical graph (``cost`` edge attribute included)."""
        import networkx as nx

        g = nx.Graph()
        for p, h in self._hosts.items():
            g.add_node(p, host=h)
        self.warm_edge_costs()  # one batched solve; the loop below only probes
        for u, v in self.edges():
            # replint: disable=REP004 — served from the just-warmed edge cache
            g.add_edge(u, v, cost=self.cost(u, v))
        return g

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Overlay(num_peers={self.num_peers}, num_edges={self.num_edges})"


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
    """Uniform random overlay with the given average logical degree.

    This mirrors the paper's logical-topology generation: peers are placed on
    random physical hosts and connected at random — exactly the stochastic
    bootstrap-list connection process that *creates* the mismatch problem.
    The result is made connected by chaining components with random links.
    """
    rng = ensure_rng(rng)
    if avg_degree < 2:
        raise ValueError("avg_degree must be >= 2 to allow a connected overlay")
    hosts = _pick_hosts(physical, n_peers, rng)
    ov = Overlay(physical, {i: hosts[i] for i in range(n_peers)})
    target_edges = int(round(n_peers * avg_degree / 2.0))
    # Random spanning tree first (guarantees connectivity), then random fill.
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
    """Preferential-attachment overlay (power-law degrees, Gnutella-like).

    Measurement studies cited by the paper ([7] and the DSS Clip2 crawls)
    found Gnutella overlays follow power laws; this generator reproduces that
    shape while keeping the same host-placement process as
    :func:`random_overlay`.
    """
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
    """Power-law *and* small-world overlay (Holme–Kim triad formation).

    The paper's Section 4.1: "PP overlay topologies follow small world and
    power law properties.  Power law describes the node degree while small
    world describes characteristics of path length and clustering
    coefficient."  Plain preferential attachment yields the power law but
    vanishing clustering at scale; the Holme–Kim model adds a *triad
    formation* step — after a preferential attachment to peer ``t``, the
    next link goes to a random neighbor of ``t`` with probability
    *triad_probability* — producing the high clustering coefficient real
    Gnutella snapshots show.  This is the default overlay of the experiment
    scenarios, because ACE's Phase 2 prunes exactly the neighbor-neighbor
    links that clustering creates.
    """
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
                # Triad formation: close a triangle through the last target.
                nbrs = [
                    x for x in ov.neighbors(last_target)
                    if x != new and not ov.has_edge(new, x)
                ]
                if nbrs:
                    target = nbrs[int(rng.integers(len(nbrs)))]
            if target is None:
                # Preferential attachment step.
                cand = pool[int(rng.integers(len(pool)))]
                if cand == new or ov.has_edge(new, cand):
                    continue
                target = cand
            ov.connect(new, target)
            pool.extend((target, new))
            links += 1
            last_target = target
    return ov
