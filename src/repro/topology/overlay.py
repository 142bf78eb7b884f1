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

All underlay delay lookups go through the overlay's
:class:`~repro.oracle.base.DelayOracle` (an
:class:`~repro.oracle.exact.ExactOracle` unless configured otherwise), so
the delay backend — exact batched Dijkstra or a landmark embedding — is a
constructor choice, not a code change.  The oracle remembers every
host-pair delay it answered (:mod:`repro.oracle.base`); the overlay keeps
only a **per-edge cost cache** keyed by peer pair, covering exactly the
(small, slowly-changing) logical edge set.  :meth:`warm_edge_costs` fills
it in bulk through :meth:`~repro.oracle.base.DelayOracle.delay_pairs`, and
the mutation methods keep it in sync: :meth:`disconnect` and
:meth:`remove_peer` drop stale entries (this covers every cut site — ACE
Phase 3 replacement, LTM/AOTO cuts, churn departures), :meth:`connect`
fills the new edge when the oracle already knows its host pair.  On a
warmed static overlay the query engine's inner loop
(:func:`repro.search.flooding.propagate`) therefore never touches scipy at
all.

The generators at the bottom — three overlay shapes and the synthetic
Gnutella crawl — fill plain neighbor sets or link lists and pack the result
straight into the array engine every run uses
(:class:`~repro.topology.soa.ArrayOverlay`).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from ..metrics.collector import left_fold
from ..oracle.base import DelayOracle
from ..oracle.exact import ExactOracle
from ..perf import counters
from ..rng import ensure_rng
from .physical import PhysicalTopology

if TYPE_CHECKING:  # pragma: no cover - typing only (soa builds on this module)
    from .soa import ArrayOverlay

__all__ = [
    "Overlay",
    "random_overlay",
    "power_law_overlay",
    "small_world_overlay",
    "synthesize_gnutella_snapshot",
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
        """Swap the delay backend, dropping every per-edge cost.

        Cached costs are answers from the *previous* backend; the new one
        brings its own host-pair store.
        """
        if oracle.physical is not self._physical:
            raise ValueError("oracle answers for a different underlay")
        self._oracle = oracle
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

    def isolated_peers(self) -> List[int]:
        """Sorted ids of the live peers with no logical connection."""
        return sorted(p for p, nbrs in self._adjacency.items() if not nbrs)

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
        known = self._oracle.known(self._hosts[u], self._hosts[v])
        if known is not None:
            self._edge_costs[(u, v) if u < v else (v, u)] = known
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
        dict probe, no host lookups); other pairs are the oracle's.
        """
        pkey = (u, v) if u < v else (v, u)
        cached = self._edge_costs.get(pkey)
        if cached is not None:
            counters.edge_cost_hits += 1
            return cached
        d: float = self._oracle.delays_from(self._hosts[u], [self._hosts[v]]).item(0)
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
            known = self._oracle.known(hu, self._hosts[t])
            if known is None:
                missing.append(t)
            else:
                out[t] = known
                if t in nbrs:
                    self._edge_costs[pkey] = known
        if missing:
            vals = self._oracle.delays_from(hu, [self._hosts[t] for t in missing])
            for t, d in zip(missing, vals.tolist()):
                out[t] = d
                pkey = (u, t) if u < t else (t, u)
                # A target listed twice fills (and counts) its edge once.
                if t in nbrs and pkey not in self._edge_costs:
                    counters.edge_cost_misses += 1
                    self._edge_costs[pkey] = d
        return out

    def warm_edge_costs(self) -> int:
        """Bulk-fill the per-edge cost cache for every current logical edge.

        Edges whose host pair the oracle does not know yet are answered by
        one :meth:`~repro.oracle.base.DelayOracle.delay_pairs` call, which
        may keep, out of each row it reads, the delays to the hosts within
        two logical hops of the peers there (the Phase-3 probe pools, as
        :meth:`ArrayOverlay._probe_pools <repro.topology.soa.ArrayOverlay._probe_pools>`
        computes them).  Idempotent and cheap when already warm.  Returns
        the number of edge costs computed.
        """
        pending: List[Tuple[int, int]] = []
        for u, v in self.edges():
            if (u, v) in self._edge_costs:
                continue
            known = self._oracle.known(self._hosts[u], self._hosts[v])
            if known is None:
                pending.append((u, v))
            else:
                self._edge_costs[(u, v)] = known
        if not pending:
            return 0

        def keep(first: np.ndarray) -> Dict[int, np.ndarray]:
            near: Dict[int, Set[int]] = {}
            for p in {u if f else v for (u, v), f in zip(pending, first.tolist())}:
                pool = near.setdefault(self._hosts[p], set())
                for n in self._adjacency[p]:
                    pool.add(self._hosts[n])
                    pool.update(self._hosts[m] for m in self._adjacency[n])
            return {h: np.array(sorted(s), dtype=np.int64) for h, s in near.items()}

        costs = self._oracle.delay_pairs(
            [self._hosts[u] for u, _ in pending],
            [self._hosts[v] for _, v in pending],
            keep=keep,
        )
        self._edge_costs.update(zip(pending, costs.tolist()))
        counters.edge_cost_misses += len(pending)
        return len(pending)

    @property
    def cached_edge_costs(self) -> int:
        """Number of logical edges with a resident cached cost."""
        return len(self._edge_costs)

    def invalidate_edge_costs(self) -> None:
        """Drop the whole per-edge cost cache (the oracle's store survives)."""
        self._edge_costs.clear()
        self._epoch += 1

    def total_edge_cost(self) -> float:
        """Sum of logical-link costs over all overlay edges."""
        return left_fold(self.cost(u, v) for u, v in self.edges())

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


def _installed(physical: PhysicalTopology, hosts: List[int], ends: List[int]) -> "ArrayOverlay":
    """Peer ``i`` on ``hosts[i]``, linked by *ends* (``u0, v0, u1, v1, ...``),
    at the epoch an object build reaches: one bump per peer and per link."""
    from .soa import ArrayOverlay  # soa builds on this module

    n, links = len(hosts), len(ends) // 2
    overlay = ArrayOverlay._packed(
        physical, list(range(n)), hosts, ends, [math.nan] * links
    )
    overlay._epoch = n + links
    return overlay


def random_overlay(
    physical: PhysicalTopology,
    n_peers: int,
    avg_degree: float = 6.0,
    rng: Optional[np.random.Generator] = None,
) -> "ArrayOverlay":
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
    linked: Set[Tuple[int, int]] = set()
    target_edges = int(round(n_peers * avg_degree / 2.0))
    # Random spanning tree first (guarantees connectivity), then random fill.
    order = list(range(n_peers))
    rng.shuffle(order)
    for i in range(1, n_peers):
        u, v = order[i], order[int(rng.integers(i))]
        linked.add((min(u, v), max(u, v)))
    attempts = 0
    max_attempts = 20 * target_edges + 100
    while len(linked) < target_edges and attempts < max_attempts:
        u = int(rng.integers(n_peers))
        v = int(rng.integers(n_peers))
        attempts += 1
        if u != v:
            linked.add((min(u, v), max(u, v)))
    return _installed(physical, hosts, [x for link in linked for x in link])


def power_law_overlay(
    physical: PhysicalTopology,
    n_peers: int,
    avg_degree: float = 6.0,
    rng: Optional[np.random.Generator] = None,
) -> "ArrayOverlay":
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
    # The pool lists both ends of every link: a draw is degree-proportional.
    pool: List[int] = []
    for u in range(m + 1):
        for v in range(u + 1, m + 1):
            pool += (u, v)
    for new in range(m + 1, n_peers):
        chosen: Set[int] = set()
        guard = 0
        while len(chosen) < m and guard < 50 * m:
            chosen.add(pool[int(rng.integers(len(pool)))])
            guard += 1
        for t in chosen:
            pool += (t, new)
    return _installed(physical, hosts, pool)


def small_world_overlay(
    physical: PhysicalTopology,
    n_peers: int,
    avg_degree: float = 6.0,
    triad_probability: float = 0.75,
    rng: Optional[np.random.Generator] = None,
) -> "ArrayOverlay":
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
    # Sets filled in link order iterate, and so draw, as the object build's did.
    adj: List[Set[int]] = [set() for _ in range(n_peers)]
    pool: List[int] = []
    for u in range(m + 1):
        for v in range(u + 1, m + 1):
            adj[u].add(v)
            adj[v].add(u)
            pool += (u, v)
    for new in range(m + 1, n_peers):
        mine = adj[new]
        links = 0
        last_target: Optional[int] = None
        guard = 0
        while links < m and guard < 50 * m:
            guard += 1
            target: Optional[int] = None
            if last_target is not None and rng.random() < triad_probability:
                # Triad formation: close a triangle through the last target,
                # to its pick-th neighbor other than new and new's links.
                nbrs = adj[last_target]
                free = len(nbrs) - (new in nbrs) - len(mine & nbrs)
                if free:
                    pick = int(rng.integers(free))
                    for x in nbrs:
                        if x != new and x not in mine:
                            if not pick:
                                target = x
                                break
                            pick -= 1
            if target is None:
                # Preferential attachment step.
                cand = pool[int(rng.integers(len(pool)))]
                if cand == new or cand in mine:
                    continue
                target = cand
            mine.add(target)
            adj[target].add(new)
            pool += (target, new)
            links += 1
            last_target = target
    return _installed(physical, hosts, pool)


def _power_law_degrees(
    n: int,
    exponent: float,
    d_min: int,
    d_max: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample a graphical power-law degree sequence (even total)."""
    ds = np.arange(d_min, d_max + 1, dtype=float)
    probs = ds ** (-exponent)
    probs /= probs.sum()
    seq = rng.choice(np.arange(d_min, d_max + 1), size=n, p=probs)
    if seq.sum() % 2 == 1:
        seq[int(rng.integers(n))] += 1
    return seq.astype(np.int64)


def synthesize_gnutella_snapshot(
    physical: PhysicalTopology,
    n_peers: int = 1000,
    exponent: float = 2.3,
    d_min: int = 1,
    d_max: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> "ArrayOverlay":
    """A Gnutella-crawl-shaped overlay: the DSS Clip2 trace substitute.

    Section 5 of the paper simulates ACE on "a real-world P2P topology
    (based on DSS Clip2 trace)"; that crawl is no longer obtainable, so this
    builds its closest synthetic equivalent.  Degrees are sampled from a
    power law with exponent *exponent* (2.3, the Gnutella-crawl figure) and
    capped at *d_max*, paired by the configuration model (self-loops and
    repeated links dropped), and the components are stitched into one, as a
    crawler only reaches the giant component.  With ``d_min = 1`` most peers
    keep one or two links: the maximum-likelihood fit over degrees >= 2
    reads alpha ~ 3.1 (EXPERIMENTS.md section 4.1), and the clustering
    coefficient is ~ 0 — a near-tree, not a small world.
    """
    rng = ensure_rng(rng)
    if d_max is None:
        d_max = max(8, int(round(n_peers ** 0.5)))
    degrees = _power_law_degrees(n_peers, exponent, d_min, d_max, rng)
    hosts = _pick_hosts(physical, n_peers, rng)
    stubs = np.repeat(np.arange(n_peers), degrees)
    rng.shuffle(stubs)
    adj: List[Set[int]] = [set() for _ in range(n_peers)]
    ends: List[int] = []
    paired = stubs.tolist()
    for u, v in zip(paired[::2], paired[1::2]):
        if u != v and v not in adj[u]:
            adj[u].add(v)
            adj[v].add(u)
            ends += (u, v)
    # Components by depth-first search, largest first.  Set iteration order
    # picks each stitched component's end, so the walk and its sets stay as
    # they are (tests/golden/worlds.json pins the crawl).
    comps: List[Set[int]] = []
    remaining = set(range(n_peers))
    while remaining:
        start = next(iter(remaining))
        seen, stack = {start}, [start]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        comps.append(seen)
        remaining -= seen
    comps.sort(key=len, reverse=True)
    giant = sorted(comps[0])
    for comp in comps[1:]:
        ends += (next(iter(comp)), giant[int(rng.integers(len(giant)))])
        giant.extend(sorted(comp))
    return _installed(physical, hosts, ends)
