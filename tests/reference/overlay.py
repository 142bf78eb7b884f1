"""The dict-of-sets overlay: the reference the array engine is held to.

:class:`Overlay` is the object model of the Gnutella-like network the paper
studies: peers (identified by integer ids) are mapped onto physical hosts,
and logical connections between peers are the overlay edges.  The *cost* of
a logical connection is the shortest-path delay between the two endpoint
hosts in the underlay — the measured "network delay between two nodes" used
as the cost metric in ACE Phase 1.

Production runs on :class:`~repro.topology.soa.ArrayOverlay`, which keeps
the same public surface, the same epoch bumps and the same counter
accounting in flat arrays; the tests build this class by hand
(:func:`tests.reference.object_twin`) and compare the two.

The overlay is mutable: all mutation goes through :meth:`connect` /
:meth:`disconnect` / :meth:`add_peer` / :meth:`remove_peer` so invariants
(symmetry, no self-loops, live endpoints) hold by construction.

All underlay delay lookups go through the overlay's
:class:`~repro.oracle.base.DelayOracle` (an
:class:`~repro.oracle.exact.ExactOracle` unless configured otherwise).  The
oracle remembers every host-pair delay it answered; the overlay keeps only
a **per-edge cost cache** keyed by peer pair, covering exactly the logical
edge set.  :meth:`warm_edge_costs` fills it in bulk through
:meth:`~repro.oracle.base.DelayOracle.delay_pairs`, and the mutation
methods keep it in sync: :meth:`disconnect` and :meth:`remove_peer` drop
stale entries, :meth:`connect` fills the new edge when the oracle already
knows its host pair.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.metrics.collector import left_fold
from repro.oracle.base import DelayOracle
from repro.oracle.exact import ExactOracle
from repro.perf import counters
from repro.topology.physical import PhysicalTopology

__all__ = ["Overlay"]


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
        #: Departed peers' hosts, and per peer the departed peers it was
        #: linked to when they left (:meth:`_probe_pools`).
        self._departed: Dict[int, int] = {}
        self._lost: Dict[int, Set[int]] = {}
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
        :meth:`disconnect` and :meth:`use_oracle` — so derived structures
        (notably the compiled CSR forwarding graphs in
        :mod:`repro.search.batch`) can be memoized per epoch and invalidated
        for free.
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
        self._departed.pop(peer, None)
        self._epoch += 1

    def remove_peer(self, peer: int) -> None:
        """Remove a peer and all its logical connections.

        Edge-cost cache entries of the removed connections are invalidated
        so a later re-join of the same peer id cannot observe stale costs.
        """
        for other in self._adjacency[peer]:
            self._lost.setdefault(other, set()).add(peer)
        self._lost.pop(peer, None)
        self._departed[peer] = self._hosts[peer]
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


            def keep() -> np.ndarray:
                return self._probe_pools([u]).get(hu, np.empty(0, dtype=np.int64))

            vals = self._oracle.delays_from(hu, [self._hosts[t] for t in missing], keep)
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
        three logical hops of the peers there (:meth:`_probe_pools`).
        Idempotent and cheap when already warm.  Returns the number of edge
        costs computed.
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

        def keep(first: np.ndarray, at: np.ndarray) -> Dict[int, np.ndarray]:
            return self._probe_pools(
                {pending[i][0] if first[i] else pending[i][1] for i in at.tolist()}
            )

        costs = self._oracle.delay_pairs(
            [self._hosts[u] for u, _ in pending],
            [self._hosts[v] for _, v in pending],
            keep=keep,
        )
        self._edge_costs.update(zip(pending, costs.tolist()))
        counters.edge_cost_misses += len(pending)
        return len(pending)

    def _probe_pools(self, peers: Iterable[int]) -> Dict[int, np.ndarray]:
        """Per host of *peers*: the sorted hosts within three logical hops of
        its peers among them, a departed peer counted as still linked to the
        peers it left until it rejoins, as
        :meth:`ArrayOverlay._probe_pools <repro.topology.soa.ArrayOverlay._probe_pools>`
        names them."""
        near: Dict[int, Set[int]] = {}
        for p in peers:
            reached: Set[int] = set()
            gone: Set[int] = set()
            frontier = {p}
            for _ in range(3):
                gone |= {
                    g for q in frontier for g in self._lost.get(q, ())
                    if g in self._departed
                }
                frontier = {n for q in frontier for n in self._adjacency[q]} - reached
                reached |= frontier
            hosts = {self._hosts[q] for q in reached}
            hosts |= {self._departed[g] for g in gone}
            if hosts:
                near.setdefault(self._hosts[p], set()).update(hosts)
        return {h: np.array(sorted(s), dtype=np.int64) for h, s in near.items()}

    @property
    def cached_edge_costs(self) -> int:
        """Number of logical edges with a resident cached cost."""
        return len(self._edge_costs)

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
        clone._departed = dict(self._departed)
        clone._lost = {p: set(gone) for p, gone in self._lost.items()}
        clone._epoch = self._epoch  # compiled-graph caches key on identity
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Overlay(num_peers={self.num_peers}, num_edges={self.num_edges})"
