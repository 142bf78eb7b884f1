"""Struct-of-arrays overlay: the engine every scenario runs on.

:class:`ArrayOverlay` is the overlay
:func:`~repro.experiments.setup.build_scenario` returns.  It is a drop-in
replacement for the dict-of-sets :class:`~repro.topology.overlay.Overlay` —
the generators still build on that class and tests keep it as the
reference — holding the peer/edge state in flat numpy arrays instead:

* per-slot arrays — peer id, physical host, live logical degree — indexed by
  a dense *slot* number (``_index`` maps peer id -> slot);
* a CSR adjacency over slots (``_indptr`` / ``_nbr``) with a parallel
  ``float64`` per-edge cost array (``NaN`` = cost not yet known, the array
  form of the reference's per-edge cost cache);
* an **incremental edit buffer**: mutations never rewrite the CSR in place.
  :meth:`disconnect` tombstones base entries (``_dead``), :meth:`connect`
  buffers new edges in a small dict-of-dicts overlay (``_extra``), and once
  the buffered edit count crosses a threshold the structure re-packs into a
  fresh compact CSR (slots reassigned in sorted-peer order, rows sorted).
  Compactions and buffer flushes are counted in
  :data:`repro.perf.counters` (``soa_compactions`` /
  ``soa_edit_buffer_flushes``).

Semantics — epoch bumps, cost-cache layering (shared host-pair cache over a
per-edge memo), counter accounting, and error behaviour — mirror the
reference exactly, so both produce byte-identical experiment figures from
the same seed (pinned in ``tests/experiments/test_reproducibility.py``).
One memo has no twin in the reference: under an exact oracle
:meth:`warm_edge_costs` keeps, per streamed source host, the delays to the
hosts Phase 3 can probe from there, so a step solves a source again only for
a probe outside that pool.  It sits *behind* the host-pair cache and holds
the floats a vector fault would return, so it changes how many sources are
solved and never a cost (``tests/topology/test_probe_memo.py``).
The payoff is bulk state:

* :meth:`warm_edge_costs` is O(1) when the overlay is already warm (the
  reference re-scans every edge per call — the dominant cost of large
  ACE steps), and a vectorized NaN scan otherwise;
* :meth:`flooding_csr` lowers the adjacency straight into the compiled
  query kernel's CSR form (:mod:`repro.search.batch`) without materializing
  per-peer neighbor sets.

:meth:`neighbors` returns a fresh *snapshot* set per call (the reference
returns its live internal set); all in-repo consumers either copy or re-fetch
around mutations, so the two behaviours are indistinguishable.

One rule splits the code: **numpy for bulk, buffers for scalars.**  The bulk
kernels (compaction, the NaN scan, :meth:`_live_rows`, the CSR views) work
on the arrays; every method that touches one element at a time — the
per-peer half of an ACE turn: :meth:`neighbors`, :meth:`has_edge`,
:meth:`cost`, :meth:`costs_from`, :meth:`connect`, :meth:`disconnect`,
:meth:`remove_peer`, :meth:`degree`, :meth:`host_of` and the helpers under
them — reads and writes the *same memory* through ``memoryview``s
(``_vpeer`` … ``_vdead``), which hand back plain ``int`` / ``float`` /
``bool`` at a fifth of the price of a numpy element read plus unwrapping.
There is no second copy of any state to keep in step: a view aliases its
array, so a write on either side is the other side's next read.  A view can
only go stale when an array *object* is replaced, and that happens in four
places — construction, :meth:`_install_base` (compaction, conversion),
slot growth and :meth:`copy` — each of which ends in :meth:`_bind_views`
(``tests/topology/test_array_overlay.py::TestBufferViews``).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

import numpy as np

from ..oracle.base import DelayOracle
from ..oracle.exact import ExactOracle
from ..perf import counters
from .overlay import Overlay
from .physical import PhysicalTopology

__all__ = ["ArrayOverlay"]


class ArrayOverlay(Overlay):
    """Flat-array overlay engine (see module docstring)."""

    def __init__(
        self,
        physical: PhysicalTopology,
        hosts: Optional[Dict[int, int]] = None,
        oracle: Optional[DelayOracle] = None,
        compact_threshold: Optional[int] = None,
    ) -> None:
        # Deliberately does NOT call Overlay.__init__: the dict structures
        # (_hosts/_adjacency/_edge_costs) are never created, so any inherited
        # method that was missed in the override sweep fails loudly instead
        # of silently reading empty state.
        self._physical = physical
        if oracle is not None and oracle.physical is not physical:
            raise ValueError("oracle answers for a different underlay")
        self._oracle = oracle if oracle is not None else ExactOracle(physical)
        self._cost_cache: Dict[Tuple[int, int], float] = {}
        #: Directional probe memo: source host -> (sorted target hosts,
        #: ``dist[source][target]`` values), filled by the streaming branch
        #: of :meth:`warm_edge_costs`.  Shared by :meth:`copy` like
        #: ``_cost_cache``; entries are oracle facts, never stale.
        self._probe_memo: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._epoch = 0
        self._compact_threshold = compact_threshold

        self._index: Dict[int, int] = {}
        self._slot_peer: np.ndarray = np.empty(0, dtype=np.int64)
        self._slot_host: np.ndarray = np.empty(0, dtype=np.int64)
        self._slot_degree: np.ndarray = np.empty(0, dtype=np.int64)
        self._nslots = 0
        self._free: List[int] = []

        self._indptr: np.ndarray = np.zeros(1, dtype=np.int64)
        self._nbr: np.ndarray = np.empty(0, dtype=np.int64)
        self._ncost: np.ndarray = np.empty(0, dtype=np.float64)
        self._dead: np.ndarray = np.zeros(0, dtype=bool)
        self._nbase = 0

        self._extra: Dict[int, Dict[int, float]] = {}
        self._edits = 0
        self._nedges = 0
        self._missing = 0
        self._peers_cache: Optional[List[int]] = None
        #: Slots still exactly the sorted-peer layout of the last repack
        #: (no peer added/removed since): re-packs can skip re-deriving the
        #: slot order and index.
        self._slots_canonical = False
        self._bind_views()

        if hosts:
            for peer, host in hosts.items():
                self.add_peer(peer, host)

    # ------------------------------------------------------------------
    # Construction / conversion
    # ------------------------------------------------------------------

    @classmethod
    def from_overlay(
        cls, source: Overlay, compact_threshold: Optional[int] = None
    ) -> "ArrayOverlay":
        """Convert any overlay into a compact array engine.

        Known per-edge costs and the host-pair memo are snapshotted (into
        *private* copies — unlike :meth:`copy`, the conversion decouples the
        cache state so the two engines evolve independently); the epoch
        carries over.
        """
        if isinstance(source, ArrayOverlay):
            clone = source.copy()
            clone._cost_cache = dict(source._cost_cache)
            clone._probe_memo = dict(source._probe_memo)
            clone._compact_threshold = compact_threshold
            return clone
        out = cls(
            source.physical, oracle=source.oracle,
            compact_threshold=compact_threshold,
        )
        order = source.peers()
        n = len(order)
        index = {p: i for i, p in enumerate(order)}
        host = np.empty(n, dtype=np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        nbr: List[int] = []
        cost: List[float] = []
        # replint: disable=REP002 — engine conversion snapshots the sibling
        # engine's memo wholesale; coherence is preserved because the costs
        # transfer together with the epoch and host-pair cache below.
        edge_costs = source._edge_costs
        for i, p in enumerate(order):
            host[i] = source.host_of(p)
            row = sorted(source.neighbors(p))
            for q in row:
                nbr.append(index[q])
                key = (p, q) if p < q else (q, p)
                cost.append(edge_costs.get(key, math.nan))
            indptr[i + 1] = indptr[i] + len(row)
        out._install_base(order, index, host, indptr, nbr, cost)
        out._cost_cache = dict(source._cost_cache)
        out._epoch = source.epoch
        return out

    def _install_base(
        self,
        order: List[int],
        index: Dict[int, int],
        host: np.ndarray,
        indptr: np.ndarray,
        nbr: Union[List[int], np.ndarray],
        cost: Union[List[float], np.ndarray],
    ) -> None:
        """Install a freshly packed base CSR (slots in sorted-peer order)."""
        n = len(order)
        nnz = int(indptr[n])
        self._index = index
        self._slot_peer = np.array(order, dtype=np.int64)
        self._slot_host = host
        self._slot_degree = np.diff(indptr).astype(np.int64)
        self._nslots = n
        self._free = []
        self._indptr = indptr
        self._nbr = (
            np.array(nbr, dtype=np.int64) if nnz else np.empty(0, dtype=np.int64)
        )
        self._ncost = (
            np.array(cost, dtype=np.float64)
            if nnz
            else np.empty(0, dtype=np.float64)
        )
        self._dead = np.zeros(nnz, dtype=bool)
        self._nbase = n
        self._extra = {}
        self._edits = 0
        self._nedges = nnz // 2
        self._missing = (
            int(np.count_nonzero(np.isnan(self._ncost))) // 2 if nnz else 0
        )
        self._peers_cache = order
        self._slots_canonical = True
        self._bind_views()

    def _bind_views(self) -> None:
        """Point the scalar path's buffer views at the current arrays.

        Needed only where an array *object* is replaced; in-place writes
        from either side land in the shared memory (module docstring).
        """
        self._vpeer = memoryview(self._slot_peer)
        self._vhost = memoryview(self._slot_host)
        self._vdeg = memoryview(self._slot_degree)
        self._vptr = memoryview(self._indptr)
        self._vnbr = memoryview(self._nbr)
        self._vcost = memoryview(self._ncost)
        self._vdead = memoryview(self._dead)

    def _compact(self) -> None:
        """Re-pack the CSR: merge the edit buffer, drop tombstones.

        Slots are reassigned in sorted-peer order and every row is sorted by
        neighbor peer id — the canonical layout :meth:`flooding_csr` lowers
        from.  Structure (and therefore the epoch) is unchanged.
        """
        counters.soa_compactions += 1
        if self._edits or self._extra:
            counters.soa_edit_buffer_flushes += 1
        identity = self._slots_canonical
        if identity:
            # Peer set untouched since the last repack: slots already ARE the
            # canonical sorted-peer layout, so the order, index and host
            # arrays carry over and the whole remap collapses to a live-entry
            # mask over the base CSR.
            order = self._peers_cache
            if order is None:  # pragma: no cover - canonical implies cached
                order = self._slot_peer[: self._nbase].tolist()
            n = self._nbase
            index = self._index
            host = self._slot_host[:n].astype(np.int64)
            new_of = None
        else:
            order = sorted(self._index)
            n = len(order)
            index = {p: i for i, p in enumerate(order)}
            old_index = self._index
            if n:
                old_slots = np.fromiter(
                    (old_index[p] for p in order), count=n, dtype=np.int64
                )
            else:
                old_slots = np.empty(0, dtype=np.int64)
            new_of = np.full(max(self._nslots, 1), -1, dtype=np.int64)
            new_of[old_slots] = np.arange(n, dtype=np.int64)
            host = self._slot_host[old_slots].astype(np.int64)

        # Live base entries of every surviving row, gathered in one shot.
        if identity:
            live = ~self._dead
            deg_all = (self._indptr[1:] - self._indptr[:-1]) if n else (
                np.empty(0, dtype=np.int64)
            )
            e_row = np.repeat(np.arange(n, dtype=np.int64), deg_all)[live]
            e_nbr = self._nbr[live]
            e_cost = self._ncost[live]
        else:
            has_base = old_slots < self._nbase
            so = old_slots[has_base]
            base_rows = np.nonzero(has_base)[0]
            deg = self._indptr[so + 1] - self._indptr[so]
            total = int(deg.sum())
            if total:
                ends = np.cumsum(deg)
                eidx = (
                    np.repeat(self._indptr[so] - (ends - deg), deg)
                    + np.arange(total)
                )
                live = ~self._dead[eidx]
                eidx = eidx[live]
                e_row = np.repeat(base_rows, deg)[live]
                e_nbr = new_of[self._nbr[eidx]]
                e_cost = self._ncost[eidx]
            else:
                e_row = e_nbr = np.empty(0, dtype=np.int64)
                e_cost = np.empty(0, dtype=np.float64)

        # Buffered extra edges (small; entries on freed slots are skipped
        # exactly like the per-row .get() of the scalar layout pass).
        ex_row: List[int] = []
        ex_nbr: List[int] = []
        ex_cost: List[float] = []
        for slot, ex in self._extra.items():
            r = slot if new_of is None else int(new_of[slot])
            if r < 0 or not ex:
                continue
            for sv, c in ex.items():
                ex_row.append(r)
                ex_nbr.append(sv if new_of is None else int(new_of[sv]))
                ex_cost.append(c)
        if ex_row:
            e_row = np.concatenate([e_row, np.array(ex_row, dtype=np.int64)])
            e_nbr = np.concatenate([e_nbr, np.array(ex_nbr, dtype=np.int64)])
            e_cost = np.concatenate(
                [e_cost, np.array(ex_cost, dtype=np.float64)]
            )

        # Canonical layout: rows in sorted-peer order, each row sorted by
        # neighbor slot (== neighbor peer id; (row, nbr) pairs are unique,
        # so this matches the scalar per-row pair sort exactly).  Under the
        # identity fast path with no buffered extras the masked base rows
        # are already in that order, so the sort is a no-op we skip.
        if not (identity and not ex_row):
            perm = np.lexsort((e_nbr, e_row))
            e_nbr = e_nbr[perm]
            e_cost = e_cost[perm]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(e_row, minlength=n), out=indptr[1:])
        self._install_base(order, index, host, indptr, e_nbr, e_cost)

    def _maybe_compact(self) -> None:
        limit = self._compact_threshold
        if limit is None:
            limit = max(64, self._nedges // 4)
        if self._edits > limit:
            self._compact()

    # ------------------------------------------------------------------
    # Slot helpers
    # ------------------------------------------------------------------

    def _new_slot(self, peer: int, host: int) -> int:
        if self._free:
            slot = self._free.pop()
        else:
            cap = len(self._slot_peer)
            if self._nslots == cap:
                grow = max(8, cap)
                pad_i = np.full(grow, -1, dtype=np.int64)
                self._slot_peer = np.concatenate([self._slot_peer, pad_i])
                self._slot_host = np.concatenate([self._slot_host, pad_i])
                self._slot_degree = np.concatenate(
                    [self._slot_degree, np.zeros(grow, dtype=np.int64)]
                )
                self._bind_views()
            slot = self._nslots
            self._nslots += 1
        self._vpeer[slot] = peer
        self._vhost[slot] = host
        self._vdeg[slot] = 0
        self._index[peer] = slot
        return slot

    def _base_find(self, su: int, sv: int) -> int:
        """Index of the base CSR entry su -> sv, or -1 (rows sorted by slot)."""
        if su >= self._nbase:
            return -1
        e = self._vptr[su + 1]
        i = bisect_left(self._vnbr, sv, self._vptr[su], e)
        if i < e and self._vnbr[i] == sv:
            return i
        return -1

    def _edge_cost(self, su: int, sv: int) -> Optional[float]:
        """Cached cost of the live edge su-sv (NaN = unknown), else ``None``."""
        ex = self._extra.get(su)
        if ex is not None and sv in ex:
            return ex[sv]
        i = self._base_find(su, sv)
        if i >= 0 and not self._vdead[i]:
            return self._vcost[i]
        return None

    def _fill_edge_cost(self, su: int, sv: int, d: float) -> None:
        """Record the now-known cost of a live edge (both directions)."""
        ex = self._extra.get(su)
        if ex is not None and sv in ex:
            ex[sv] = d
            self._extra[sv][su] = d
        else:
            self._vcost[self._base_find(su, sv)] = d
            self._vcost[self._base_find(sv, su)] = d
        self._missing -= 1

    # ------------------------------------------------------------------
    # Peers
    # ------------------------------------------------------------------

    @property
    def num_peers(self) -> int:
        """Number of live peers."""
        return len(self._index)

    @property
    def num_edges(self) -> int:
        """Number of logical connections."""
        return self._nedges

    def peers(self) -> List[int]:
        """Sorted list of live peer ids."""
        if self._peers_cache is None:
            self._peers_cache = sorted(self._index)
        return list(self._peers_cache)

    def has_peer(self, peer: int) -> bool:
        """Whether *peer* is currently in the overlay."""
        return peer in self._index

    def host_of(self, peer: int) -> int:
        """Physical host a peer lives on."""
        return self._vhost[self._index[peer]]

    def add_peer(self, peer: int, host: int) -> None:
        """Add a (disconnected) peer residing on physical node *host*."""
        if peer in self._index:
            raise ValueError(f"peer {peer} already exists")
        if not (0 <= host < self._physical.num_nodes):
            raise ValueError(f"host {host} out of range")
        self._new_slot(peer, host)
        self._peers_cache = None
        self._slots_canonical = False
        self._epoch += 1

    def remove_peer(self, peer: int) -> None:
        """Remove a peer and all its logical connections."""
        slot = self._index[peer]
        deg = self._vdeg
        ex = self._extra.pop(slot, None)
        if ex:
            for sv, c in ex.items():
                other = self._extra[sv]
                del other[slot]
                if not other:
                    del self._extra[sv]
                deg[sv] -= 1
                self._nedges -= 1
                if math.isnan(c):
                    self._missing -= 1
        if slot < self._nbase:
            dead = self._vdead
            for j in range(self._vptr[slot], self._vptr[slot + 1]):
                if dead[j]:
                    continue
                sv = self._vnbr[j]
                dead[j] = True
                dead[self._base_find(sv, slot)] = True
                deg[sv] -= 1
                self._nedges -= 1
                if math.isnan(self._vcost[j]):
                    self._missing -= 1
                self._edits += 2
        del self._index[peer]
        self._vpeer[slot] = -1
        self._vhost[slot] = -1
        deg[slot] = 0
        self._free.append(slot)
        self._peers_cache = None
        self._slots_canonical = False
        self._epoch += 1
        self._maybe_compact()

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------

    def neighbors(self, peer: int) -> Set[int]:
        """The peer's current logical neighbors (a fresh snapshot set)."""
        slot = self._index[peer]
        sp = self._vpeer
        out: Set[int] = set()
        if slot < self._nbase:
            s = self._vptr[slot]
            e = self._vptr[slot + 1]
            out = {
                sp[sv]
                for sv, dead in zip(self._vnbr[s:e], self._vdead[s:e])
                if not dead
            }
        ex = self._extra.get(slot)
        if ex:
            out.update(sp[sv] for sv in ex)
        return out

    def degree(self, peer: int) -> int:
        """Number of logical connections of *peer*."""
        return self._vdeg[self._index[peer]]

    def average_degree(self) -> float:
        """Mean logical degree over live peers."""
        if not self._index:
            return 0.0
        return 2.0 * self.num_edges / self.num_peers

    def has_edge(self, u: int, v: int) -> bool:
        """Whether a logical connection u-v exists."""
        su = self._index.get(u)
        sv = self._index.get(v)
        if su is None or sv is None:
            return False
        return self._edge_cost(su, sv) is not None

    def connect(self, u: int, v: int) -> bool:
        """Establish the logical connection u-v (see object engine)."""
        if u == v:
            raise ValueError("a peer cannot connect to itself")
        su = self._index.get(u)
        sv = self._index.get(v)
        if su is None or sv is None:
            raise KeyError(f"unknown peer in connect({u}, {v})")
        if self._edge_cost(su, sv) is not None:
            return False
        hu = self._vhost[su]
        hv = self._vhost[sv]
        if hu == hv:
            c = 0.0
        else:
            hkey = (hu, hv) if hu < hv else (hv, hu)
            cached = self._cost_cache.get(hkey)
            c = cached if cached is not None else math.nan
        self._extra.setdefault(su, {})[sv] = c
        self._extra.setdefault(sv, {})[su] = c
        self._vdeg[su] += 1
        self._vdeg[sv] += 1
        self._nedges += 1
        if math.isnan(c):
            self._missing += 1
        self._edits += 1
        self._epoch += 1
        self._maybe_compact()
        return True

    def disconnect(self, u: int, v: int) -> bool:
        """Cut the logical connection u-v.  Returns ``True`` if it existed."""
        su = self._index.get(u)
        sv = self._index.get(v)
        if su is None or sv is None:
            raise KeyError(f"unknown peer in disconnect({u}, {v})")
        ex = self._extra.get(su)
        if ex is not None and sv in ex:
            c = ex.pop(sv)
            if not ex:
                del self._extra[su]
            other = self._extra[sv]
            del other[su]
            if not other:
                del self._extra[sv]
        else:
            i = self._base_find(su, sv)
            if i < 0 or self._vdead[i]:
                return False
            c = self._vcost[i]
            self._vdead[i] = True
            self._vdead[self._base_find(sv, su)] = True
            self._edits += 2
        self._vdeg[su] -= 1
        self._vdeg[sv] -= 1
        self._nedges -= 1
        if math.isnan(c):
            self._missing -= 1
        self._epoch += 1
        self._maybe_compact()
        return True

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over logical edges as ``(u, v)`` with ``u < v``."""
        sp = self._vpeer
        if len(self._nbr):
            live = np.nonzero(~self._dead)[0]
            rows = np.searchsorted(self._indptr, live, side="right") - 1
            for i, su in zip(live.tolist(), rows.tolist()):
                u = sp[su]
                v = sp[self._vnbr[i]]
                if u < v:
                    yield (u, v)
        for su in sorted(self._extra):
            u = sp[su]
            for sv in sorted(self._extra[su]):
                v = sp[sv]
                if u < v:
                    yield (u, v)

    # ------------------------------------------------------------------
    # Costs
    # ------------------------------------------------------------------

    def use_oracle(self, oracle: DelayOracle) -> None:
        """Swap the delay backend, dropping every cost memo."""
        if oracle.physical is not self._physical:
            raise ValueError("oracle answers for a different underlay")
        self._oracle = oracle
        self._cost_cache = {}
        self._probe_memo = {}
        if len(self._ncost):
            self._ncost[:] = math.nan
        for ex in self._extra.values():
            for sv in ex:
                ex[sv] = math.nan
        self._missing = self._nedges
        self._epoch += 1

    def cost(self, u: int, v: int) -> float:
        """Cost of a (potential) logical link — object-engine semantics."""
        su = self._index[u]
        sv = self._index[v]
        c = self._edge_cost(su, sv)
        if c is not None and not math.isnan(c):
            counters.edge_cost_hits += 1
            return c
        hu = self._vhost[su]
        hv = self._vhost[sv]
        if hu == hv:
            d = 0.0
        else:
            hkey = (hu, hv) if hu < hv else (hv, hu)
            got = self._cost_cache.get(hkey)
            if got is None:
                if self._oracle.pairwise_cheap:
                    got = self._oracle.delay(hu, hv)
                else:
                    # Rooted at u like costs_from: the exact engine's
                    # scalar delay() reads whichever endpoint's vector is
                    # resident, and dist[u][v] / dist[v][u] may differ in
                    # the last ulp, so its bits would depend on the LRU.
                    got = self._source_delays(hu, [hv]).item(0)
                self._cost_cache[hkey] = got
            d = got
        if c is not None:
            counters.edge_cost_misses += 1
            self._fill_edge_cost(su, sv, d)
        return d

    def _memo_values(self, hu: int, hosts: List[int]) -> Optional[np.ndarray]:
        """Delays from host *hu* to *hosts* out of the probe memo.

        ``None`` unless every host is in *hu*'s pool (the caller then
        faults the whole vector once and reads all of them from it).
        """
        entry = self._probe_memo.get(hu)
        if entry is None:
            return None
        pool, values = entry
        at = np.minimum(np.searchsorted(pool, hosts), len(pool) - 1)
        if not np.array_equal(pool[at], hosts):
            return None
        return values[at]

    def _source_delays(self, hu: int, hosts: List[int]) -> np.ndarray:
        """``dist[hu][h]`` per host: the probe memo, else one vector fault."""
        vals = self._memo_values(hu, hosts)
        if vals is None:
            vals = self._oracle.delays_from(hu, hosts)
        return vals

    def costs_from(self, u: int, targets: Iterable[int]) -> Dict[int, float]:
        """Costs from *u* to several peers with at most one underlay query."""
        index = self._index
        su = index[u]
        host = self._vhost
        hu = host[su]
        # The loop below is _edge_cost(su, st) spelled out over u's row: a
        # closure build asks for every neighbor of every member, and two
        # calls a target cost more than the lookup itself.
        ex = self._extra.get(su)
        nbr, dead, cost = self._vnbr, self._vdead, self._vcost
        s = e = 0
        if su < self._nbase:
            s, e = self._vptr[su], self._vptr[su + 1]
        out: Dict[int, float] = {}
        missing: List[Tuple[int, int, int]] = []
        for t in targets:
            st = index[t]
            c: Optional[float] = None
            if ex is not None and st in ex:
                c = ex[st]
            else:
                i = bisect_left(nbr, st, s, e)
                if i < e and nbr[i] == st and not dead[i]:
                    c = cost[i]
            if c is not None and not math.isnan(c):
                counters.edge_cost_hits += 1
                out[t] = c
                continue
            ht = host[st]
            if ht == hu:
                cached: Optional[float] = 0.0
            else:
                cached = self._cost_cache.get((hu, ht) if hu < ht else (ht, hu))
            if cached is None:
                missing.append((t, st, ht))
            else:
                out[t] = cached
                if c is not None:
                    self._fill_edge_cost(su, st, cached)
        if missing:
            hosts = [ht for _, _, ht in missing]
            if self._oracle.pairwise_cheap:
                # Embedding backend: resolve only the pairs actually asked
                # for; delay_pairs matches the vector entries bit for bit.
                vals = self._oracle.delay_pairs([hu] * len(missing), hosts)
            else:
                vals = self._source_delays(hu, hosts)
            for (t, st, ht), d in zip(missing, vals.tolist()):
                self._cost_cache[(hu, ht) if hu < ht else (ht, hu)] = d
                out[t] = d
                # Looked up again, not remembered from the first pass: a
                # target listed twice must fill (and count) its edge once.
                c = self._edge_cost(su, st)
                if c is not None and math.isnan(c):
                    counters.edge_cost_misses += 1
                    self._fill_edge_cost(su, st, d)
        return out

    def _iter_unknown_edges(self) -> Iterator[Tuple[int, int]]:
        """Live edges (as slot pairs, lower peer id first) lacking a cost."""
        sp = self._vpeer
        if len(self._ncost):
            unknown = np.nonzero(np.isnan(self._ncost) & ~self._dead)[0]
            if len(unknown):
                rows = np.searchsorted(self._indptr, unknown, side="right") - 1
                for i, su in zip(unknown.tolist(), rows.tolist()):
                    sv = self._vnbr[i]
                    if sp[su] < sp[sv]:
                        yield su, sv
        for su in sorted(self._extra):
            pu = sp[su]
            for sv, c in self._extra[su].items():
                if math.isnan(c) and pu < sp[sv]:
                    yield su, sv

    def _live_rows(self, slots: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Live edges out of *slots*: ``(position in slots, neighbor slot)``."""
        based = np.flatnonzero(slots < self._nbase)
        first = self._indptr[slots[based]]
        deg = self._indptr[slots[based] + 1] - first
        ends = np.cumsum(deg)
        eidx = np.repeat(first - (ends - deg), deg) + np.arange(int(deg.sum()))
        live = ~self._dead[eidx]
        pos = np.repeat(based, deg)[live]
        nbr = self._nbr[eidx[live]]
        if self._extra:
            buffered = [
                (i, sv)
                for i, s in enumerate(slots.tolist())
                for sv in self._extra.get(s, ())
            ]
            if buffered:
                extra = np.array(buffered, dtype=np.int64)
                pos = np.concatenate([pos, extra[:, 0]])
                nbr = np.concatenate([nbr, extra[:, 1]])
        return pos, nbr

    def _probe_pools(self, slots: np.ndarray) -> Dict[int, np.ndarray]:
        """Per host of *slots*: sorted hosts within two logical hops.

        Two hops are exactly where Phase 3 looks: a replacement candidate
        is a neighbor of a neighbor
        (:meth:`repro.core.policies.CandidatePolicy._eligible`).  Peers
        sharing a host pool their neighborhoods.
        """
        at1, hop1 = self._live_rows(slots)
        at2, hop2 = self._live_rows(hop1)
        stride = self._physical.num_nodes
        source_host = self._slot_host[slots][np.concatenate([at1, at1[at2]])]
        target_host = self._slot_host[np.concatenate([hop1, hop2])]
        pairs = np.unique(source_host * stride + target_host)
        source_host, target_host = np.divmod(pairs, stride)
        cuts = np.flatnonzero(np.diff(source_host)) + 1
        heads = source_host[np.concatenate([[0], cuts])].tolist()
        # Copies, so that a pool replaced later frees its share of this pass.
        return {
            h: pool.copy() for h, pool in zip(heads, np.split(target_host, cuts))
        }

    def warm_edge_costs(self, chunk_size: int = 256) -> int:
        """Bulk-fill the per-edge costs — O(1) when already warm.

        The object engine re-scans every edge per call; here a running
        missing-cost counter short-circuits the warm case, and the cold case
        finds the NaN entries with one vectorized scan.  The oracle call
        pattern (grouping, direction, chunking) matches the object engine
        exactly, so both engines compute bit-identical costs.

        Under a vector-streaming (exact) oracle the pass reads more entries
        of the same vectors than the object engine does: while it holds the
        vector of a source host it also copies the delays to every host
        within two logical hops of the pending peers there into the
        directional probe memo (see :meth:`_probe_pools`), so the Phase-3
        probes of those peers need no second solve of the same source.  The
        memo is only ever read *after* the host-pair cache, which therefore
        receives the same floats in the same order as without it.
        """
        if self._missing == 0:
            return 0
        pending: Dict[int, List[Tuple[int, int, int, Tuple[int, int]]]] = {}
        for su, sv in list(self._iter_unknown_edges()):
            hu = self._vhost[su]
            hv = self._vhost[sv]
            if hu == hv:
                self._fill_edge_cost(su, sv, 0.0)
                continue
            hkey = (hu, hv) if hu < hv else (hv, hu)
            cached = self._cost_cache.get(hkey)
            if cached is not None:
                self._fill_edge_cost(su, sv, cached)
                continue
            pending.setdefault(hu, []).append((su, sv, hv, hkey))
        if not pending:
            return 0
        filled = 0
        sources = sorted(pending)
        if self._oracle.pairwise_cheap:
            # Embedding backend: ask for exactly the missing pairs in the
            # same (source-sorted) order the chunked path fills them —
            # delay_pairs is bit-identical to the vector entries, so the
            # resulting costs match the object engine's exactly.
            flat = [(h, e) for h in sources for e in pending[h]]
            ds = self._oracle.delay_pairs(
                [h for h, _ in flat], [e[2] for _, e in flat]
            )
            for (h, (su, sv, hv, hkey)), d0 in zip(flat, ds.tolist()):
                d = float(d0)
                self._cost_cache[hkey] = d
                self._fill_edge_cost(su, sv, d)
                counters.edge_cost_misses += 1
                filled += 1
            return filled
        pools = self._probe_pools(
            np.unique([su for edges in pending.values() for su, *_ in edges])
        )
        for start in range(0, len(sources), chunk_size):
            chunk = sources[start : start + chunk_size]
            rows = self._oracle.delays_from_many(chunk, cache=False)
            for h in chunk:
                row = rows[h]
                pool = pools[h]
                self._probe_memo[h] = (pool, row[pool])
                for su, sv, hv, hkey in pending[h]:
                    d = float(row[hv])
                    self._cost_cache[hkey] = d
                    self._fill_edge_cost(su, sv, d)
                    counters.edge_cost_misses += 1
                    filled += 1
        return filled

    def warm_sources(self, peers: Iterable[int]) -> int:
        """Prefetch underlay delay vectors for the given peers' hosts.

        A no-op for pairwise-cheap oracles: prefetching exists to batch
        full single-source solves, and an embedding backend answers the
        exact pairs later asked for directly — computing whole vectors
        here would be strictly wasted arithmetic.
        """
        if self._oracle.pairwise_cheap:
            return 0
        hosts = {self._vhost[self._index[p]] for p in peers if p in self._index}
        return self._oracle.warm(hosts)

    @property
    def cached_edge_costs(self) -> int:
        """Number of logical edges with a resident cached cost."""
        return self._nedges - self._missing

    def invalidate_edge_costs(self) -> None:
        """Drop the whole per-edge cost cache (host-pair memos survive)."""
        if len(self._ncost):
            self._ncost[:] = math.nan
        for ex in self._extra.values():
            for sv in ex:
                ex[sv] = math.nan
        self._missing = self._nedges
        self._epoch += 1

    # ------------------------------------------------------------------
    # Bulk views
    # ------------------------------------------------------------------

    def adjacency_csr(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Compacted live-adjacency snapshot for bulk kernels.

        Returns ``(peer_ids, indptr, targets, costs)`` *views* over the base
        arrays: after compaction slot ``i`` holds the ``i``-th smallest peer
        id, so the slot-valued CSR doubles as a row-index CSR, ``peer_ids``
        is ascending, and every row is sorted by neighbor peer id.  Warms
        the edge costs first and compacts if the edit buffer is non-empty,
        so no row carries tombstones or NaN costs.  The views are read-only
        snapshots: consume them before the next structural mutation.
        """
        self.warm_edge_costs()
        if self._extra or self._edits or self._free or self._nbase != len(
            self._index
        ):
            self._compact()
        n = len(self._index)
        return (
            self._slot_peer[:n],
            self._indptr[: n + 1],
            self._nbr,
            self._ncost,
        )

    def flooding_csr(
        self,
    ) -> Tuple[List[int], np.ndarray, np.ndarray, np.ndarray]:
        """Lower the live adjacency to compiled-CSR inputs.

        :meth:`adjacency_csr` with the peer ids as a list of Python ints
        (what :class:`repro.search.batch.CompiledGraph` indexes by):
        ``targets`` are row indices into ``peer_ids``, sorted within each
        row, costs warmed.  The arrays are *views* of the overlay's storage;
        the strategy compiler copies what it keeps.
        """
        _, indptr, nbr, ncost = self.adjacency_csr()
        return (self.peers(), indptr, nbr, ncost)

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------

    def component_of(self, peer: int) -> Set[int]:
        """All peers reachable from *peer* over logical links."""
        frontier = np.array([self._index[peer]], dtype=np.int64)
        seen = np.zeros(self._nslots, dtype=bool)
        while len(frontier):
            seen[frontier] = True
            _, reached = self._live_rows(frontier)
            frontier = np.unique(reached[~seen[reached]])
        return set(self._slot_peer[np.flatnonzero(seen)].tolist())

    def components(self) -> List[Set[int]]:
        """All connected components, largest first."""
        remaining = set(self._index)
        out: List[Set[int]] = []
        while remaining:
            comp = self.component_of(next(iter(remaining)))
            out.append(comp)
            remaining -= comp
        out.sort(key=len, reverse=True)
        return out

    def is_connected(self) -> bool:
        """Whether all live peers form a single component."""
        if not self._index:
            return True
        return len(self.component_of(next(iter(self._index)))) == self.num_peers

    # ------------------------------------------------------------------

    def copy(self) -> "ArrayOverlay":
        """Deep copy of the logical layer (shares the underlay and oracle)."""
        clone = ArrayOverlay(
            self._physical,
            oracle=self._oracle,
            compact_threshold=self._compact_threshold,
        )
        clone._index = dict(self._index)
        clone._slot_peer = self._slot_peer.copy()
        clone._slot_host = self._slot_host.copy()
        clone._slot_degree = self._slot_degree.copy()
        clone._nslots = self._nslots
        clone._free = list(self._free)
        clone._indptr = self._indptr.copy()
        clone._nbr = self._nbr.copy()
        clone._ncost = self._ncost.copy()
        clone._dead = self._dead.copy()
        clone._nbase = self._nbase
        clone._extra = {s: dict(d) for s, d in self._extra.items()}
        clone._edits = self._edits
        clone._nedges = self._nedges
        clone._missing = self._missing
        clone._peers_cache = (
            list(self._peers_cache) if self._peers_cache is not None else None
        )
        clone._cost_cache = self._cost_cache  # shared, append-only cache
        clone._probe_memo = self._probe_memo  # shared: oracle facts only
        clone._epoch = self._epoch  # compiled-graph caches key on identity
        clone._bind_views()
        return clone

    def to_networkx(self):  # type: ignore[no-untyped-def]
        """Export the logical graph (``cost`` edge attribute included)."""
        import networkx as nx

        g = nx.Graph()
        for p in self.peers():
            g.add_node(p, host=self.host_of(p))
        self.warm_edge_costs()  # one batched solve; the loop below only probes
        for u, v in self.edges():
            # replint: disable=REP004 — served from the just-warmed edge cache
            g.add_edge(u, v, cost=self.cost(u, v))
        return g

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ArrayOverlay(num_peers={self.num_peers}, "
            f"num_edges={self.num_edges})"
        )
