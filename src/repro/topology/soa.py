"""Struct-of-arrays overlay: the engine every scenario runs on.

:class:`ArrayOverlay` is the overlay every generator
(:mod:`repro.topology.overlay`) and
:func:`~repro.experiments.setup.build_scenario` return: the Gnutella-like
logical network the paper studies, peers (integer ids) on physical hosts,
with symmetric logical links whose *cost* is the underlay shortest-path
delay between the two hosts — the cost metric of ACE Phase 1.  It holds
the peer/edge state in flat numpy arrays:

* per-slot arrays — peer id, physical host, live logical degree — indexed by
  a dense *slot* number (``_index`` maps peer id -> slot);
* a CSR adjacency over slots (``_indptr`` / ``_nbr``) with a parallel
  ``float64`` per-edge cost array (``NaN`` = cost not yet known);
* ACE's routing state, kept the way a servent keeps it (paper §3.3): one
  ``int8`` label per *directed* entry beside its cost (``_label``:
  :data:`UNLABELLED`, :data:`FLOODING` or :data:`NON_FLOODING`, written by
  the peer's Phase 2 through :meth:`label_links`) and one "tree broken" bit
  per slot (``_broken``), set when :meth:`disconnect` or
  :meth:`remove_peer` cuts a link its peer labelled flooding.
  :meth:`connect` makes unlabelled links, a reused slot starts unbroken, and
  the column travels through the edit buffer (``_xlabel``), compaction and
  :meth:`copy`.  The routing rule that reads it is
  :func:`repro.core.turn.forwards`;
* an **incremental edit buffer**: mutations never rewrite the CSR in place.
  :meth:`disconnect` tombstones base entries (``_dead``), :meth:`connect`
  buffers new edges in a small dict-of-dicts overlay (``_extra``), and once
  the buffered edit count crosses a threshold the structure re-packs into a
  fresh compact CSR (slots reassigned in sorted-peer order, rows sorted).
  Compactions and buffer flushes are counted in
  :data:`repro.perf.counters` (``soa_compactions`` /
  ``soa_edit_buffer_flushes``).

The tests hold this engine to a dict-of-sets ``Overlay`` with the same
public surface (``tests/reference/overlay.py``).  Epoch bumps, the per-edge
cost column over the oracle's host-pair store, counter accounting and error
behaviour match it exactly, so both produce byte-identical experiment
figures from the same seed (``TestArrayEngineMatchesObject`` in
``tests/experiments/test_reproducibility.py``; ``tests/golden`` pins the
figures themselves).  The engine remembers no host-pair delay of its own:
a missing cost is asked of the oracle, and its bulk fill hands the oracle
the hosts Phase 3 can probe from each end (:meth:`_probe_pools`), whose
delays an exact oracle keeps out of the rows it streams
(:mod:`repro.oracle.exact`).  The payoff is bulk state:

* :meth:`warm_edge_costs` is O(1) when the overlay is already warm (the
  reference re-scans every edge per call), and a vectorized NaN scan
  otherwise;
* :meth:`flooding_csr` lowers the adjacency straight into the compiled
  query kernel's CSR form (:mod:`repro.search.batch`) without materializing
  per-peer neighbor sets.

:meth:`neighbors` returns a fresh *snapshot* set per call (the reference
returns its live internal set); all in-repo consumers either copy or re-fetch
around mutations, so the two behaviours are indistinguishable.

One rule splits the code: **numpy for bulk, buffers for scalars.**  The bulk
kernels (compaction, the NaN scan, :meth:`live_rows`, the CSR views) work
on the arrays; every method that touches one element at a time — the
per-peer half of an ACE turn: :meth:`neighbors`, :meth:`has_edge`,
:meth:`cost`, :meth:`costs_from`, :meth:`connect`, :meth:`disconnect`,
:meth:`remove_peer`, :meth:`degree`, :meth:`host_of`, :meth:`live_row`,
:meth:`label_links`, :meth:`link_labels` and the helpers under them — reads
and writes the *same memory* through ``memoryview``s (``_vpeer`` …
``_vbroken``), which hand back plain ``int`` /
``float`` / ``bool`` at a fifth of the price of a numpy element read plus
unwrapping.
There is no second copy of any state to keep in step: a view aliases its
array, so a write on either side is the other side's next read.  A view can
only go stale when an array *object* is replaced, and that happens in four
places — construction, :meth:`_install_base` (compaction, packing),
slot growth and :meth:`copy` — each of which ends in :meth:`_bind_views`
(``tests/topology/test_array_overlay.py::TestBufferViews``).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import (
    Collection,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

import numpy as np

from ..metrics.collector import left_fold
from ..oracle.base import DelayOracle
from ..oracle.exact import ExactOracle
from ..perf import counters
from .physical import PhysicalTopology

__all__ = ["ArrayOverlay", "UNLABELLED", "FLOODING", "NON_FLOODING"]

#: Link labels of the ACE routing state: a link its peer has not classified
#: since it was made (or since the protocol started), a tree link of the
#: peer's last Phase 2, and a link that tree left out.
UNLABELLED, FLOODING, NON_FLOODING = 0, 1, 2

#: Logical hops out of which an exact oracle keeps a solved row's delays
#: (:meth:`ArrayOverlay._probe_pools`).  Phase 3 probes two hops out; the
#: third keeps those probes inside the row while the neighborhood rewires
#: or a joined peer links in.
_REACH = 3
_NO_HOSTS = np.empty(0, dtype=np.int64)


def _unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` by one sort.  On the pool keys below numpy's
    default, a hash table then a sort of its output, takes 15-20 times as
    long (60,000 keys: 10 ms against 0.6 ms)."""
    keys = np.sort(keys)
    return keys[np.concatenate([keys[:1] == keys[:1], keys[1:] != keys[:-1]])]


class ArrayOverlay:
    """Flat-array overlay engine (see module docstring)."""

    def __init__(
        self,
        physical: PhysicalTopology,
        hosts: Optional[Dict[int, int]] = None,
        oracle: Optional[DelayOracle] = None,
        compact_threshold: Optional[int] = None,
    ) -> None:
        self._physical = physical
        if oracle is not None and oracle.physical is not physical:
            raise ValueError("oracle answers for a different underlay")
        self._oracle: DelayOracle = (
            oracle if oracle is not None else ExactOracle(physical)
        )
        self._epoch = 0
        self._compact_threshold = compact_threshold

        self._index: Dict[int, int] = {}
        self._slot_peer: np.ndarray = np.empty(0, dtype=np.int64)
        self._slot_host: np.ndarray = np.empty(0, dtype=np.int64)
        self._slot_degree: np.ndarray = np.empty(0, dtype=np.int64)
        self._broken: np.ndarray = np.empty(0, dtype=bool)
        self._nslots = 0
        self._free: List[int] = []

        self._indptr: np.ndarray = np.zeros(1, dtype=np.int64)
        self._nbr: np.ndarray = np.empty(0, dtype=np.int64)
        self._ncost: np.ndarray = np.empty(0, dtype=np.float64)
        self._label: np.ndarray = np.empty(0, dtype=np.int8)
        self._dead: np.ndarray = np.zeros(0, dtype=bool)
        self._nbase = 0

        self._extra: Dict[int, Dict[int, float]] = {}
        #: Labels of buffered links, ``(slot, neighbor slot) -> label``;
        #: a link with no entry is unlabelled.
        self._xlabel: Dict[Tuple[int, int], int] = {}
        self._edits = 0
        self._nedges = 0
        self._missing = 0
        self._peers_cache: Optional[List[int]] = None
        #: Departed peers' hosts, and per peer the departed peers it was
        #: linked to when they left (:meth:`_probe_pools`).
        self._departed: Dict[int, int] = {}
        self._lost: Dict[int, Set[int]] = {}
        #: Slots still exactly the sorted-peer layout of the last repack
        #: (no peer added/removed since): re-packs can skip re-deriving the
        #: slot order and index.
        self._slots_canonical = False
        self._bind_views()

        if hosts:
            for peer, host in hosts.items():
                self.add_peer(peer, host)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def _packed(
        cls, physical: PhysicalTopology, hosts: List[int], ends: List[int]
    ) -> "ArrayOverlay":
        """Peer ``i`` on ``hosts[i]``, linked by *ends* (``u0, v0, u1, v1, ...``)
        at unknown costs, packed as a repack leaves them."""
        n = len(hosts)
        order = list(range(n))
        pairs = np.array(ends, dtype=np.int64).reshape(-1, 2)
        rows, cols = np.concatenate([pairs, pairs[:, ::-1]]).T
        entries = np.argsort(rows * n + cols)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        out = cls(physical)
        out._install_base(
            order, dict(zip(order, order)), np.array(hosts, dtype=np.int64),
            indptr, cols[entries], np.full(len(cols), math.nan),
            np.zeros(len(cols), dtype=np.int8), np.zeros(n, dtype=bool),
        )
        return out

    def _install_base(
        self,
        order: List[int],
        index: Dict[int, int],
        host: np.ndarray,
        indptr: np.ndarray,
        nbr: Union[List[int], np.ndarray],
        cost: Union[List[float], np.ndarray],
        label: np.ndarray,
        broken: np.ndarray,
    ) -> None:
        """Install a freshly packed base CSR (slots in sorted-peer order)."""
        n = len(order)
        nnz = int(indptr[n])
        self._index = index
        self._slot_peer = np.array(order, dtype=np.int64)
        self._slot_host = host
        self._slot_degree = np.diff(indptr).astype(np.int64)
        self._broken = broken
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
        self._label = label
        self._dead = np.zeros(nnz, dtype=bool)
        self._nbase = n
        self._extra = {}
        self._xlabel = {}
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
        self._vlabel = memoryview(self._label)
        self._vdead = memoryview(self._dead)
        self._vbroken = memoryview(self._broken)

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
            broken = self._broken[:n].copy()
            new_of = None
        else:
            # Live slots (all but the freed ones) in peer order.
            held = np.delete(np.arange(self._nslots), self._free)
            old_slots = held[np.argsort(self._slot_peer[held], kind="stable")]
            order = self._slot_peer[old_slots].tolist()
            n = len(order)
            index = dict(zip(order, range(n)))
            new_of = np.full(max(self._nslots, 1), -1, dtype=np.int64)
            new_of[old_slots] = np.arange(n, dtype=np.int64)
            host = self._slot_host[old_slots].astype(np.int64)
            broken = self._broken[old_slots]

        # Live base entries of every surviving row, gathered in one shot.
        if identity:
            live = ~self._dead
            deg_all = (self._indptr[1:] - self._indptr[:-1]) if n else (
                np.empty(0, dtype=np.int64)
            )
            e_row = np.repeat(np.arange(n, dtype=np.int64), deg_all)[live]
            e_nbr = self._nbr[live]
            e_cost = self._ncost[live]
            e_label = self._label[live]
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
                e_label = self._label[eidx]
            else:
                e_row = e_nbr = np.empty(0, dtype=np.int64)
                e_cost = np.empty(0, dtype=np.float64)
                e_label = np.empty(0, dtype=np.int8)

        # Buffered extra edges (small; entries on freed slots are skipped
        # exactly like the per-row .get() of the scalar layout pass).
        ex_row: List[int] = []
        ex_nbr: List[int] = []
        ex_cost: List[float] = []
        ex_label: List[int] = []
        xlabel = self._xlabel
        for slot, ex in self._extra.items():
            r = slot if new_of is None else int(new_of[slot])
            if r < 0 or not ex:
                continue
            for sv, c in ex.items():
                ex_row.append(r)
                ex_nbr.append(sv if new_of is None else int(new_of[sv]))
                ex_cost.append(c)
                ex_label.append(xlabel.get((slot, sv), UNLABELLED))
        if ex_row:
            e_row = np.concatenate([e_row, np.array(ex_row, dtype=np.int64)])
            e_nbr = np.concatenate([e_nbr, np.array(ex_nbr, dtype=np.int64)])
            e_cost = np.concatenate(
                [e_cost, np.array(ex_cost, dtype=np.float64)]
            )
            e_label = np.concatenate(
                [e_label, np.array(ex_label, dtype=np.int8)]
            )

        # Canonical layout: rows in sorted-peer order, each row sorted by
        # neighbor slot (== neighbor peer id; (row, nbr) pairs are unique,
        # so one stable sort of the key ``row * n + nbr`` matches the scalar
        # per-row pair sort exactly, at a quarter of a two-key lexsort's
        # time on these mostly ordered runs).  Under the identity fast path
        # with no buffered extras the masked base rows are already in that
        # order, so the sort is a no-op we skip.
        if not (identity and not ex_row):
            perm = np.argsort(e_row * max(n, 1) + e_nbr, kind="stable")
            e_nbr = e_nbr[perm]
            e_cost = e_cost[perm]
            e_label = e_label[perm]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(e_row, minlength=n), out=indptr[1:])
        self._install_base(
            order, index, host, indptr, e_nbr, e_cost, e_label, broken
        )

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
                self._broken = np.concatenate(
                    [self._broken, np.zeros(grow, dtype=bool)]
                )
                self._bind_views()
            slot = self._nslots
            self._nslots += 1
        self._vpeer[slot] = peer
        self._vhost[slot] = host
        self._vdeg[slot] = 0
        self._vbroken[slot] = False
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
    def physical(self) -> PhysicalTopology:
        """The underlay this overlay is built on."""
        return self._physical

    @property
    def oracle(self) -> DelayOracle:
        """The delay oracle answering this overlay's cost lookups."""
        return self._oracle

    @property
    def epoch(self) -> int:
        """Monotone structural version of the logical layer.

        Bumped by every mutation that can change the forwarding graph or its
        edge costs — :meth:`add_peer`, :meth:`remove_peer`, :meth:`connect`,
        :meth:`disconnect` and :meth:`use_oracle` — so derived structures
        (notably the compiled CSR forwarding graphs in
        :mod:`repro.search.batch`) can be memoized per epoch and invalidated
        for free.  Link labels and compaction leave it where it is.
        """
        return self._epoch

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
        self._departed.pop(peer, None)
        self._peers_cache = None
        self._slots_canonical = False
        self._epoch += 1

    def remove_peer(self, peer: int) -> None:
        """Remove a peer and all its logical connections."""
        slot = self._index[peer]
        for n in self.neighbors(peer):
            self._lost.setdefault(n, set()).add(peer)
        self._lost.pop(peer, None)
        self._departed[peer] = self._vhost[slot]
        deg = self._vdeg
        broken = self._vbroken
        ex = self._extra.pop(slot, None)
        if ex:
            xlabel = self._xlabel
            for sv, c in ex.items():
                other = self._extra[sv]
                del other[slot]
                if not other:
                    del self._extra[sv]
                xlabel.pop((slot, sv), None)
                if xlabel.pop((sv, slot), UNLABELLED) == FLOODING:
                    broken[sv] = True
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
                back = self._base_find(sv, slot)
                dead[j] = True
                dead[back] = True
                if self._vlabel[back] == FLOODING:
                    broken[sv] = True
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

    def isolated_peers(self) -> List[int]:
        """Sorted ids of the live peers with no logical connection."""
        peer = self._slot_peer[: self._nslots]
        lone = (self._slot_degree[: self._nslots] == 0) & (peer >= 0)
        return sorted(peer[lone].tolist())

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
        """Establish the logical connection u-v.

        Returns ``True`` if a new connection was created, ``False`` if it
        already existed.  Raises for unknown peers or self-connections.  The
        new link's cost is filled now if the oracle already knows its host
        pair, and left unknown (NaN) for a later lookup or bulk fill
        otherwise: a connect never touches the underlay.
        """
        if u == v:
            raise ValueError("a peer cannot connect to itself")
        su = self._index.get(u)
        sv = self._index.get(v)
        if su is None or sv is None:
            raise KeyError(f"unknown peer in connect({u}, {v})")
        if self._edge_cost(su, sv) is not None:
            return False
        known = self._oracle.known(self._vhost[su], self._vhost[sv])
        c = math.nan if known is None else known
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
            label_u = self._xlabel.pop((su, sv), UNLABELLED)
            label_v = self._xlabel.pop((sv, su), UNLABELLED)
        else:
            i = self._base_find(su, sv)
            if i < 0 or self._vdead[i]:
                return False
            back = self._base_find(sv, su)
            c = self._vcost[i]
            self._vdead[i] = True
            self._vdead[back] = True
            label_u, label_v = self._vlabel[i], self._vlabel[back]
            self._edits += 2
        # A servent notices the dropped connection at once: a cut tree
        # link breaks its peer's tree until that peer's next Phase 2.
        if label_u == FLOODING:
            self._vbroken[su] = True
        if label_v == FLOODING:
            self._vbroken[sv] = True
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
    # ACE link labels
    # ------------------------------------------------------------------

    def label_links(self, peer: int, flooding: Collection[int]) -> None:
        """Phase 2 at *peer*: classify every live link, mend the tree.

        A link to a peer in *flooding* is labelled :data:`FLOODING`, every
        other live link :data:`NON_FLOODING`.  Routing state, not
        structure: the epoch does not move.
        """
        slot = self._index[peer]
        sp = self._vpeer
        if slot < self._nbase:
            nbr, dead, label = self._vnbr, self._vdead, self._vlabel
            for i in range(self._vptr[slot], self._vptr[slot + 1]):
                if not dead[i]:
                    label[i] = FLOODING if sp[nbr[i]] in flooding else NON_FLOODING
        ex = self._extra.get(slot)
        if ex:
            for sv in ex:
                self._xlabel[(slot, sv)] = (
                    FLOODING if sp[sv] in flooding else NON_FLOODING
                )
        self._vbroken[slot] = False

    def link_labels(self, peer: int) -> Tuple[Dict[int, int], bool]:
        """*peer*'s live links as ``{neighbor: label}``, and its broken bit."""
        slot = self._index[peer]
        sp = self._vpeer
        out: Dict[int, int] = {}
        if slot < self._nbase:
            s = self._vptr[slot]
            e = self._vptr[slot + 1]
            for sv, dead, label in zip(
                self._vnbr[s:e], self._vdead[s:e], self._vlabel[s:e]
            ):
                if not dead:
                    out[sp[sv]] = label
        ex = self._extra.get(slot)
        if ex:
            for sv in ex:
                out[sp[sv]] = self._xlabel.get((slot, sv), UNLABELLED)
        return out, bool(self._vbroken[slot])

    def label_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """The label column and the per-row broken bits, compacted.

        Aligned with :meth:`flooding_csr`: entry ``i`` labels ``targets[i]``
        and row ``r``'s bit is ``broken[r]``.  Views, like that method's.
        """
        self.flush_edits()
        return self._label, self._broken[: len(self._index)]

    def clear_labels(self) -> None:
        """Unlabel every link and mend every tree: the state before ACE."""
        self._label[:] = UNLABELLED
        self._broken[:] = False
        self._xlabel = {}

    # ------------------------------------------------------------------
    # Costs
    # ------------------------------------------------------------------

    def use_oracle(self, oracle: DelayOracle) -> None:
        """Swap the delay backend, dropping every per-edge cost."""
        if oracle.physical is not self._physical:
            raise ValueError("oracle answers for a different underlay")
        self._oracle = oracle
        if len(self._ncost):
            self._ncost[:] = math.nan
        for ex in self._extra.values():
            for sv in ex:
                ex[sv] = math.nan
        self._missing = self._nedges
        self._epoch += 1

    def cost(self, u: int, v: int) -> float:
        """Cost of a (potential) logical link: underlay shortest-path delay.

        A live link's known cost is served from the cost column (counted as
        a hit); any other pair is the oracle's, and a live link's missing
        cost is filled with the answer (counted as a miss).
        """
        su = self._index[u]
        sv = self._index[v]
        c = self._edge_cost(su, sv)
        if c is not None and not math.isnan(c):
            counters.edge_cost_hits += 1
            return c
        d: float = self._oracle.delays_from(self._vhost[su], [self._vhost[sv]]).item(0)
        if c is not None:
            counters.edge_cost_misses += 1
            self._fill_edge_cost(su, sv, d)
        return d

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
            known = self._oracle.known(hu, ht)
            if known is None:
                missing.append((t, st, ht))
            else:
                out[t] = known
                if c is not None:
                    self._fill_edge_cost(su, st, known)
        if missing:

            def keep() -> np.ndarray:
                pools = self._probe_pools(np.array([su], dtype=np.int64))
                return pools.get(hu, _NO_HOSTS)

            vals = self._oracle.delays_from(hu, [ht for _, _, ht in missing], keep)
            for (t, st, _), d in zip(missing, vals.tolist()):
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

    def live_rows(
        self, slots: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Live edges out of *slots*, the edit buffer merged in.

        Returns ``(position in slots, neighbor slot, cost)`` sorted by
        position, then by neighbor slot: tombstoned base entries are
        dropped and buffered links join their row, so a bulk kernel reads
        the overlay as it stands without waiting for a compaction.
        """
        based = np.flatnonzero(slots < self._nbase)
        first = self._indptr[slots[based]]
        deg = self._indptr[slots[based] + 1] - first
        ends = np.cumsum(deg)
        eidx = np.repeat(first - (ends - deg), deg) + np.arange(int(deg.sum()))
        live = ~self._dead[eidx]
        pos = np.repeat(based, deg)[live]
        eidx = eidx[live]
        nbr = self._nbr[eidx]
        cost = self._ncost[eidx]
        if self._extra:
            held = np.fromiter(self._extra, dtype=np.int64, count=len(self._extra))
            at = np.flatnonzero(np.isin(slots, held))
            if len(at):
                x_pos: List[int] = []
                x_nbr: List[int] = []
                x_cost: List[float] = []
                for i, s in zip(at.tolist(), slots[at].tolist()):
                    ex = self._extra[s]
                    x_pos += [i] * len(ex)
                    x_nbr += ex
                    x_cost += ex.values()
                pos = np.concatenate([pos, np.array(x_pos, dtype=np.int64)])
                nbr = np.concatenate([nbr, np.array(x_nbr, dtype=np.int64)])
                cost = np.concatenate([cost, np.array(x_cost, dtype=np.float64)])
                # Base rows come out (position, slot)-ordered already; the
                # buffered links are merged into that order.  The pairs are
                # unique, so sorting one combined key is the lexsort, and
                # on a mostly ordered key a stable sort is close to a merge.
                order = np.argsort(pos * max(self._nslots, 1) + nbr, kind="stable")
                pos, nbr, cost = pos[order], nbr[order], cost[order]
        return pos, nbr, cost

    def live_row(self, peer: int) -> Tuple[List[int], List[float]]:
        """Live neighbors of *peer* and their cached costs (NaN = unknown).

        :meth:`live_rows` for one peer, read through the buffer views and in
        peer-id space: base entries first, then buffered links, unsorted.
        """
        slot = self._index[peer]
        sp = self._vpeer
        nbrs: List[int] = []
        costs: List[float] = []
        if slot < self._nbase:
            s = self._vptr[slot]
            e = self._vptr[slot + 1]
            for sv, dead, c in zip(
                self._vnbr[s:e], self._vdead[s:e], self._vcost[s:e]
            ):
                if not dead:
                    nbrs.append(sp[sv])
                    costs.append(c)
        ex = self._extra.get(slot)
        if ex:
            for sv, c in ex.items():
                nbrs.append(sp[sv])
                costs.append(c)
        return nbrs, costs

    def _probe_pools(self, slots: np.ndarray) -> Dict[int, np.ndarray]:
        """Per host of *slots*: sorted hosts within :data:`_REACH` logical
        hops of its peers among *slots*.

        A peer's Phase 3 probes a neighbor of a neighbor
        (:meth:`repro.core.policies.CandidatePolicy.pool`), and is probed by
        the peers two hops out.  A departed peer still counts as linked to
        the peers it left, until it rejoins: a rejoining servent dials the
        addresses it cached first (:mod:`repro.sim.bootstrap`), so it comes
        back where it left, and a row kept while it was away would
        otherwise not name it.  Peers sharing a host pool their
        neighborhoods; a peer with no link, now or at a departure, adds
        nothing.
        """
        heads, head = np.unique(self._slot_host[slots], return_inverse=True)
        # Reached (head, slot) pairs as sorted keys head * stride + slot.
        stride = max(self._nslots, 1)
        reached = _NO_HOSTS
        gone: List[Tuple[int, int]] = []
        origin, frontier = head, slots
        for _ in range(_REACH):
            if self._lost:
                gone += self._departed_near(origin, frontier)
            at, step, _ = self.live_rows(frontier)
            new = _unique(origin[at] * stride + step)
            new = new[~np.isin(new, reached, assume_unique=True, kind="sort")]
            reached = np.sort(np.concatenate([reached, new]))
            origin, frontier = np.divmod(new, stride)
        at_head, slot = np.divmod(reached, stride)
        hosts = self._slot_host[slot]
        if gone:
            more = np.array(gone, dtype=np.int64)
            at_head = np.concatenate([at_head, more[:, 0]])
            hosts = np.concatenate([hosts, more[:, 1]])
        stride = self._physical.num_nodes
        pairs = _unique(at_head * stride + hosts)
        at_head, host = np.divmod(pairs, stride)
        cuts = np.flatnonzero(np.diff(at_head)) + 1
        found = at_head[np.concatenate([[0], cuts])] if len(pairs) else _NO_HOSTS
        return {
            int(heads[i]): pool
            for i, pool in zip(found.tolist(), np.split(host, cuts))
        }

    def _departed_near(
        self, origin: np.ndarray, frontier: np.ndarray
    ) -> List[Tuple[int, int]]:
        """``(origin, host)`` for each peer that left a peer of *frontier*
        and has not rejoined; the ids that rejoined are dropped."""
        out: List[Tuple[int, int]] = []
        departed = self._departed
        for o, p in zip(origin.tolist(), self._slot_peer[frontier].tolist()):
            lost = self._lost.get(p)
            if lost:
                lost.intersection_update(departed)
                out += [(o, departed[g]) for g in lost]
        return out

    def warm_edge_costs(self) -> int:
        """Bulk-fill the per-edge costs — O(1) when already warm.

        The reference re-scans every edge per call; here a running
        missing-cost counter short-circuits the warm case, and the cold case
        finds the NaN entries with one vectorized scan.  Pairs the oracle
        does not know yet go to one
        :meth:`~repro.oracle.base.DelayOracle.delay_pairs` call, which may
        keep, out of each row it reads, the delays to the hosts within
        :data:`_REACH` logical hops of the peers that row serves
        (:meth:`_probe_pools`): the Phase-3 probes from either end of those
        pairs.
        """
        if self._missing == 0:
            return 0
        pending: List[Tuple[int, int]] = []
        for su, sv in list(self._iter_unknown_edges()):
            known = self._oracle.known(self._vhost[su], self._vhost[sv])
            if known is None:
                pending.append((su, sv))
            else:
                self._fill_edge_cost(su, sv, known)
        if not pending:
            return 0
        ends = np.array(pending, dtype=np.int64)

        def keep(first: np.ndarray, at: np.ndarray) -> Dict[int, np.ndarray]:
            read = np.where(first[at], ends[at, 0], ends[at, 1])
            return self._probe_pools(np.unique(read))

        hu, hv = self._slot_host[ends].T.tolist()
        costs = self._oracle.delay_pairs(hu, hv, keep=keep)
        for (su, sv), d in zip(pending, costs.tolist()):
            self._fill_edge_cost(su, sv, d)
        counters.edge_cost_misses += len(pending)
        return len(pending)

    @property
    def cached_edge_costs(self) -> int:
        """Number of logical edges with a resident cached cost."""
        return self._nedges - self._missing

    def total_edge_cost(self) -> float:
        """Sum of logical-link costs over all overlay edges."""
        return left_fold(self.cost(u, v) for u, v in self.edges())

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
        self.flush_edits()
        n = len(self._index)
        return (
            self._slot_peer[:n],
            self._indptr[: n + 1],
            self._nbr,
            self._ncost,
        )

    def flush_edits(self) -> None:
        """Fold the edit buffer into a fresh base CSR, if it holds anything."""
        if self._extra or self._edits or self._free or self._nbase != len(
            self._index
        ):
            self._compact()

    def canonical_slots(self) -> np.ndarray:
        """Slot -> peer id, ascending, with every edge cost warmed.

        The entry of the bulk kernels that read the edit buffer as it
        stands (:meth:`live_rows`).  Edge edits keep slot order equal to
        peer order, so only a moved peer set (a join or a departure since
        the last repack) forces a compaction here; the edit threshold of
        :meth:`connect` / :meth:`disconnect` paces every other one.
        """
        self.warm_edge_costs()
        if not self._slots_canonical:
            self._compact()
        return self._slot_peer[: self._nbase]

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
            _, reached, _ = self.live_rows(frontier)
            frontier = np.unique(reached[~seen[reached]])
        return set(self._slot_peer[np.flatnonzero(seen)].tolist())

    def is_connected(self) -> bool:
        """Whether all live peers form a single component."""
        if not self._index:
            return True
        return len(self.component_of(next(iter(self._index)))) == self.num_peers

    # ------------------------------------------------------------------

    def copy(self) -> "ArrayOverlay":
        """Deep copy of the logical layer (shares the underlay and oracle).

        Sharing the oracle shares its host-pair store.  That is safe: link
        delays sit on the 2**-10 grid, so a stored delay is a fact of its
        host pair, the same float whichever copy, arm or direction solved it
        first, and arms run over copies of one scenario read the same costs
        in either order
        (``tests/topology/test_array_overlay.py::TestCopiesShareCosts``).
        """
        clone = ArrayOverlay(
            self._physical,
            oracle=self._oracle,
            compact_threshold=self._compact_threshold,
        )
        clone._index = dict(self._index)
        clone._slot_peer = self._slot_peer.copy()
        clone._slot_host = self._slot_host.copy()
        clone._slot_degree = self._slot_degree.copy()
        clone._broken = self._broken.copy()
        clone._nslots = self._nslots
        clone._free = list(self._free)
        clone._indptr = self._indptr.copy()
        clone._nbr = self._nbr.copy()
        clone._ncost = self._ncost.copy()
        clone._label = self._label.copy()
        clone._dead = self._dead.copy()
        clone._nbase = self._nbase
        clone._extra = {s: dict(d) for s, d in self._extra.items()}
        clone._xlabel = dict(self._xlabel)
        clone._edits = self._edits
        clone._nedges = self._nedges
        clone._missing = self._missing
        clone._peers_cache = (
            list(self._peers_cache) if self._peers_cache is not None else None
        )
        clone._departed = dict(self._departed)
        clone._lost = {p: set(gone) for p, gone in self._lost.items()}
        clone._slots_canonical = self._slots_canonical
        clone._epoch = self._epoch  # compiled-graph caches key on identity
        clone._bind_views()
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ArrayOverlay(num_peers={self.num_peers}, "
            f"num_edges={self.num_edges})"
        )
