"""Flat-array store for per-peer ACE optimization state.

One :class:`~repro.core.ace.PeerAceState` dataclass per peer would cost
tens of bytes of Python object headers per field, which dominates memory at
100k+ peers.  :class:`FlatAceStore` holds the same information in
struct-of-arrays form — it is :class:`~repro.core.ace.AceProtocol`'s only
state store:

* scalar fields (``closure_size``, ``closure_edges``) in dense ``int64``
  arrays indexed by a per-peer *row*;
* the ``flooding`` / ``known_neighbors`` membership sets in packed CSR
  snapshot arrays plus a small dict of *pending* rows (rows written since
  the last pack).  When the pending overlay (plus holes left by dropped
  rows) outgrows a threshold, the store re-packs into fresh contiguous
  arrays and counts an ``array_state_syncs`` perf event.

Readers take one peer at a time (``flooding_of`` / ``known_of``) or, for
bulk consumers such as the ACE strategy compiler, every row at once
(:meth:`FlatAceStore.rows`: packed and pending rows merged into one CSR
pair without repacking).

The store only keeps raw memberships — the protocol derives
``non_flooding = known - flooding`` on materialization
(:meth:`~repro.core.ace.AceProtocol.state_of`).
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from ..perf import counters

__all__ = ["FlatAceStore"]


class FlatAceStore:
    """Struct-of-arrays container for ACE per-peer state."""

    def __init__(self, repack_threshold: Optional[int] = None) -> None:
        self._repack_threshold = repack_threshold
        self._row: Dict[int, int] = {}
        self._nrows = 0
        self._closure_size: np.ndarray = np.empty(0, dtype=np.int64)
        self._closure_edges: np.ndarray = np.empty(0, dtype=np.int64)
        # Packed membership snapshots cover rows < len(_f_indptr) - 1 that
        # have no pending override; every row touched after the last pack
        # lives in ``_pending`` until the next one.
        self._f_indptr: np.ndarray = np.zeros(1, dtype=np.int64)
        self._f_data: np.ndarray = np.empty(0, dtype=np.int64)
        self._k_indptr: np.ndarray = np.zeros(1, dtype=np.int64)
        self._k_data: np.ndarray = np.empty(0, dtype=np.int64)
        self._pending: Dict[int, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._row)

    def __contains__(self, peer: int) -> bool:
        return peer in self._row

    @property
    def pending_rows(self) -> int:
        """Rows currently held in the unpacked overlay (for tests)."""
        return len(self._pending)

    @property
    def packed_rows(self) -> int:
        """Rows covered by the packed CSR snapshot (for tests)."""
        return len(self._f_indptr) - 1

    # ------------------------------------------------------------------

    def _grow_scalars(self, need: int) -> None:
        cap = len(self._closure_size)
        if need <= cap:
            return
        new_cap = max(8, cap)
        while new_cap < need:
            new_cap *= 2
        pad = np.zeros(new_cap - cap, dtype=np.int64)
        self._closure_size = np.concatenate([self._closure_size, pad])
        self._closure_edges = np.concatenate([self._closure_edges, pad])

    def put(
        self,
        peer: int,
        flooding: Iterable[int],
        known: Iterable[int],
        closure_size: int,
        closure_edges: int,
    ) -> None:
        """Store (or overwrite) a peer's optimization state."""
        row = self._row.get(peer)
        if row is None:
            row = self._nrows
            self._nrows += 1
            self._grow_scalars(self._nrows)
            self._row[peer] = row
        self._closure_size[row] = closure_size
        self._closure_edges[row] = closure_edges
        self._pending[peer] = (
            tuple(sorted(flooding)),
            tuple(sorted(known)),
        )
        self._maybe_repack()

    def drop(self, peer: int) -> bool:
        """Forget a peer's state.  Returns ``True`` if it was present."""
        if peer not in self._row:
            return False
        del self._row[peer]
        self._pending.pop(peer, None)
        self._maybe_repack()
        return True

    # ------------------------------------------------------------------

    def flooding_of(self, peer: int) -> FrozenSet[int]:
        """The stored multicast-tree (flooding) neighbor set."""
        return self._membership(peer, self._f_indptr, self._f_data)

    def known_of(self, peer: int) -> FrozenSet[int]:
        """The neighbor set known when the state was stored."""
        return self._membership(peer, self._k_indptr, self._k_data)

    def closure_size_of(self, peer: int) -> int:
        """Member count of the closure the state was computed from."""
        return int(self._closure_size[self._row[peer]])

    def closure_edges_of(self, peer: int) -> int:
        """Edge count of the closure the state was computed from."""
        return int(self._closure_edges[self._row[peer]])

    def _membership(
        self, peer: int, indptr: np.ndarray, data: np.ndarray
    ) -> FrozenSet[int]:
        pend = self._pending.get(peer)
        if pend is not None:
            values = pend[0] if indptr is self._f_indptr else pend[1]
            return frozenset(values)
        row = self._row[peer]
        s = int(indptr[row])
        e = int(indptr[row + 1])
        return frozenset(data[s:e].tolist())

    def rows(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every stored row in one read, without repacking.

        Returns ``(peer, f_indptr, f_data, k_indptr, k_data)``: row ``i``
        holds the state of ``peer[i]``, its flooding set at
        ``f_data[f_indptr[i]:f_indptr[i + 1]]`` and its known set likewise
        under ``k_*``, each ascending.  Packed rows come first, pending rows
        after them; dropped rows are left out.
        """
        pending = self._pending
        n = len(self._row)
        peer = np.fromiter(self._row, count=n, dtype=np.int64)
        row = np.fromiter(self._row.values(), count=n, dtype=np.int64)
        pend_peer = np.fromiter(pending, count=len(pending), dtype=np.int64)
        # A row that is not pending was written before the last pack.
        packed = ~np.isin(peer, pend_peer)
        row = row[packed]
        peer = np.concatenate([peer[packed], pend_peer])
        f_indptr, f_data = _merge_rows(
            self._f_indptr, self._f_data, row, [f for f, _ in pending.values()]
        )
        k_indptr, k_data = _merge_rows(
            self._k_indptr, self._k_data, row, [k for _, k in pending.values()]
        )
        return peer, f_indptr, f_data, k_indptr, k_data

    # ------------------------------------------------------------------

    def _maybe_repack(self) -> None:
        holes = self._nrows - len(self._row)
        limit = self._repack_threshold
        if limit is None:
            limit = max(64, len(self._row) // 4)
        if len(self._pending) + holes > limit:
            self._repack()

    def _repack(self) -> None:
        """Fold the pending overlay into fresh packed snapshot arrays."""
        counters.array_state_syncs += 1
        peer, f_indptr, f_data, k_indptr, k_data = self.rows()
        by_peer = np.argsort(peer)
        order = peer[by_peer].tolist()
        old_row = np.fromiter(
            map(self._row.__getitem__, order), count=len(order), dtype=np.int64
        )
        self._closure_size = self._closure_size[old_row]
        self._closure_edges = self._closure_edges[old_row]
        self._f_indptr, self._f_data = _merge_rows(f_indptr, f_data, by_peer, [])
        self._k_indptr, self._k_data = _merge_rows(k_indptr, k_data, by_peer, [])
        self._row = {p: i for i, p in enumerate(order)}
        self._nrows = len(order)
        self._pending = {}


def _merge_rows(
    indptr: np.ndarray,
    data: np.ndarray,
    rows: np.ndarray,
    pending: List[Tuple[int, ...]],
) -> Tuple[np.ndarray, np.ndarray]:
    """CSR of the packed *rows* of ``(indptr, data)``, then the *pending* ones."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    ends = np.cumsum(lengths)
    flat = np.repeat(starts - (ends - lengths), lengths) + np.arange(
        int(lengths.sum()), dtype=np.int64
    )
    lengths = np.concatenate(
        [
            lengths,
            np.fromiter(map(len, pending), count=len(pending), dtype=np.int64),
        ]
    )
    merged = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=merged[1:])
    tail = np.fromiter(chain.from_iterable(pending), dtype=np.int64)
    return merged, np.concatenate([data[flat], tail])
