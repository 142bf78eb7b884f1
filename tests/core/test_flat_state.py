"""FlatAceStore against a plain dict, across repacks.

The store keeps rows packed in CSR snapshots plus a pending overlay and
re-packs (one gather per CSR pair, rows in sorted-peer order) whenever
pending rows plus holes outgrow ``repack_threshold``.  Whatever the
interleaving of ``put`` / ``drop`` and wherever the repacks fall, every
reader must answer like a dict of the last value written per peer.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flat_state import FlatAceStore
from repro.perf import counters

_PEER = st.integers(0, 11)
_SET = st.frozensets(st.integers(0, 40), max_size=5)
_OP = st.one_of(
    st.tuples(st.just("put"), _PEER, _SET, _SET, st.integers(0, 99)),
    st.tuples(st.just("drop"), _PEER),
)


def assert_matches_model(store, model):
    assert len(store) == len(model)
    for peer in range(12):
        assert (peer in store) == (peer in model)
    for peer, (flooding, known, size, edges) in model.items():
        assert store.flooding_of(peer) == flooding
        assert store.known_of(peer) == known
        assert store.closure_size_of(peer) == size
        assert store.closure_edges_of(peer) == edges
    peers, f_indptr, f_data, k_indptr, k_data = store.rows()
    assert sorted(peers.tolist()) == sorted(model)
    for i, peer in enumerate(peers.tolist()):
        flooding, known, _, _ = model[peer]
        assert f_data[f_indptr[i] : f_indptr[i + 1]].tolist() == sorted(flooding)
        assert k_data[k_indptr[i] : k_indptr[i + 1]].tolist() == sorted(known)


@settings(max_examples=150, deadline=None)
@given(threshold=st.sampled_from([0, 2, 5]), ops=st.lists(_OP, max_size=40))
def test_put_drop_sequences_match_a_dict_model(threshold, ops):
    store = FlatAceStore(repack_threshold=threshold)
    model = {}
    for op, peer, *state in ops:
        # The store's own rule, restated: it repacks when pending rows plus
        # the holes left by drops exceed the threshold.
        syncs = counters.array_state_syncs
        rows_before, pending_before = store.packed_rows, store.pending_rows
        if op == "put":
            flooding, known, size = state
            store.put(peer, flooding, known, size, len(known))
            model[peer] = (flooding, known, size, len(known))
        else:
            assert store.drop(peer) == (peer in model)
            model.pop(peer, None)
        repacked = counters.array_state_syncs - syncs
        assert repacked in (0, 1)
        if repacked:
            # Packed rows are exactly the live peers, in sorted-peer order.
            assert store.pending_rows == 0
            assert store.packed_rows == len(model)
            assert list(store._row) == sorted(model)
            assert store.rows()[0].tolist() == sorted(model)
        else:
            assert store.packed_rows == rows_before
            assert store.pending_rows <= pending_before + 1
        assert_matches_model(store, model)


def test_repack_keeps_dtype_and_empty_store_works():
    store = FlatAceStore(repack_threshold=0)
    store.put(3, {1, 2}, {1, 2, 4}, 5, 6)  # repacks at once
    store.drop(3)  # repacks to an empty store
    assert (len(store), store.packed_rows, store.pending_rows) == (0, 0, 0)
    for array in store.rows():
        assert array.dtype == np.int64
    store.put(7, (), {9}, 2, 1)
    assert store.known_of(7) == {9} and store.flooding_of(7) == frozenset()
    assert store.closure_size_of(7) == 2 and store.closure_edges_of(7) == 1
