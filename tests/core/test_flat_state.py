"""ACE's flat routing state against a plain dict, across compactions.

``ArrayOverlay`` keeps each peer's Phase 2 as one label per directed CSR
entry plus one tree-broken bit per slot, and compacts its buffers and
tombstones away whenever edits outgrow ``compact_threshold``.  Whatever the
interleaving of label writes (``put``: Phase 2 at one peer) and of the
mutations that drop labels (``drop``: a departure, ``cut``: a disconnect),
and wherever the compactions fall, every peer's labels must read like a
dict of the last write per link, less what a mutation took away.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ace import AceProtocol
from repro.core.batch_ace import store_closures
from repro.topology.generators import barabasi_albert
from repro.topology.overlay import small_world_overlay
from repro.topology.soa import FLOODING, NON_FLOODING, UNLABELLED, ArrayOverlay
from tests.reference import twin

_PEER = st.integers(0, 11)
_OP = st.one_of(
    st.tuples(st.just("put"), _PEER, st.just(0)),
    st.tuples(st.just("drop"), _PEER, st.just(0)),
    st.tuples(st.sampled_from(["cut", "link"]), _PEER, _PEER),
)


def assert_matches_model(overlay, labels, broken):
    assert sorted(overlay.peers()) == sorted(labels)
    for peer, row in labels.items():
        want = {v: row.get(v, UNLABELLED) for v in overlay.neighbors(peer)}
        assert overlay.link_labels(peer) == (want, broken[peer]), peer


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 1_000),
    threshold=st.sampled_from([0, 2, 5]),
    ops=st.lists(_OP, max_size=40),
)
def test_put_drop_sequences_match_a_dict_model(seed, threshold, ops):
    rng = np.random.default_rng(seed)
    physical = barabasi_albert(40, m=2, rng=rng)
    overlay = twin(
        ArrayOverlay,
        small_world_overlay(physical, 12, avg_degree=4, rng=rng),
        compact_threshold=threshold,
    )
    overlay.flush_edits()
    protocol = AceProtocol(overlay, rng=rng)
    labels = {p: {} for p in overlay.peers()}
    broken = {p: False for p in overlay.peers()}

    def cut(peer, other):
        # The store's own rule, restated: losing a link drops its label,
        # and losing a flooding link breaks the tree.
        if labels[peer].pop(other, None) == FLOODING:
            broken[peer] = True

    for op, a, b in ops:
        if op == "put" and a in labels:
            store_closures(protocol, [a])
            written, _ = overlay.link_labels(a)
            assert set(written) == set(overlay.neighbors(a))
            assert set(written.values()) <= {FLOODING, NON_FLOODING}
            assert not written or FLOODING in written.values()
            labels[a], broken[a] = dict(written), False
        elif op == "drop" and a in labels and len(labels) > 2:
            for other in overlay.neighbors(a):
                cut(other, a)
            overlay.remove_peer(a)
            del labels[a], broken[a]
        elif op == "cut" and a in labels and b in labels:
            if overlay.disconnect(a, b):
                cut(a, b)
                cut(b, a)
        elif op == "link" and a in labels and b in labels and a != b:
            overlay.connect(a, b)  # a new link starts unlabelled
        assert_matches_model(overlay, labels, broken)
