"""The exact oracle's partial rows (the probe memo) vs. the object engine.

:meth:`ArrayOverlay.warm_edge_costs` hands the oracle, with its missing
host pairs, the hosts within three logical hops of the pending peers on
each end, and :meth:`ArrayOverlay.costs_from` hands it the same for its
peer; :meth:`ExactOracle.delay_pairs` and a single-source query that has to
solve keep their delays out of every row they solve, and a single-source
query reads them after the host-pair store and before a solve.  The
partial rows may change how many sources are solved and never which float
a lookup returns.  Link delays sit on the 2**-10 grid, so ``dist[u][v]``
and ``dist[v][u]`` are one float; every case below still compares bits.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.sanitize as sanitize
from repro.oracle.exact import ExactOracle
from repro.oracle.landmark import LandmarkOracle
from repro.perf import counters
from repro.topology.physical import PhysicalTopology
from repro.topology.soa import ArrayOverlay
from tests.reference.overlay import Overlay

#: Hosts 0-1-2-3-4-5 in a line, every link delay on the grid.
LINE_DELAYS = [0.25, 0.5, 0.75, 1.0, 1.25]
FROM_1_TO_3 = 0.5 + 0.75
FROM_0_TO_3 = 0.25 + 0.5 + 0.75


def line(cache_size=2):
    return PhysicalTopology(
        6, [(i, i + 1) for i in range(5)], LINE_DELAYS,
        cache_size=cache_size,
    )


def pair(physical, hosts, edges):
    """The same peers and links on both engines, each over its own exact
    oracle.

    *edges* land in the array engine's packed CSR; links made afterwards
    sit in its edit buffer and cuts leave tombstones, so the named cases
    below read pools across all three.
    """
    obj, arr = (
        cls(physical, hosts, oracle=ExactOracle(physical))
        for cls in (Overlay, ArrayOverlay)
    )
    for u, v in edges:
        obj.connect(u, v)
        arr.connect(u, v)
    arr.flush_edits()
    return obj, arr


def solved_by(call):
    before = counters.copy()
    result = call()
    return result, counters.delta(before)["dijkstra_sources"]


def bits(costs):
    return {t: c.hex() for t, c in costs.items()}


ONE_PER_HOST = {p: p for p in range(6)}

#: Links 1-2, 2-3, 1-4.  The greedy cover of their host pairs is {1, 2};
#: host 1's pool (three hops from peer 1) and host 2's are both {1, 2, 3, 4}.
HUB = [(1, 2), (2, 3), (1, 4)]


class TestNamedCases:
    def test_the_fill_solves_from_a_cover_of_the_missing_pairs(self):
        obj, arr = pair(line(), ONE_PER_HOST, [(1, 0), (1, 2), (1, 3)])
        # Both fills ask the oracle, which solves from the cover {1} and
        # keeps host 1's pool.
        assert solved_by(obj.warm_edge_costs) == (3, 1)
        assert solved_by(arr.warm_edge_costs) == (3, 1)
        assert sorted(obj.oracle._partial) == sorted(arr.oracle._partial) == [1]
        for u, v in obj.edges():
            assert arr.cost(u, v).hex() == obj.cost(u, v).hex()

    def test_probe_inside_the_pool_is_served_without_a_solve(self):
        obj, arr = pair(line(), ONE_PER_HOST, HUB)
        arr.warm_edge_costs()
        got, solved = solved_by(lambda: arr.costs_from(1, [3]))
        assert solved == 0
        assert bits(got) == bits(obj.costs_from(1, [3])) == {3: FROM_1_TO_3.hex()}

    def test_probe_is_served_from_the_far_ends_row(self):
        obj, arr = pair(line(), ONE_PER_HOST, HUB)
        arr.warm_edge_costs()
        assert 3 not in arr.oracle._partial and 4 not in arr.oracle._partial
        got, solved = solved_by(lambda: arr.costs_from(3, [1]))
        also, solved_also = solved_by(lambda: arr.costs_from(4, [2]))
        assert (solved, solved_also) == (0, 0)
        assert bits({**got, **also}) == bits({**obj.costs_from(3, [1]), **obj.costs_from(4, [2])})

    def test_probe_outside_the_pool_faults_one_vector(self):
        obj, arr = pair(line(), ONE_PER_HOST, HUB)
        arr.warm_edge_costs()
        got, solved = solved_by(lambda: arr.costs_from(3, [4]))
        # Host 2 is in 4's reach through host 2's row, host 3 is not: the
        # whole read faults once.
        mixed, solved_mixed = solved_by(lambda: arr.costs_from(4, [2, 0]))
        assert (solved, solved_mixed) == (1, 1)
        assert bits(got) == bits(obj.costs_from(3, [4]))
        assert bits(mixed) == bits(obj.costs_from(4, [2, 0]))

    def test_either_end_of_a_pair_reads_one_float(self):
        obj, arr = pair(line(), ONE_PER_HOST, HUB)
        arr.warm_edge_costs()
        # White-box: hosts 1 and 2 are both sources, each row holds the other.
        read = arr.oracle._read_partial
        one_to_two = read(1, [2]).item(0)
        two_to_one = read(2, [1]).item(0)
        assert one_to_two.hex() == two_to_one.hex() == obj.cost(1, 2).hex()
        assert read(1, [4]).item(0) == read(4, [1]).item(0)

    def test_a_resident_lru_row_is_not_read(self):
        physical = line(cache_size=4)
        obj, arr = pair(physical, ONE_PER_HOST, HUB)
        arr.warm_edge_costs()
        physical.delays_from(4)  # the far end of the probe is resident
        got, solved = solved_by(lambda: arr.costs_from(3, [4]))
        assert solved == 1
        assert bits(got) == bits(obj.costs_from(3, [4]))
        assert physical.cached_sources() == [4]

    def test_a_probe_solve_keeps_its_peers_pool_not_the_row(self):
        physical = line(cache_size=4)
        obj, arr = pair(physical, ONE_PER_HOST, HUB)
        arr.warm_edge_costs()
        arr.costs_from(3, [4])  # no row holds host 3 or host 4
        obj.costs_from(3, [4])
        assert physical.cached_sources() == []
        for overlay in (obj, arr):
            kept, values = overlay.oracle._partial[3]
            assert kept.tolist() == [1, 2, 3, 4]  # three hops from peer 3
            assert values.tolist() == [FROM_1_TO_3, 0.75, 0.0, 1.0]
        # Peer 4 probing host 3 now reads host 3's row from the far end.
        got, solved = solved_by(lambda: arr.costs_from(4, [3]))
        assert solved == 0
        assert bits(got) == bits(obj.costs_from(4, [3]))

    def test_a_probe_from_an_isolated_peer_keeps_no_row(self):
        obj, arr = pair(line(), ONE_PER_HOST, HUB)
        for overlay in (obj, arr):
            overlay.warm_edge_costs()
            # Peer 0 has no link: its pool is empty, so host 0 gets no row,
            # and the next read from host 0 solves again instead of meeting
            # an empty pool.
            assert solved_by(lambda: overlay.costs_from(0, [3]))[1] == 1
            assert 0 not in overlay.oracle._partial
            assert solved_by(lambda: overlay.costs_from(0, [4]))[1] == 1
        assert bits(arr.costs_from(0, [3, 4])) == bits(obj.costs_from(0, [3, 4]))

    def test_restreamed_source_replaces_its_pool(self):
        obj, arr = pair(line(), ONE_PER_HOST, HUB)
        for overlay in (obj, arr):
            overlay.warm_edge_costs()
            overlay.disconnect(2, 3)
            overlay.connect(1, 0)
            overlay.connect(1, 5)
            overlay.warm_edge_costs()
            assert overlay.oracle._partial[1][0].tolist() == [0, 1, 2, 4, 5]
        # Host 3 left host 1's pool with the cut link (the first pool held
        # it), and host 3 was never a source: the read faults.
        got, solved = solved_by(lambda: arr.costs_from(1, [3]))
        assert solved == 1
        assert bits(got) == bits(obj.costs_from(1, [3]))

    def test_a_departed_peer_stays_in_the_pools_until_it_rejoins(self):
        obj, arr = pair(line(), ONE_PER_HOST, [(1, 2), (1, 4)])
        for overlay in (obj, arr):
            overlay.warm_edge_costs()
            overlay.remove_peer(4)
            overlay.connect(2, 3)
            overlay.warm_edge_costs()
            # Peer 4 left peer 1, one hop from peer 2: host 2's pool, kept
            # for the new link 2-3, names host 4 though no link reaches it.
            assert overlay.oracle._partial[2][0].tolist() == [1, 2, 3, 4]
        for overlay in (obj, arr):
            # Back at its cached address, peer 4 links to peer 1 again (the
            # pair is known: no fill), and peer 2's probe of it is answered
            # by host 2's row.
            overlay.add_peer(4, 4)
            overlay.connect(4, 1)
            assert solved_by(lambda: overlay.costs_from(2, [4]))[1] == 0
        assert bits(arr.costs_from(2, [4])) == bits(obj.costs_from(2, [4]))
        # Rejoined, peer 4 counts only by its links.
        for overlay in (obj, arr):
            overlay.disconnect(4, 1)
        assert obj._probe_pools([2])[2].tolist() == [1, 2, 3]
        assert arr._probe_pools(np.array([arr._index[2]]))[2].tolist() == [1, 2, 3]

    def test_peers_on_one_host_pool_their_neighborhoods(self):
        hosts = {0: 0, 1: 1, 6: 0, 7: 4, 8: 5}
        obj, arr = pair(line(), hosts, [(0, 1), (6, 7), (7, 8)])
        arr.warm_edge_costs()
        got, solved = solved_by(lambda: arr.costs_from(0, [8]))
        assert solved == 0  # two hops from peer 6, which shares host 0
        assert bits(got) == bits(obj.costs_from(0, [8]))

    def test_cost_miss_does_not_depend_on_lru_residency(self):
        physical = line(cache_size=1)
        first = ArrayOverlay(physical, ONE_PER_HOST).cost(0, 3)
        physical.delays_from(3)  # evicts host 0: only the far end is resident
        # A fresh overlay has a fresh oracle, so this misses its store again.
        second = ArrayOverlay(physical, ONE_PER_HOST).cost(0, 3)
        assert first.hex() == second.hex() == FROM_0_TO_3.hex()

    def test_copy_shares_the_memo_and_a_new_oracle_drops_it(self):
        physical = line()
        _, arr = pair(physical, ONE_PER_HOST, HUB)
        arr.warm_edge_costs()
        clone = arr.copy()
        arr.use_oracle(ExactOracle(physical))
        assert solved_by(lambda: clone.costs_from(1, [3]))[1] == 0
        assert solved_by(lambda: arr.costs_from(1, [3]))[1] == 1

    def test_pairwise_cheap_oracle_never_fills_the_memo(self):
        # An embedding answers pairs directly: it reads no row, so it never
        # asks the overlay which hosts to keep.
        physical = line()
        _, arr = pair(physical, ONE_PER_HOST, [(0, 1), (1, 2)])
        arr.use_oracle(
            LandmarkOracle(physical, n_landmarks=2, rng=np.random.default_rng(0))
        )
        asked = []
        pools = arr._probe_pools
        arr._probe_pools = lambda slots: asked.append(slots) or pools(slots)
        assert arr.warm_edge_costs() == 2
        assert asked == []
        assert not hasattr(arr.oracle, "_partial")


#: Reads and warms outnumber the rest; a new oracle empties every cache, so
#: it is the rare one.
OPS = (
    ("costs_from",) * 6 + ("warm", "cost", "connect") * 3
    + ("disconnect", "join", "join_shared_host", "rejoin_elsewhere") * 2
    + ("leave", "copy", "use_oracle")
)


def drive(seed, compact, ops):
    """Apply *ops* to both engines, each over its own exact oracle on one
    underlay (so each fills its own store), comparing bits."""
    rng = np.random.default_rng(seed)
    # A ring of 12 hosts with two chords: ~10 peers revisit the same host
    # pairs from both ends.  The LRU holds three vectors, which the oracle
    # never reads.
    nodes = 12
    links = [(i, (i + 1) % nodes) for i in range(nodes)] + [(0, 5), (3, 9)]
    physical = PhysicalTopology(
        nodes, links, rng.uniform(0.1, 1.0, size=len(links)), cache_size=3
    )
    fresh = PhysicalTopology(
        nodes, [(u, v) for u, v, _ in physical.edges()],
        [d for *_, d in physical.edges()],
    )  # never series-reduced

    def rows_match_fresh(oracle):
        # Every partial row, kept by a fill or by a probe's solve, holds a
        # fresh full-graph solve's floats, and reads them from either end.
        for h, (kept, values) in oracle._partial.items():
            want = fresh.delays_from(h)[kept]
            assert values.tobytes() == want.tobytes()
            for t, d in zip(kept.tolist(), want.tolist()):
                assert oracle._read_partial(h, [t]).item(0).hex() == d.hex()
                assert oracle._read_partial(t, [h]).item(0).hex() == d.hex()

    hosts = {p: int(h) for p, h in enumerate(rng.integers(0, nodes, size=10))}
    obj = Overlay(physical, hosts, oracle=ExactOracle(physical))
    arr = ArrayOverlay(
        physical, hosts, oracle=ExactOracle(physical), compact_threshold=compact
    )
    next_id = len(hosts)

    def both(call):
        return call(obj), call(arr)

    for p, q in enumerate(rng.integers(0, np.arange(1, len(hosts))), start=1):
        both(lambda o: o.connect(p, int(q)))

    for op, a, b, picks in ops:
        peers = obj.peers()
        p, q = peers[a % len(peers)], peers[b % len(peers)]
        if op in ("join", "join_shared_host"):
            host = obj.host_of(q) if op == "join_shared_host" else b % nodes
            both(lambda o: (o.add_peer(next_id, host), o.connect(next_id, p)))
            next_id += 1
        elif op == "leave" and len(peers) > 3:
            both(lambda o: o.remove_peer(p))
        elif op == "rejoin_elsewhere" and p != q:
            both(
                lambda o: (
                    o.remove_peer(p), o.add_peer(p, b % nodes), o.connect(p, q)
                )
            )
        elif op == "connect" and p != q:
            assert len(set(both(lambda o: o.connect(p, q)))) == 1
        elif op == "disconnect" and p != q:
            assert len(set(both(lambda o: o.disconnect(p, q)))) == 1
        elif op == "warm":
            assert len(set(both(lambda o: o.warm_edge_costs()))) == 1
        elif op == "costs_from":
            targets = [peers[i % len(peers)] for i in picks]
            want, got = both(lambda o: o.costs_from(p, targets))
            assert bits(got) == bits(want)
        elif op == "cost":
            # Each oracle reads whichever end of the pair it holds; both
            # ends hold one float.
            want, got = both(lambda o: o.cost(p, q))
            assert got.hex() == want.hex()
        elif op == "copy":
            obj, arr = obj.copy(), arr.copy()
        elif op == "use_oracle":
            both(lambda o: o.use_oracle(ExactOracle(physical)))
        assert arr.epoch == obj.epoch
        rows_match_fresh(obj.oracle)
        rows_match_fresh(arr.oracle)

    both(lambda o: o.warm_edge_costs())
    for u, v in obj.edges():
        assert arr.cost(u, v).hex() == obj.cost(u, v).hex()
    assert sanitize.violations() == []


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    compact=st.sampled_from([2, 9, None]),
    ops=st.lists(
        st.tuples(
            st.sampled_from(OPS),
            st.integers(0, 10_000),
            st.integers(0, 10_000),
            st.lists(st.integers(0, 10_000), min_size=1, max_size=5),
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_random_interleavings_equal_the_object_engine(seed, compact, ops):
    drive(seed, compact, ops)


def test_random_interleavings_hold_under_the_sanitizer():
    """The same property with every memo-served cost rechecked."""
    if sanitize.installed():
        return  # this is the child
    root = Path(__file__).resolve().parents[2]
    child = (
        "import sys, pytest, repro.sanitize as sanitize\n"
        "assert sanitize.maybe_install()\n"
        f"sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', {__file__!r}]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"), REPRO_SANITIZE="1")
    proc = subprocess.run(
        [sys.executable, "-c", child],
        capture_output=True, text=True, env=env, cwd=root,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
