"""The array engine's probe memo vs. the object engine, bit for bit.

Under an exact oracle :meth:`ArrayOverlay.warm_edge_costs` copies, out of
every vector it streams, the delays to the hosts within two logical hops of
the pending peers on that source host; ``costs_from`` / ``cost`` read that
directional memo after the unordered host-pair cache and before faulting a
vector.  The memo may change how many sources are solved and never which
float a lookup returns: ``dist[u][v]`` and ``dist[v][u]`` can differ in the
last ulp, so every case below compares bits, not values.
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
from repro.topology.overlay import Overlay
from repro.topology.physical import PhysicalTopology
from repro.topology.soa import ArrayOverlay

#: Hosts 0-1-2-3-4-5 in a line.  (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1, so
#: the delay between hosts 0 and 3 depends on which end the solve started.
FROM_0_TO_3 = (0.1 + 0.2) + 0.3
FROM_3_TO_0 = (0.3 + 0.2) + 0.1
assert FROM_0_TO_3 != FROM_3_TO_0


def line(cache_size=2):
    return PhysicalTopology(
        6, [(i, i + 1) for i in range(5)], [0.1, 0.2, 0.3, 0.4, 0.5],
        cache_size=cache_size,
    )


def pair(physical, hosts, edges):
    """The same peers and links on both engines, over one exact oracle.

    *edges* land in the array engine's packed CSR; links made afterwards
    sit in its edit buffer and cuts leave tombstones, so the named cases
    below read pools across all three.
    """
    obj = Overlay(physical, hosts, oracle=ExactOracle(physical))
    for u, v in edges:
        obj.connect(u, v)
    return obj, ArrayOverlay.from_overlay(obj)


def solved_by(call):
    before = counters.copy()
    result = call()
    return result, counters.delta(before)["dijkstra_sources"]


def bits(costs):
    return {t: c.hex() for t, c in costs.items()}


ONE_PER_HOST = {p: p for p in range(6)}


class TestNamedCases:
    def test_probe_inside_the_pool_is_served_without_a_solve(self):
        obj, arr = pair(line(), ONE_PER_HOST, [(0, 1), (1, 2)])
        assert arr.warm_edge_costs() == obj.warm_edge_costs() == 2
        got, solved = solved_by(lambda: arr.costs_from(0, [2]))
        assert solved == 0
        assert bits(got) == bits(obj.costs_from(0, [2])) == {2: (0.1 + 0.2).hex()}

    def test_probe_outside_the_pool_faults_one_vector(self):
        obj, arr = pair(line(), ONE_PER_HOST, [(0, 1), (1, 2)])
        arr.warm_edge_costs()
        got, solved = solved_by(lambda: arr.costs_from(0, [2, 3]))
        assert solved == 1  # host 3 is three hops out: the whole read faults
        assert bits(got) == bits(obj.costs_from(0, [2, 3]))
        assert got[3].hex() == FROM_0_TO_3.hex()

    def test_reversed_pair_in_the_host_pair_cache_wins_over_the_memo(self):
        obj, arr = pair(line(), ONE_PER_HOST, [])
        for overlay in (obj, arr):
            assert overlay.costs_from(3, [0])[0].hex() == FROM_3_TO_0.hex()
            overlay.connect(0, 1)
            overlay.connect(1, 3)
            overlay.warm_edge_costs()
        # White-box: the memo does hold the other direction's float.
        pool, values = arr._probe_memo[0]
        assert values[pool.tolist().index(3)].hex() == FROM_0_TO_3.hex()
        assert bits(arr.costs_from(0, [3])) == bits(obj.costs_from(0, [3]))
        assert arr.cost(0, 3).hex() == FROM_3_TO_0.hex()

    def test_restreamed_source_replaces_its_pool(self):
        obj, arr = pair(line(), ONE_PER_HOST, [(0, 1), (1, 2)])
        for overlay in (obj, arr):
            overlay.warm_edge_costs()
            overlay.disconnect(0, 1)
            overlay.connect(0, 4)
            overlay.connect(4, 5)
            overlay.warm_edge_costs()
        assert arr._probe_memo[0][0].tolist() == [0, 4, 5]
        near, solved_near = solved_by(lambda: arr.costs_from(0, [5]))
        far, solved_far = solved_by(lambda: arr.costs_from(0, [2]))
        # Host 2 left the pool with the old neighborhood.
        assert (solved_near, solved_far) == (0, 1)
        assert bits({**near, **far}) == bits(obj.costs_from(0, [5, 2]))

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
        # A fresh overlay has an empty host-pair cache, so this misses again.
        second = ArrayOverlay(physical, ONE_PER_HOST).cost(0, 3)
        assert first.hex() == second.hex() == FROM_0_TO_3.hex()

    def test_copy_shares_the_memo_and_a_new_oracle_drops_it(self):
        physical = line()
        _, arr = pair(physical, ONE_PER_HOST, [(0, 1), (1, 2)])
        arr.warm_edge_costs()
        clone = arr.copy()
        arr.use_oracle(ExactOracle(physical))
        assert solved_by(lambda: clone.costs_from(0, [2]))[1] == 0
        assert solved_by(lambda: arr.costs_from(0, [2]))[1] == 1

    def test_pairwise_cheap_oracle_never_fills_the_memo(self):
        physical = line()
        _, arr = pair(physical, ONE_PER_HOST, [(0, 1), (1, 2)])
        arr.use_oracle(
            LandmarkOracle(physical, n_landmarks=2, rng=np.random.default_rng(0))
        )
        assert arr.warm_edge_costs() == 2
        assert arr._probe_memo == {}


#: Reads and warms outnumber the rest; a new oracle empties every cache, so
#: it is the rare one.
OPS = (
    ("costs_from",) * 6 + ("warm", "cost", "connect") * 3
    + ("disconnect", "join", "join_shared_host", "rejoin_elsewhere") * 2
    + ("leave", "copy", "use_oracle")
)


def drive(seed, compact, ops):
    """Apply *ops* to both engines over one exact oracle, comparing bits."""
    rng = np.random.default_rng(seed)
    # A ring of 12 hosts with two chords: paths are long enough for the two
    # directions of a pair to round differently, and ~10 peers revisit the
    # same host pairs from both ends.  The LRU holds three vectors, so
    # sources are evicted all the time.
    nodes = 12
    links = [(i, (i + 1) % nodes) for i in range(nodes)] + [(0, 5), (3, 9)]
    physical = PhysicalTopology(
        nodes, links, rng.uniform(0.1, 1.0, size=len(links)), cache_size=3
    )
    oracle = ExactOracle(physical)
    hosts = {p: int(h) for p, h in enumerate(rng.integers(0, nodes, size=10))}
    obj = Overlay(physical, hosts, oracle=oracle)
    arr = ArrayOverlay(physical, hosts, oracle=oracle, compact_threshold=compact)
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
            # Overlay.cost() asks the exact engine's scalar delay(), which
            # reads whichever endpoint is resident; with p's vector resident
            # that is the p-rooted float the array engine always returns.
            oracle.delays_from(obj.host_of(p))
            want, got = both(lambda o: o.cost(p, q))
            assert got.hex() == want.hex()
        elif op == "copy":
            obj, arr = obj.copy(), arr.copy()
        elif op == "use_oracle":
            oracle = ExactOracle(physical)
            both(lambda o: o.use_oracle(oracle))
        assert arr.epoch == obj.epoch

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
