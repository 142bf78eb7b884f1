"""The live turn's sans-IO contract: a snapshot in, a plan or a probe set out.

:func:`repro.net.snapshot.plan_turn` decides one ACE turn against a
:class:`~repro.net.snapshot.SnapshotView` of gathered answers — remote cost
tables and this peer's probes — without a socket or an event loop.  When
Phase 3 reads a cost to a peer the snapshot has not probed, it raises
:class:`~repro.net.snapshot.NeedProbes` naming every unprobed peer of that
read; given those probes it re-runs from the same token and returns the
turn, its mutation log and the advanced RNG state.  Each must equal what
the reference phases (``tests.reference``: dict-of-dicts closure, member
cost tables, heap Prim) plus ``repro.core.turn.phase3`` give on an object
:class:`Overlay` with the same costs.
"""

import asyncio
import inspect
import json
import socket

import numpy as np
import pytest

from repro.core.ace import AceConfig
from repro.core.policies import make_policy
from repro.core.turn import Turn, phase3, shed_floor_of
from repro.net.snapshot import (
    NeedProbes,
    SnapshotView,
    plan_turn,
    restore_rng,
    serialize_rng,
)
from repro.net.wire import WireError
from repro.topology.overlay import small_world_overlay
from repro.topology.physical import PhysicalTopology
from tests.reference import object_twin
from tests.reference.closure import neighbor_closure
from tests.reference.cost_table import run_phase1
from tests.reference.spanning_tree import prim_mst_heap

TOKEN = serialize_rng(np.random.default_rng(11))

CONFIGS = [
    pytest.param(AceConfig(), id="default"),
    pytest.param(AceConfig(depth=2), id="depth2"),
    pytest.param(AceConfig(policy="closest"), id="closest"),
]


def world():
    """A 16-peer small-world overlay on integer link delays.

    Integer delays make every path sum exact, so a cost reads the same in
    either direction and from any copy of the world.
    """
    rng = np.random.default_rng(5)
    n = 40
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(int(a), int(b)) for a, b in rng.integers(0, n, (30, 2)) if a != b]
    delays = rng.integers(1, 20, len(edges)).tolist()
    physical = PhysicalTopology(n, edges, delays)
    return object_twin(small_world_overlay(physical, 16, avg_degree=4.0, rng=rng))


class Recording:
    """An overlay that logs one peer's mutations and the peers it probes."""

    def __init__(self, overlay, me):
        self._overlay = overlay
        self._me = me
        self.log = []
        self.probed = set()

    def __getattr__(self, name):
        return getattr(self._overlay, name)

    def costs_from(self, u, targets):
        targets = list(targets)
        if u == self._me:
            self.probed.update(targets)
        return self._overlay.costs_from(u, targets)

    def cost(self, u, v):
        return self.costs_from(u, [v])[v]

    def connect(self, u, v):
        made = self._overlay.connect(u, v)
        if made:
            self.log.append(("connect", v if u == self._me else u))
        return made

    def disconnect(self, u, v):
        cut = self._overlay.disconnect(u, v)
        if cut:
            self.log.append(("disconnect", v if u == self._me else u))
        return cut


def reference(me, config, shed_floor):
    """The reference Phases 1-2 and ``core.turn``'s Phase 3 at *me*."""
    view = Recording(world(), me)
    closure = neighbor_closure(view, me, config.depth)
    flooding = frozenset(prim_mst_heap(closure.edges, me).tree_neighbors(me))
    known = frozenset(view.neighbors(me))
    rng = restore_rng(TOKEN)
    charged = run_phase1(view, closure)
    sheds, actions = phase3(
        view, me, sorted(known - flooding), config, shed_floor,
        make_policy(config.policy), rng,
    )
    turn = Turn(charged.probe_cost, charged.exchange_cost, sheds, actions)
    return turn, view.log, serialize_rng(rng), view.probed, flooding


def snapshot(me, depth):
    """What a live peer's gather rounds return: closure tables, neighbor probes."""
    overlay = world()
    members = neighbor_closure(overlay, me, depth).members
    tables = {
        p: overlay.costs_from(p, sorted(overlay.neighbors(p)))
        for p in members if p != me
    }
    mine = frozenset(overlay.neighbors(me))
    return mine, tables, overlay.costs_from(me, sorted(mine))


@pytest.fixture
def no_io(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the sans-IO turn did I/O")

    monkeypatch.setattr(socket, "socket", refuse)
    monkeypatch.setattr(asyncio.BaseEventLoop, "create_connection", refuse)
    monkeypatch.setattr(asyncio.BaseEventLoop, "create_server", refuse)
    monkeypatch.setattr(asyncio, "get_running_loop", refuse)


@pytest.mark.parametrize("config", CONFIGS)
def test_plan_equals_core_phases(config, no_io):
    """``plan_turn`` equals the reference at depth 1 and 2 and under ``closest``."""
    assert not inspect.iscoroutinefunction(plan_turn)
    costs = world()
    floor = shed_floor_of(costs)
    policy = make_policy(config.policy)
    misses_seen, mutated, advanced = [], 0, 0
    for me in costs.peers():
        turn, log, rng_state, ref_probed, flooding = reference(me, config, floor)
        mine, tables, probed = snapshot(me, config.depth)

        # Withholding any one candidate probe names exactly that peer.
        for missing in sorted(ref_probed - mine):
            partial = {p: costs.cost(me, p) for p in ref_probed - {missing}}
            with pytest.raises(NeedProbes) as need:
                plan_turn(SnapshotView(me, mine, tables, partial), config, floor, policy, TOKEN)
            assert need.value.peers == {missing}

        # From the neighbor probes alone, each miss names peers not yet
        # probed, and the misses end at exactly core's probe set.
        while True:
            try:
                plan = plan_turn(
                    SnapshotView(me, mine, tables, probed), config, floor, policy, TOKEN
                )
                break
            except NeedProbes as need:
                assert need.peers and not need.peers & probed.keys()
                misses_seen.append(need.peers)
                probed.update(costs.costs_from(me, sorted(need.peers)))
        assert set(probed) == ref_probed
        assert plan.turn == turn
        assert plan.log == log
        assert plan.rng_state == rng_state
        assert plan.flooding == flooding
        mutated += bool(log)
        advanced += rng_state != TOKEN
    # Not vacuous: turns missed probes and mutated.
    assert misses_seen and mutated
    if config.policy == "closest":
        # The closest policy draws nothing and asks for its whole candidate
        # pool in one read.
        assert max(len(m) for m in misses_seen) > 1
    else:
        assert advanced


def test_recompute_plans_routing_only(no_io):
    costs = world()
    config = AceConfig()
    for me in costs.peers():
        mine, tables, probed = snapshot(me, config.depth)
        plan = plan_turn(
            SnapshotView(me, mine, tables, probed), config, 2, make_policy("random"), None
        )
        assert plan.turn is None and plan.log == [] and plan.rng_state is None
        assert plan.flooding <= mine


def test_snapshot_mutations_match_a_refetch():
    tables = {1: {0: 3.0, 5: 1.0}, 2: {0: 4.0}, 5: {1: 1.0}}
    view = SnapshotView(0, {1, 2}, tables, {1: 3.0, 2: 4.0, 5: 2.0})
    assert view.connect(0, 5) and not view.connect(5, 0)
    assert view.disconnect(2, 0) and not view.disconnect(0, 2)
    assert view.neighbors(0) == {1, 5}
    assert view.costs_from(5, [0, 1]) == {0: 2.0, 1: 1.0}
    assert view.neighbors(2) == set()
    assert view.log == [("connect", 5), ("disconnect", 2)]
    with pytest.raises(ValueError):
        view.connect(1, 2)


def test_live_row_reads_tables_and_never_a_probe():
    # Row u reads u's table; this peer's row reads each neighbor's entry
    # for it.  No probe is asked for, and one that is held is not read.
    tables = {1: {4: 1.0, 6: 5.0}, 6: {1: 5.0, 4: 2.0}, 9: {4: 3.0}}
    for probed in ({}, {1: 7.0, 6: 7.0, 9: 7.0}):
        view = SnapshotView(4, {1, 6, 9}, tables, probed)
        assert view.live_row(4) == ([1, 6, 9], [1.0, 2.0, 3.0])
        assert view.live_row(6) == ([1, 4], [5.0, 2.0])


@pytest.mark.parametrize("name", ["seed", "default_rng"])
def test_restore_rng_refuses_a_token_naming_no_bit_generator(name, monkeypatch):
    # A recorder stands in for the named numpy function: refusing the
    # token must not call it (np.random.seed() would reseed the global
    # legacy stream).
    calls = []
    monkeypatch.setattr(np.random, name, lambda *args, **kwargs: calls.append(args))
    payload = json.loads(TOKEN)
    payload["bit_generator"] = name
    with pytest.raises(WireError, match=name):
        restore_rng(json.dumps(payload))
    assert calls == []
