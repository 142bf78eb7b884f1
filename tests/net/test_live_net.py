"""Sim-vs-live convergence and degradation tests for the network runtime.

The headline guarantee: a seeded scenario run through the live asyncio
runtime under the lockstep discipline produces *the same* results as the
discrete-event simulator — the ACE-optimized adjacency, every step
report's overhead floats, and every query's traffic cost, message counts,
duplicates, scope and logical response time, all compared with ``==``.

Degradation: killing a peer mid-run must not hang or crash the fleet —
the run completes with the victim marked dead, retries counted, and
queries still returning hits.
"""

import asyncio

import pytest

from repro.core.ace import AceConfig, AceProtocol
from repro.experiments.setup import ScenarioConfig, build_scenario
from repro.net.launch import (
    compare_runs,
    plan_queries,
    run_live,
    run_sim_reference,
)
from repro.net.peer import LivePeer
from repro.net.runtime import DeliveryCoordinator, NetConfig, TrafficLedger
from repro.net.seed import SeedNode
from repro.net.wire import Envelope, Shutdown, Welcome, WireError, encode_frame
from repro.perf import counters
from repro.sim.messages import ConnectRequest, CostProbe, DisconnectNotice
from repro.sim.node import Servent
from repro.topology.physical import PhysicalTopology
from repro.topology.soa import FLOODING, ArrayOverlay

CONFIG = ScenarioConfig(physical_nodes=64, peers=8, avg_degree=4.0, seed=7)
ACE = AceConfig()
STEPS = 2
QUERIES = 6


@pytest.fixture(scope="module")
def plan():
    return plan_queries(build_scenario(CONFIG), QUERIES)


@pytest.fixture(scope="module")
def reference(plan):
    return run_sim_reference(build_scenario(CONFIG), ACE, STEPS, plan)


#: The live turn under the default and non-default configs (each ``==`` the
#: simulator; one knob moved per case).
TURN_CONFIGS = [
    pytest.param(ACE, id="default"),
    pytest.param(AceConfig(depth=2), id="depth2"),
    pytest.param(AceConfig(allow_keep_both=False), id="swap-only"),
    pytest.param(AceConfig(shed_redundant=False), id="no-shed"),
    pytest.param(AceConfig(policy="closest"), id="closest"),
]


class TestLockstepConvergence:
    @pytest.mark.parametrize("ace", TURN_CONFIGS)
    def test_live_run_equals_simulation(self, plan, ace):
        reference = run_sim_reference(build_scenario(CONFIG), ace, STEPS, plan)
        live = run_live(
            build_scenario(CONFIG), ace, steps=STEPS, plan=plan,
            net=NetConfig(),
        )
        problems = compare_runs(live, reference)
        assert problems == []
        assert live.turn_errors == []
        assert live.clean_shutdown
        assert live.dead == []
        assert live.total_hits > 0
        # Real traffic crossed real sockets.
        assert live.bytes_sent > 0
        assert live.messages_sent > 0
        assert live.connections > 0

    def test_step_overheads_are_nonzero(self, reference):
        # Guards the comparison against vacuous equality: the protocol
        # must actually have probed and exchanged tables.
        assert all(r.total_overhead > 0 for r in reference.step_reports)
        assert any(q["responders"] for q in reference.queries)

    def test_net_counters_accumulate(self, plan):
        before = counters.copy()
        live = run_live(
            build_scenario(CONFIG), ACE, steps=1, plan=plan[:2],
            net=NetConfig(),
        )
        delta = counters.delta(before)
        # The result snapshots its totals before the orderly-shutdown
        # frames go out, so the process-wide delta is at least as large.
        assert delta["net_connections"] >= live.connections > 0
        assert delta["net_messages_sent"] >= live.messages_sent > 0
        assert delta["net_bytes_sent"] >= live.bytes_sent > 0

    def test_naive_policy_is_rejected_before_any_socket_opens(
        self, plan, monkeypatch
    ):
        # NaivePolicy probes candidates from the whole roster; the wire
        # protocol only carries neighbor tables, so the run is refused at
        # seed construction instead of failing turns mid-step.
        def no_sockets(*_args, **_kwargs):
            raise AssertionError("a socket was opened")

        # What the runtime calls to listen and to dial (patching
        # ``socket.socket`` would also break the event loop's self-pipe).
        monkeypatch.setattr(asyncio.BaseEventLoop, "create_server", no_sockets)
        monkeypatch.setattr(asyncio.BaseEventLoop, "create_connection", no_sockets)
        with pytest.raises(ValueError, match="naive"):
            run_live(
                build_scenario(CONFIG), AceConfig(policy="naive"),
                steps=1, plan=plan, net=NetConfig(),
            )


#: Lockstep convergence beyond the one seed above.  Link delays sit on a
#: 2**-10 grid, so the simulator's cost cache and the live cost rows hold
#: the same float for every link, whichever end solved it.
SEED_CASES = [
    pytest.param(peers, seed, id=f"{peers}peers-seed{seed}")
    for peers in (8, 16)
    for seed in range(1, 7)
]


@pytest.mark.parametrize("peers, seed", SEED_CASES)
def test_lockstep_convergence_across_seeds(peers, seed):
    config = ScenarioConfig(
        physical_nodes=8 * peers, peers=peers, avg_degree=4.0, seed=seed
    )
    plan = plan_queries(build_scenario(config), QUERIES)
    reference = run_sim_reference(build_scenario(config), ACE, STEPS, plan)
    live = run_live(
        build_scenario(config), ACE, steps=STEPS, plan=plan, net=NetConfig()
    )
    assert live.turn_errors == []
    assert compare_runs(live, reference) == []


def test_recompute_tokens_go_out_together_and_failures_keep_sweep_order(
    plan, monkeypatch
):
    # Every recompute turn fails, each later in the sweep failing sooner.
    real_turn = LivePeer.run_turn
    sweep, events = [], []

    async def run_turn(self, turn):
        if turn.phase == "optimize":
            sweep.append(self.peer_id)
            return await real_turn(self, turn)
        events.append(("start", self.peer_id))
        await asyncio.sleep(0.002 * (len(sweep) - sweep.index(self.peer_id)))
        events.append(("end", self.peer_id))
        raise RuntimeError(f"recompute at {self.peer_id}")

    monkeypatch.setattr(LivePeer, "run_turn", run_turn)
    live = run_live(
        build_scenario(CONFIG), ACE, steps=1, plan=plan[:1], net=NetConfig()
    )
    assert len(sweep) == CONFIG.peers
    # Concurrent: every token was out before the first turn finished, and
    # the turns finished in reverse sweep order.
    n = CONFIG.peers
    assert [kind for kind, _p in events] == ["start"] * n + ["end"] * n
    assert [p for kind, p in events if kind == "end"] == sweep[::-1]
    assert [error[1] for error in live.turn_errors] == sweep
    assert all(error[2].startswith("recompute:") for error in live.turn_errors)


def test_a_recompute_turn_probes_nobody(plan, monkeypatch):
    # A recompute reads its own row off its neighbors' tables.  An optimize
    # turn probes its neighbors (Phase 1) and the candidates Phase 3 names.
    real_turn, real_rpc = LivePeer.run_turn, LivePeer.rpc
    phase, probes = {}, {"optimize": 0, "recompute": 0}

    async def run_turn(self, turn):
        phase[self.peer_id] = turn.phase
        return await real_turn(self, turn)

    async def rpc(self, dst, message, *args, **kwargs):
        if isinstance(message, CostProbe):
            probes[phase[self.peer_id]] += 1
        return await real_rpc(self, dst, message, *args, **kwargs)

    monkeypatch.setattr(LivePeer, "run_turn", run_turn)
    monkeypatch.setattr(LivePeer, "rpc", rpc)
    live = run_live(build_scenario(CONFIG), ACE, steps=STEPS, plan=plan, net=NetConfig())
    assert live.turn_errors == []
    assert probes == {"optimize": 52, "recompute": 0}


class TestDegradation:
    def test_peer_kill_completes_with_retries(self, plan):
        sources = {item.source for item in plan}
        victim = next(
            p for p in build_scenario(CONFIG).overlay.peers()
            if p not in sources
        )
        live = run_live(
            build_scenario(CONFIG), ACE, steps=1, plan=plan,
            net=NetConfig(drain_timeout=3.0, rpc_timeout=2.0),
            kill_peer=victim, kill_after_query=0, post_kill_steps=1,
        )
        # The run completed: every query produced a result entry and the
        # post-kill step ran (2 reports: 1 regular + 1 post-kill).
        assert len(live.queries) == len(plan)
        assert len(live.step_reports) == 2
        assert victim in live.dead
        assert live.retries >= 1
        assert live.total_hits > 0
        assert victim not in live.adjacency
        # Survivors noticed the dropped connection: none still lists the
        # victim as a neighbor.
        assert all(victim not in nbrs for nbrs in live.adjacency.values())
        # No turn vanished: every survivor's post-kill optimize turn either
        # folded into the report or is recorded as failed.
        failed = [
            e for e in live.turn_errors
            if e[0] == 1 and e[2].startswith("optimize")
        ]
        survivors = len(live.adjacency)
        assert live.step_reports[1].peers_optimized + len(failed) == survivors


class TestRealtimeDiscipline:
    def test_realtime_run_matches_adjacency_and_answers(self, plan, reference):
        live = run_live(
            build_scenario(CONFIG), ACE, steps=STEPS, plan=plan,
            net=NetConfig(discipline="realtime", latency_scale=0.0),
        )
        # Control plane (ACE) is discipline-independent: same adjacency
        # and same step floats as the simulator.
        problems = compare_runs(live, reference, check_queries=False)
        assert problems == []
        assert live.clean_shutdown
        assert live.total_hits > 0
        # Wall-clock first-response latency was measured for answered
        # queries.
        walls = [
            q["wall_first_response"]
            for q in live.queries
            if q.get("responders")
        ]
        assert walls and all(w >= 0.0 for w in walls)


    def test_positive_latency_scale_drains_every_query_without_a_task_per_frame(
        self, monkeypatch
    ):
        config = ScenarioConfig(
            physical_nodes=128, peers=16, avg_degree=4.0, seed=2
        )
        plan = plan_queries(build_scenario(config), QUERIES)
        reference = run_sim_reference(build_scenario(config), ACE, STEPS, plan)
        # Per query: what drain returned, what was left pending, and how
        # many tasks the loop created from the query's start to its drain.
        drains, created = [], [0]
        start_epoch, drain = DeliveryCoordinator.start_epoch, DeliveryCoordinator.drain

        def counting_start(coord):
            created[0] = 0

            def factory(loop, coro, **kwargs):
                created[0] += 1
                return asyncio.Task(coro, loop=loop, **kwargs)

            asyncio.get_running_loop().set_task_factory(factory)
            start_epoch(coord)

        async def counting_drain(coord, timeout):
            try:
                drained = await drain(coord, timeout)
            finally:
                asyncio.get_running_loop().set_task_factory(None)
            drains.append((drained, coord.pending, created[0]))
            return drained

        monkeypatch.setattr(DeliveryCoordinator, "start_epoch", counting_start)
        monkeypatch.setattr(DeliveryCoordinator, "drain", counting_drain)
        live = run_live(
            build_scenario(config), ACE, steps=STEPS, plan=plan,
            net=NetConfig(discipline="realtime", latency_scale=2e-6),
        )
        assert compare_runs(live, reference, check_queries=False) == []
        assert [(d, p) for d, p, _t in drains] == [(True, 0)] * len(plan)
        for query, expected in zip(live.queries, reference.queries):
            assert query["scope"] == config.peers
            assert query["responders"] == expected["responders"]
        # Hundreds of frames per query, and no task for any of them.
        frames = [q["query_messages"] + q["hit_messages"] for q in live.queries]
        assert min(frames) > 20
        assert [tasks for _d, _p, tasks in drains] == [0] * len(plan)


class TestDeliveryLoop:
    """``DeliveryCoordinator.drain`` is the one delivery loop of both disciplines."""

    @pytest.mark.parametrize("discipline", ["lockstep", "realtime"])
    def test_a_raising_handler_leaves_drain_and_wedges_nothing(self, discipline):
        delivered = []

        async def boom():
            raise RuntimeError("handler failed")

        async def fine():
            delivered.append("fine")

        async def scenario():
            coord = DeliveryCoordinator(discipline)
            coord.start_epoch()
            for seq, handler in ((1, boom), (2, fine)):
                coord.will_send()
                coord.on_frame(float(seq), seq, handler)
            with pytest.raises(RuntimeError, match="handler failed"):
                await coord.drain(1.0)
            # Nothing in flight; the next frame still queued and deliverable.
            assert coord.pending == 1
            assert await coord.drain(1.0) is True
            assert coord.pending == 0 and coord.lost_frames == 0

        asyncio.run(scenario())
        assert delivered == ["fine"]

    @pytest.mark.parametrize("discipline", ["lockstep", "realtime"])
    def test_a_raising_handler_fails_the_live_run(self, discipline, plan, monkeypatch):
        def broken(*_args, **_kwargs):
            raise RuntimeError("servent failed")

        monkeypatch.setattr(Servent, "on_query", broken)
        with pytest.raises(RuntimeError, match="servent failed"):
            run_live(
                build_scenario(CONFIG), ACE, steps=1, plan=plan[:1],
                net=NetConfig(discipline=discipline),
            )

    def test_realtime_waits_for_the_head_deadline_and_takes_earlier_arrivals_first(self):
        order = []

        def record(name):
            async def handler():
                order.append(name)
            return handler

        async def scenario():
            loop = asyncio.get_running_loop()
            coord = DeliveryCoordinator("realtime", latency_scale=0.01)
            start = loop.time()
            coord.start_epoch()
            coord.will_send()
            coord.will_send()
            coord.on_frame(5.0, 1, record("late"))  # due 50 ms after the epoch
            # A frame that arrives while drain sleeps on "late" and is due first.
            loop.call_later(0.01, coord.on_frame, 2.0, 2, record("early"))
            assert await coord.drain(1.0) is True
            return loop.time() - start

        elapsed = asyncio.run(scenario())
        assert order == ["early", "late"]
        assert elapsed >= 0.05


class TestWelcomeConfig:
    """``Welcome.config`` is the seed's whole ACE configuration, or refused."""

    @staticmethod
    def peer(peer_id=1):
        return LivePeer(peer_id, NetConfig(), DeliveryCoordinator(), TrafficLedger())

    def test_seed_payload_installs_every_field(self):
        ace = AceConfig(
            depth=3, policy="closest", allow_keep_both=False, shed_redundant=False
        )
        seed = SeedNode(
            NetConfig(), DeliveryCoordinator(), TrafficLedger(), ace, 5,
            rng=None,
        )
        peer = self.peer()
        peer.apply_welcome(Welcome(config=seed._welcome_config))
        assert peer.ace_config == ace
        assert peer.shed_floor == 5
        assert peer._policy.name == "closest"

    def test_unknown_keys_are_refused_by_name(self):
        peer = self.peer()
        welcome = Welcome(
            config={"depth": 2, "polcy": "closest", "max_degre": 4, "shed_floor": 3}
        )
        with pytest.raises(WireError, match="max_degre.*polcy"):
            peer.apply_welcome(welcome)
        assert peer.ace_config == AceConfig()


def _peer(peer_id):
    return LivePeer(peer_id, NetConfig(), DeliveryCoordinator(), TrafficLedger())


class TestPeerPlumbing:
    def test_concurrent_rpcs_to_a_fresh_peer_open_one_connection(self):
        async def race():
            a, b = _peer(1), _peer(2)
            await a.start()
            await b.start()
            try:
                a.addresses[2] = (b.host, b.port)
                before = counters.net_connections
                await asyncio.gather(
                    a.rpc(2, CostProbe(sender=1, target=2)),
                    a.rpc(2, CostProbe(sender=1, target=2)),
                )
                return counters.net_connections - before, list(a._conns)
            finally:
                await a.stop()
                await b.stop()

        opened, conns = asyncio.run(race())
        assert opened == 1
        assert conns == [2]

    def test_a_full_write_buffer_holds_drain_until_the_reader_catches_up(self):
        frame = encode_frame(Shutdown(reason="x" * 4000), Envelope(src=1, dst=2))

        def fill(conn):
            """Write until the transport pauses (bounded at 64 MB)."""
            for _ in range((64 << 20) // len(frame)):
                conn.write(frame)
                if conn._resumed is not None:
                    return
            raise AssertionError("the transport never paused writing")

        async def scenario():
            a, b = _peer(1), _peer(2)
            await a.start()
            await b.start()
            try:
                a.addresses[2] = (b.host, b.port)
                conn = await a.connect_to(2)
                await asyncio.sleep(0.05)  # b reads the Hello, binds peer 1
                far = b._conns[1]
                conn.transport.set_write_buffer_limits(high=16 << 10)
                far.transport.pause_reading()
                fill(conn)
                waiter = asyncio.ensure_future(conn.drain())
                await asyncio.sleep(0.05)
                assert not waiter.done()
                far.transport.resume_reading()
                await asyncio.wait_for(waiter, 5.0)  # the buffer emptied
                # Paused again, a lost connection fails the waiting sender.
                far.transport.pause_reading()
                fill(conn)
                waiter = asyncio.ensure_future(conn.drain())
                await asyncio.sleep(0)
                b.kill()
                with pytest.raises(ConnectionError):
                    await asyncio.wait_for(waiter, 5.0)
                with pytest.raises(ConnectionError):
                    conn.write(frame)
            finally:
                await a.stop()
                await b.stop()

        asyncio.run(scenario())

    def test_connect_request_from_a_non_member_is_refused(self):
        peer = _peer(1)
        peer.apply_welcome(Welcome(peer=1, members=(1, 2, 3), cost_row={2: 1.0, 3: 2.0}))
        peer.dead.add(3)
        for src in (999, 1, 3):  # not a member, itself, dead
            reply, _ltime = peer.handle_request(
                ConnectRequest(sender=src, target=1), Envelope(src=src, dst=1)
            )
            assert reply.accepted is False
        assert peer.neighbors == set()
        reply, _ltime = peer.handle_request(
            ConnectRequest(sender=2, target=1), Envelope(src=2, dst=1)
        )
        assert reply.accepted is True
        assert peer.neighbors == {2}


class TestLiveRouting:
    """A live peer labels its connections as ``ArrayOverlay`` labels links."""

    @staticmethod
    def worlds():
        """Triangle 0-1-2 (costs 2, 3, 5) plus pendant 3, both engines.

        After Phase 2, peer 0's tree keeps 0-1 and leaves 0-2 out.
        """
        line = PhysicalTopology(8, [(i, i + 1) for i in range(7)], [1.0] * 7)
        overlay = ArrayOverlay(line, {0: 0, 1: 2, 2: 5, 3: 7})
        for u, v in ((0, 1), (1, 2), (0, 2), (2, 3)):
            overlay.connect(u, v)
        protocol = AceProtocol(overlay, AceConfig(shed_redundant=False))
        protocol.rebuild_all_trees()
        live = _peer(0)
        live.apply_welcome(Welcome(peer=0, members=(0, 1, 2, 3)))
        for other in sorted(overlay.neighbors(0)):
            live.handle_request(
                ConnectRequest(sender=other, target=0), Envelope(src=other, dst=0)
            )
        labels, _ = overlay.link_labels(0)
        live._label_links({v for v, label in labels.items() if label == FLOODING})
        return overlay, protocol, live

    @pytest.mark.parametrize(
        "other, remade",
        [
            # A re-made tree link does not mend the tree: 0 floods on both.
            (1, [1, 2]),
            # A re-made non-flooding link is unlabelled: 0 forwards on it.
            (2, [1, 2]),
        ],
        ids=["flooding", "non_flooding"],
    )
    def test_remade_link_routes_as_the_overlay_does(self, other, remade):
        overlay, protocol, live = self.worlds()
        assert list(live._routes()) == sorted(protocol.flooding_neighbors(0)) == [1]
        env = Envelope(src=other, dst=0)
        overlay.disconnect(0, other)
        live.handle_request(DisconnectNotice(sender=other, target=0), env)
        assert list(live._routes()) == sorted(protocol.flooding_neighbors(0))
        overlay.connect(0, other)
        live.handle_request(ConnectRequest(sender=other, target=0), env)
        assert list(live._routes()) == sorted(protocol.flooding_neighbors(0)) == remade
