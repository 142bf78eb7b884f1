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

import pytest

from repro.core.ace import AceConfig
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
from repro.net.wire import Welcome, WireError
from repro.perf import counters

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

        monkeypatch.setattr("asyncio.start_server", no_sockets)
        monkeypatch.setattr("asyncio.open_connection", no_sockets)
        with pytest.raises(ValueError, match="naive"):
            run_live(
                build_scenario(CONFIG), AceConfig(policy="naive"),
                steps=1, plan=plan, net=NetConfig(),
            )


#: Lockstep convergence beyond the one seed above.  At 16 peers seeds 1, 4
#: and 6 diverge by one ulp, whatever the wire format: an exact delay is
#: the sum of link delays along the path in the direction it was solved,
#: and the two directions can round apart.  The simulator's overlay keeps
#: whichever direction its cache history solved first (an ACE-made edge
#: takes the prober's), while the live cost rows take the lower peer id's,
#: so an edge Phase 3 adds can carry different last bits on each side.
#: The fix is a canonical direction per host pair in the delay oracle.
_ASYMMETRIC = {(16, 1), (16, 4), (16, 6)}

SEED_CASES = [
    pytest.param(
        peers, seed,
        id=f"{peers}peers-seed{seed}",
        marks=pytest.mark.xfail(
            strict=True, reason="delay direction asymmetry (see _ASYMMETRIC)"
        ) if (peers, seed) in _ASYMMETRIC else (),
    )
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
