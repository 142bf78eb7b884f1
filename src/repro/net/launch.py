"""Launcher: in-process live fleets, the sim reference, and their diff.

:func:`run_live` boots N asyncio peers plus a seed node on localhost,
bootstraps the scenario's overlay over real sockets, runs ACE optimization
rounds as token-passing sweeps, then plays a query workload through the
live data plane.  :func:`run_sim_reference` produces the discrete-event
simulator's answer for the *same* seeded scenario, and
:func:`compare_runs` diffs the two — under the lockstep discipline the diff
must be empty (ACE-optimized adjacency, step overhead floats, per-query
traffic cost and logical response times all equal, bit for bit).

Layering: this module takes a pre-built scenario object (anything with
``overlay``, ``catalog``, ``config.seed`` and ``fresh_overlay()`` — in
practice :class:`repro.experiments.setup.Scenario`) instead of importing
the experiment layer; replint REP015 holds the runtime below it.
"""

from __future__ import annotations

import asyncio
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.ace import AceConfig, AceProtocol, StepReport
from ..core.turn import shed_floor_of
from ..perf import counters
from ..search.tree_routing import ace_strategy
from ..sim.node import run_message_level_query
from .peer import LivePeer
from .runtime import DeliveryCoordinator, NetConfig, TrafficLedger
from .seed import SEED_ID, PeerRecord, SeedNode
from .wire import Hello

__all__ = [
    "QueryPlan",
    "LiveRunResult",
    "SimReference",
    "plan_queries",
    "run_live",
    "run_sim_reference",
    "compare_runs",
]

#: Salt deriving the shared protocol-RNG seed from the scenario seed; both
#: the live seed node and the sim reference construct their stream from it,
#: which is what makes their decision sequences identical.
PROTOCOL_SEED_SALT = 0xACE

#: Salt for the query-plan stream (independent of every scenario stream).
PLAN_SEED_SALT = 0x51E5


@dataclass(frozen=True)
class QueryPlan:
    """One planned query: who asks, for what, who holds it."""

    source: int
    obj: int
    holders: Tuple[int, ...]


@dataclass
class SimReference:
    """The discrete-event simulator's answer for a scenario + plan."""

    adjacency: Dict[int, List[int]]
    step_reports: List[StepReport]
    queries: List[Dict[str, Any]]


@dataclass
class LiveRunResult:
    """Everything a live run produced, ready for comparison and reporting."""

    adjacency: Dict[int, List[int]]
    step_reports: List[StepReport]
    queries: List[Dict[str, Any]]
    clean_shutdown: bool = True
    dead: List[int] = field(default_factory=list)
    #: ``(step_index, peer, error repr)`` per failed turn at a live peer.
    turn_errors: List[Tuple[int, int, str]] = field(default_factory=list)
    lost_frames: int = 0
    connections: int = 0
    messages_sent: int = 0
    bytes_sent: int = 0
    retries: int = 0

    @property
    def total_hits(self) -> int:
        """Responses received across all queries (liveness signal)."""
        return sum(len(q.get("responders", ())) for q in self.queries)


def plan_queries(scenario, count: int) -> List[QueryPlan]:
    """Deterministic Fig-7-style workload shared by sim and live runs.

    Drawn from a stream salted off the scenario seed (not the scenario's
    own run stream, which the caller may have consumed already), so the
    same scenario always yields the same plan.
    """
    rng = np.random.default_rng(scenario.config.seed + PLAN_SEED_SALT)
    peers = scenario.overlay.peers()
    plan: List[QueryPlan] = []
    for _ in range(count):
        source = peers[int(rng.integers(0, len(peers)))]
        obj = scenario.catalog.sample_object(rng)
        holders = tuple(sorted(scenario.catalog.holders_of(obj)))
        plan.append(QueryPlan(source=source, obj=obj, holders=holders))
    return plan


def run_sim_reference(
    scenario, ace_config: AceConfig, steps: int, plan: Sequence[QueryPlan]
) -> SimReference:
    """Run the same scenario through the discrete-event simulator."""
    overlay = scenario.fresh_overlay()
    protocol = AceProtocol(
        overlay,
        ace_config,
        rng=np.random.default_rng(scenario.config.seed + PROTOCOL_SEED_SALT),
    )
    reports = [protocol.step() for _ in range(steps)]
    strategy = ace_strategy(protocol)
    queries: List[Dict[str, Any]] = []
    for item in plan:
        res = run_message_level_query(
            overlay, item.source, strategy, holders=item.holders, obj=item.obj
        )
        queries.append(
            {
                "source": item.source,
                "query_messages": res.query_messages,
                "query_traffic": res.query_traffic,
                "hit_messages": res.hit_messages,
                "hit_traffic": res.hit_traffic,
                "duplicates": res.duplicates,
                "first_response_time": res.first_response_time,
                "responders": sorted(res.responders),
                "scope": res.search_scope,
            }
        )
    adjacency = {p: sorted(overlay.neighbors(p)) for p in overlay.peers()}
    return SimReference(
        adjacency=adjacency, step_reports=reports, queries=queries
    )


def run_live(
    scenario,
    ace_config: Optional[AceConfig] = None,
    steps: int = 2,
    plan: Optional[Sequence[QueryPlan]] = None,
    net: Optional[NetConfig] = None,
    kill_peer: Optional[int] = None,
    kill_after_query: int = 0,
    post_kill_steps: int = 0,
) -> LiveRunResult:
    """Run the scenario over live sockets; see the module docstring.

    With ``kill_peer`` set, that peer's sockets are torn down abruptly
    after query ``kill_after_query`` completes; the rest of the workload
    and ``post_kill_steps`` extra ACE steps then exercise the retry /
    timeout / dead-marking path — the run must complete, degraded.
    """
    ace_config = ace_config or AceConfig()
    net = net or NetConfig()
    if plan is None:
        plan = plan_queries(scenario, 8)
    return asyncio.run(
        _run_live_async(
            scenario, ace_config, steps, list(plan), net,
            kill_peer, kill_after_query, post_kill_steps,
        )
    )


async def _run_live_async(
    scenario,
    ace_config: AceConfig,
    steps: int,
    plan: List[QueryPlan],
    net: NetConfig,
    kill_peer: Optional[int],
    kill_after_query: int,
    post_kill_steps: int,
) -> LiveRunResult:
    start_connections = counters.net_connections
    start_messages = counters.net_messages_sent
    start_bytes = counters.net_bytes_sent
    start_retries = counters.net_retries

    overlay = scenario.overlay
    members = overlay.peers()
    coord = DeliveryCoordinator(net.discipline, net.latency_scale)
    ledger = TrafficLedger()
    seed = SeedNode(
        net, coord, ledger, ace_config, shed_floor_of(ace_config, overlay),
        rng=np.random.default_rng(scenario.config.seed + PROTOCOL_SEED_SALT),
    )
    peers: Dict[int, LivePeer] = {
        p: LivePeer(p, net, coord, ledger) for p in members
    }

    clean = True
    try:
        # -- boot: sockets up, roster known to the seed -----------------
        await seed.start()
        for p in members:
            await peers[p].start()
        for p in members:
            others = [q for q in members if q != p]
            cost_row = overlay.costs_from(p, others)
            seed.expect(
                PeerRecord(
                    p,
                    neighbors=tuple(sorted(overlay.neighbors(p))),
                    cost_row=cost_row,
                ),
                (peers[p].host, peers[p].port),
            )

        # -- register: Hello -> Welcome over the wire -------------------
        for p in members:
            peer = peers[p]
            peer.addresses[SEED_ID] = (seed.host, seed.port)
            welcome, _env = await peer.rpc(
                SEED_ID,
                Hello(peer=p, host=peer.host, port=peer.port),
            )
            peer.apply_welcome(welcome)

        # -- build the overlay: lower endpoint dials ---------------------
        for p in members:
            for q in peers[p].assigned_neighbors:
                if p < q:
                    await peers[p].bootstrap_connect(q)

        # -- seed objects at their holders -------------------------------
        for item in plan:
            for h in item.holders:
                if h in peers:
                    peers[h].servent.holds.add(item.obj)

        # -- ACE optimization rounds -------------------------------------
        step_reports = [await seed.run_step(i) for i in range(steps)]

        # -- query workload ----------------------------------------------
        killed = False
        queries: List[Dict[str, Any]] = []
        for qi, item in enumerate(plan):
            origin = peers[item.source]
            if killed and item.source == kill_peer:
                queries.append({"source": item.source, "skipped": True})
                continue
            mark = ledger.mark()
            coord.start_epoch()
            query = await origin.start_query(item.obj, ttl=None)
            drained = await coord.drain(net.drain_timeout)
            clean = clean and drained
            window = ledger.window(mark)
            guid = query.guid
            responses = origin.servent.responses.get(guid, [])
            cost = TrafficLedger.cost_by_kind(window)
            count = TrafficLedger.count_by_kind(window)
            queries.append(
                {
                    "source": item.source,
                    "query_messages": count.get("query", 0),
                    "query_traffic": cost.get("query", 0.0),
                    "hit_messages": count.get("query_hit", 0),
                    "hit_traffic": cost.get("query_hit", 0.0),
                    "duplicates": sum(
                        n.servent.duplicates_by_guid.get(guid, 0)
                        for n in peers.values()
                    ),
                    "first_response_time": min(
                        (t for t, _r in responses), default=None
                    ),
                    "responders": sorted({r for _t, r in responses}),
                    "scope": sum(
                        1
                        for n in peers.values()
                        if guid in n.servent.first_arrival
                    ),
                    "wall_first_response": origin.first_hit_walltime.get(guid),
                    "drained": drained,
                }
            )
            if (
                kill_peer is not None
                and not killed
                and qi == kill_after_query
            ):
                peers[kill_peer].kill()
                killed = True

        # -- post-kill rounds: exercise retry/dead-marking ---------------
        for i in range(post_kill_steps):
            step_reports.append(await seed.run_step(steps + i))

        adjacency = {
            p: sorted(peers[p].neighbors)
            for p in members
            if not killed or p != kill_peer
        }
        return LiveRunResult(
            adjacency=adjacency,
            step_reports=step_reports,
            queries=queries,
            clean_shutdown=clean,
            dead=sorted(seed.dead),
            turn_errors=list(seed.turn_errors),
            lost_frames=coord.lost_frames,
            connections=counters.net_connections - start_connections,
            messages_sent=counters.net_messages_sent - start_messages,
            bytes_sent=counters.net_bytes_sent - start_bytes,
            retries=counters.net_retries - start_retries,
        )
    finally:
        try:
            await seed.shutdown_all()
        except Exception:
            pass
        for peer in peers.values():
            await peer.stop()
        await seed.stop()


def compare_runs(
    live: LiveRunResult, ref: SimReference, check_queries: bool = True
) -> List[str]:
    """Diff a live run against the sim reference; empty list == converged.

    Comparisons are exact (``==`` on floats): under the lockstep
    discipline the live run replays the simulator's event order with its
    decision stream, so every compared number must be bit-identical.

    Exactness is defined on one scenario: both runs must have been given
    the same :class:`~repro.experiments.setup.Scenario` object, so they
    read link costs through one unordered host-pair cache.  Two equal
    scenarios built separately fault ``dist[u][v]`` in from different ends
    and can disagree in the last ulp.
    """
    problems: List[str] = [
        f"step[{step}] peer {peer}: turn failed: {error}"
        for step, peer, error in live.turn_errors
    ]
    if live.adjacency != ref.adjacency:
        for p in sorted(set(live.adjacency) | set(ref.adjacency)):
            lv = live.adjacency.get(p)
            rv = ref.adjacency.get(p)
            if lv != rv:
                problems.append(f"adjacency[{p}]: live={lv} sim={rv}")
    if len(live.step_reports) != len(ref.step_reports):
        problems.append(
            f"step count: live={len(live.step_reports)} "
            f"sim={len(ref.step_reports)}"
        )
    for ls, rs in zip(live.step_reports, ref.step_reports):
        for name, rv in asdict(rs).items():
            lv = getattr(ls, name)
            if lv != rv:
                problems.append(
                    f"step[{ls.step_index}].{name}: live={lv!r} sim={rv!r}"
                )
    if not check_queries:
        return problems
    if len(live.queries) != len(ref.queries):
        problems.append(
            f"query count: live={len(live.queries)} sim={len(ref.queries)}"
        )
    for i, (lq, rq) in enumerate(zip(live.queries, ref.queries)):
        # Every field the simulator reports; live rows carry wall-clock
        # extras on top, which have no simulated counterpart.
        for name, rv in rq.items():
            lv = lq.get(name)
            if lv != rv:
                problems.append(f"query[{i}].{name}: live={lv!r} sim={rv!r}")
    return problems
