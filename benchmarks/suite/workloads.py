"""The five workloads: sizes, world construction, the timed call, accounting.

Each workload is a ``set_up(size, seed) -> world`` and a ``run(size, world)
-> Outcome`` pair.  ``--seed`` reaches the program only as
``ScenarioConfig.seed`` and as the seed of the query pairs; everything else
is pinned in :data:`WORKLOADS`.  The sizes were chosen on the 2-core box at
the seed commit so that one set-up plus one run takes about 3 s (live_64,
measured six times in a 20 s run), 6 s (static_8k, three times) or 10 to
12 s (the others, once, on a slow box too).

An operation is one ACE step or one query.  The ``account_*`` functions
turn a driver's result into ``(attempted, failed)`` and hold the failure
rules, so the smoke test can feed them a broken result.
"""

from __future__ import annotations

import dataclasses
import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.core import AceConfig, AceProtocol
from repro.experiments import (
    DynamicConfig,
    ScenarioConfig,
    build_scenario,
    run_dynamic_experiment,
    run_static_experiment,
)
from repro.net import NetConfig, plan_queries, run_live
from repro.search import ace_strategy, blind_flooding_strategy, run_queries

Size = Mapping[str, object]


@dataclass
class Outcome:
    """What one run did: operation counts, simulated figures, layer facts."""

    peer_rounds: int
    queries: int
    attempted: int
    failed: int
    #: Simulated statistics and counts; the names in ``Workload.exact`` must
    #: repeat bit for bit whenever the same seed runs again.
    figures: Dict[str, float]
    #: Facts only the driver's result carries, for the per-layer metrics.
    facts: Dict[str, float] = field(default_factory=dict)
    #: Host-time latency samples in ms (live workload only).
    latencies_ms: List[float] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    """BENCHMARK.json says why each is here; README.md says it at length."""

    name: str
    full: Size
    tiny: Size
    set_up: Callable[[Size, int], object]
    run: Callable[[Size, object], Outcome]
    exact: Tuple[str, ...]
    #: How much of a slowdown of the box the run feels: its wall seconds go
    #: with the speed probe's kernel time to this power (speed.py; README.md
    #: has the fits, over 30 to 170 iterations per workload).
    sensitivity: float = 0.9


def scenario_config(size: Size, seed: int, engine: str = "array") -> ScenarioConfig:
    """A config with only the fields this commit's ``ScenarioConfig`` has."""
    wanted = dict(
        physical_nodes=size["nodes"],
        peers=size["peers"],
        avg_degree=size["degree"],
        underlay="ba",
        overlay_kind="small_world",
        seed=seed,
        oracle=size["oracle"],
        engine=engine,
    )
    known = {f.name for f in dataclasses.fields(ScenarioConfig)}
    return ScenarioConfig(**{k: v for k, v in wanted.items() if k in known})


def _reduction_pct(before: float, after: float) -> float:
    return 100.0 * (before - after) / before if before else 0.0


# -- static_8k, exact_3k ---------------------------------------------------


def _static_set_up(size: Size, seed: int) -> object:
    return build_scenario(scenario_config(size, seed))


def account_static(scopes: Sequence[float], peers: int, query_samples: int) -> Tuple[int, int]:
    """Ops of a static run: one query batch per point, one ACE step after the first.

    The driver reports the mean scope of each batch; a mean below the peer
    count means some unbounded query missed a peer (the overlay came apart),
    so the whole batch and the step before it are counted as failed.
    """
    attempted = failed = 0
    for point, scope in enumerate(scopes):
        broken = scope < peers
        attempted += query_samples
        failed += query_samples if broken else 0
        if point > 0:
            attempted += 1
            failed += 1 if broken else 0
    return attempted, failed


def _static_run(size: Size, scenario: object) -> Outcome:
    peers, samples = size["peers"], size["query_samples"]
    series = run_static_experiment(scenario, steps=size["steps"], query_samples=samples)
    steps = len(series.steps) - 1
    attempted, failed = account_static(series.search_scope, peers, samples)
    return Outcome(
        peer_rounds=steps * peers,
        queries=len(series.steps) * samples,
        attempted=attempted,
        failed=failed,
        figures={
            "traffic_reduction_pct": series.traffic_reduction_percent,
            "response_reduction_pct": series.response_reduction_percent,
            "scope_retained": min(series.search_scope) / peers,
            "ace_overhead_per_round": sum(series.step_overhead) / (steps * peers),
        },
    )


# -- query_8k ----------------------------------------------------------------


def _query_set_up(size: Size, seed: int) -> object:
    scenario = build_scenario(scenario_config(size, seed))
    rng = np.random.default_rng([seed, 0x9E8])
    peers = scenario.overlay.peers()
    pairs = []
    for _ in range(size["pairs"]):
        source = peers[int(rng.integers(len(peers)))]
        holders = scenario.catalog.holders_of(scenario.catalog.sample_object(rng))
        pairs.append((source, holders))
    return scenario, pairs


def account_queries(scopes: Sequence[int], live_peers: int) -> Tuple[int, int]:
    """Unbounded-TTL queries: one fails if it reaches fewer than all live peers."""
    return len(scopes), sum(1 for scope in scopes if scope < live_peers)


def _query_run(size: Size, world: object) -> Outcome:
    scenario, pairs = world
    overlay, peers = scenario.overlay, size["peers"]
    flooding = blind_flooding_strategy(overlay)
    flood_all = run_queries(overlay, flooding, pairs, ttl=None)
    flood_ttl = run_queries(overlay, flooding, pairs, ttl=5)
    protocol = AceProtocol(
        overlay, AceConfig(), rng=np.random.default_rng(scenario.config.seed + 0xACE)
    )
    report = protocol.step()
    tree = ace_strategy(protocol)
    ace_all = run_queries(overlay, tree, pairs, ttl=None)
    ace_ttl = run_queries(overlay, tree, pairs, ttl=7)

    scopes = [q.search_scope for q in flood_all + ace_all]
    attempted, failed = account_queries(scopes, peers)
    attempted += 1 + len(flood_ttl) + len(ace_ttl)
    failed += 0 if overlay.is_connected() else 1

    def mean_response(results) -> float:
        times = [q.first_response_time for q in results if q.first_response_time is not None]
        return statistics.fmean(times) if times else 0.0

    return Outcome(
        peer_rounds=report.peers_optimized,
        queries=4 * len(pairs),
        attempted=attempted,
        failed=failed,
        figures={
            "traffic_reduction_pct": _reduction_pct(
                sum(q.traffic_cost for q in flood_all), sum(q.traffic_cost for q in ace_all)
            ),
            "response_reduction_pct": _reduction_pct(
                mean_response(flood_all), mean_response(ace_all)
            ),
            "scope_retained": min(scopes) / peers,
            "ace_overhead_per_round": report.total_overhead / report.peers_optimized,
        },
    )


# -- churn_2k ----------------------------------------------------------------


def _churn_set_up(size: Size, seed: int) -> object:
    # run_dynamic_experiment mutates its scenario, so each arm gets its own.
    config = scenario_config(size, seed)
    return build_scenario(config), build_scenario(config)


def account_churn(scope_points: Sequence[float], window: int, queries: int, peers: int,
                  rounds: int) -> Tuple[int, int]:
    """Ops of one arm: its queries, by window of mean scope, and its ACE rounds.

    Churn keeps the population constant, so a window whose mean scope is
    below the peer count holds a query that missed a live peer.
    """
    failed = 0
    for index, scope in enumerate(scope_points):
        in_window = min(window, queries - index * window)
        failed += in_window if scope < peers else 0
    return queries + rounds, failed


def _churn_run(size: Size, world: object) -> Outcome:
    peers, queries, window = size["peers"], size["queries"], size["window"]
    churn = dataclasses.replace(
        DynamicConfig().churn,
        mean_lifetime=size["mean_lifetime"],
        std_lifetime=size["std_lifetime"],
    )
    arms = []
    for scenario, enable_ace in zip(world, (False, True)):
        config = DynamicConfig(
            total_queries=queries,
            window=window,
            enable_ace=enable_ace,
            optimization_interval=size["interval"],
            churn=churn,
        )
        arms.append(run_dynamic_experiment(scenario, config))
    gnutella, ace = arms
    rounds = int(ace.duration // size["interval"])
    attempted = failed = 0
    for series, arm_rounds in ((gnutella, 0), (ace, rounds)):
        a, f = account_churn(series.scope_points, window, series.total_queries, peers, arm_rounds)
        attempted, failed = attempted + a, failed + f
    return Outcome(
        peer_rounds=rounds * peers,
        queries=gnutella.total_queries + ace.total_queries,
        attempted=attempted,
        failed=failed,
        figures={
            "traffic_reduction_pct": _reduction_pct(gnutella.mean_traffic, ace.mean_traffic),
            "response_reduction_pct": _reduction_pct(gnutella.mean_response, ace.mean_response),
            "scope_retained": min(gnutella.scope_points + ace.scope_points) / peers,
            "ace_overhead_per_round": ace.total_overhead / max(1, rounds * peers),
        },
        facts={
            "departures": gnutella.departures + ace.departures,
            "sim_seconds": gnutella.duration + ace.duration,
        },
    )


# -- live_64 -------------------------------------------------------------------


def _live_set_up(size: Size, seed: int) -> object:
    scenario = build_scenario(scenario_config(size, seed, engine="object"))
    return scenario, plan_queries(scenario, size["queries"])


def account_live(result: object, plan: Sequence[object], peers: int, steps: int) -> Tuple[int, int]:
    """Ops of a live run: its ACE steps, its queries, and every fault seen.

    A query fails if it was skipped, not drained, reached a scope other than
    the whole fleet, or went unanswered although another peer holds the
    object.  Each retry, lost frame, dead peer and an unclean shutdown is a
    failed operation of its own.
    """
    attempted = steps + len(plan)
    failed = sum(1 for report in result.step_reports if report.peers_optimized != peers)
    failed += steps - len(result.step_reports)
    for item, query in zip(plan, result.queries):
        expects_hit = any(holder != item.source for holder in item.holders)
        if (
            query.get("skipped")
            or not query.get("drained")
            or query.get("scope") != peers
            or (expects_hit and not query.get("responders"))
        ):
            failed += 1
    failed += len(plan) - len(result.queries)
    faults = (
        result.retries
        + result.lost_frames
        + len(result.dead)
        + (0 if result.clean_shutdown else 1)
    )
    return attempted + faults, failed + faults


def _live_run(size: Size, world: object) -> Outcome:
    scenario, plan = world
    peers, steps = size["peers"], size["steps"]
    result = run_live(
        scenario, AceConfig(), steps=steps, plan=plan, net=NetConfig(discipline="realtime")
    )
    attempted, failed = account_live(result, plan, peers, steps)
    rounds = sum(report.peers_optimized for report in result.step_reports)
    overhead = sum(report.total_overhead for report in result.step_reports)
    scopes = [query.get("scope", 0) for query in result.queries]
    walls = [q["wall_first_response"] for q in result.queries if q.get("wall_first_response")]
    return Outcome(
        peer_rounds=rounds,
        queries=len(result.queries),
        attempted=attempted,
        failed=failed,
        figures={
            "scope_retained": min(scopes) / peers,
            "ace_overhead_per_round": overhead / max(1, rounds),
            "bytes_per_query": result.bytes_sent / len(plan),
        },
        facts={
            "frames": result.messages_sent,
            "bytes": result.bytes_sent,
            "connections": result.connections,
            "retries": result.retries,
            "lost_frames": result.lost_frames,
            "dead_peers": len(result.dead),
        },
        latencies_ms=[1e3 * wall for wall in walls],
    )


# -- the table ---------------------------------------------------------------

_PAPER_SCALE = dict(nodes=20000, peers=8000, degree=6, oracle="landmark:16")
_TINY_STATIC = dict(nodes=600, peers=120, degree=6, steps=2, query_samples=8)
_SIM_EXACT = (
    "traffic_reduction_pct",
    "response_reduction_pct",
    "scope_retained",
    "ace_overhead_per_round",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="static_8k",
            full=dict(_PAPER_SCALE, steps=1, query_samples=64),
            tiny=dict(_TINY_STATIC, oracle="landmark:4"),
            set_up=_static_set_up,
            run=_static_run,
            exact=_SIM_EXACT,
        ),
        Workload(
            name="exact_3k",
            full=dict(nodes=8000, peers=3000, degree=6, oracle="exact", steps=1, query_samples=64),
            tiny=dict(_TINY_STATIC, oracle="exact"),
            set_up=_static_set_up,
            run=_static_run,
            exact=_SIM_EXACT,
            # Four fifths of the run are scipy's Dijkstra over compact arrays,
            # which loses less to a crowded cache than interpreter code does.
            sensitivity=0.65,
        ),
        Workload(
            name="query_8k",
            full=dict(_PAPER_SCALE, pairs=192),
            tiny=dict(nodes=600, peers=120, degree=6, oracle="landmark:4", pairs=8),
            set_up=_query_set_up,
            run=_query_run,
            exact=_SIM_EXACT,
        ),
        Workload(
            name="churn_2k",
            # Lifetimes are drawn so that about a hundred peers per arm leave
            # within the 72 s of simulated time that 720 queries span (the
            # paper's 600 +- 300 s sessions would lose two), and wide (std =
            # 2 x mean) so that the count of departures depends little on
            # when exactly the last query lands.
            full=dict(nodes=4000, peers=2000, degree=8, oracle="landmark:16", queries=720,
                      window=120, interval=20.0, mean_lifetime=1080.0, std_lifetime=2160.0),
            tiny=dict(nodes=400, peers=100, degree=6, oracle="landmark:4", queries=60,
                      window=20, interval=30.0, mean_lifetime=600.0, std_lifetime=1200.0),
            set_up=_churn_set_up,
            run=_churn_run,
            exact=_SIM_EXACT,
        ),
        Workload(
            name="live_64",
            full=dict(nodes=512, peers=64, degree=6, oracle="exact", queries=100, steps=1),
            tiny=dict(nodes=128, peers=16, degree=4, oracle="exact", queries=24, steps=1),
            set_up=_live_set_up,
            run=_live_run,
            exact=("scope_retained",),
        ),
    )
}

