"""Which entry points a traced run wraps, and the per-layer metrics they give.

Layer names are the package names under ``src/repro``.  Several entry
points of one layer share a span name (``topology.dijkstra`` covers the
three ways into the shortest-path engine), and time nested under the same
name is counted once.  README.md lists which end-to-end metric each of
these should move, and on which workload.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from . import trace as tr
from .trace import Target, Tracer


def _step_hook(tracer: Tracer, args: tuple) -> Callable[[object], None]:
    """Sum ``StepReport`` fields and overlay mutations over ACE steps."""
    protocol = args[0]
    overlay = getattr(protocol, "overlay", None)
    epoch = getattr(overlay, "epoch", 0)
    tracer.last_protocol = protocol

    def after(report: object) -> None:
        counts = tracer.counts
        counts["topology.mutations"] += getattr(overlay, "epoch", 0) - epoch
        counts["core.peer_rounds"] += getattr(report, "peers_optimized", 0)
        for field in ("probes", "replacements", "keep_both_adds", "redundant_sheds"):
            counts[f"core.{field}"] += getattr(report, field, 0)

    return after


def _churn_hook(tracer: Tracer, args: tuple) -> Callable[[object], None]:
    overlay = getattr(args[0], "overlay", None)
    epoch = getattr(overlay, "epoch", 0)

    def after(_result: object) -> None:
        tracer.counts["topology.mutations"] += getattr(overlay, "epoch", 0) - epoch

    return after


def _queries_hook(tracer: Tracer, _args: tuple) -> Callable[[object], None]:
    def after(results: object) -> None:
        tracer.counts["search.queries"] += len(results)

    return after


def _messages_hook(tracer: Tracer, _args: tuple) -> Callable[[object], None]:
    """Simulated message and duplicate totals of one batched propagation."""

    def after(batch: object) -> None:
        tracer.counts["search.messages"] += int(batch.messages.sum())
        tracer.counts["search.duplicates"] += int(batch.duplicates.sum())

    return after


TARGETS = [
    # topology: generators, physical
    Target("topology.build_underlay", "repro.topology.generators:barabasi_albert"),
    Target("topology.dijkstra", "repro.topology.physical:PhysicalTopology.delays_from"),
    Target("topology.dijkstra", "repro.topology.physical:PhysicalTopology.delays_from_many"),
    Target("topology.dijkstra", "repro.topology.physical:PhysicalTopology.warm"),
    # topology: overlay, soa
    Target("topology.build_overlay", "repro.topology.overlay:small_world_overlay"),
    Target("topology.build_overlay", "repro.topology.soa:ArrayOverlay.from_overlay"),
    Target("topology.warm_edge_costs", "repro.topology.overlay:Overlay.warm_edge_costs"),
    Target("topology.warm_edge_costs", "repro.topology.overlay:Overlay.warm_sources"),
    Target("topology.warm_edge_costs", "repro.topology.soa:ArrayOverlay.warm_edge_costs"),
    Target("topology.warm_edge_costs", "repro.topology.soa:ArrayOverlay.warm_sources"),
    Target("topology.compact", "repro.topology.soa:ArrayOverlay.adjacency_csr"),
    # oracle
    Target("oracle.build", "repro.experiments.setup:build_oracle"),
    Target("oracle.build", "repro.oracle:make_oracle"),
    Target("oracle.delay_pairs", "repro.oracle.base:DelayOracle.delay_pairs"),
    Target("oracle.delay_pairs", "repro.oracle.landmark:LandmarkOracle.delay_pairs"),
    Target("oracle.delay_pairs", "repro.oracle.exact:ExactOracle.delays_from_many"),
    Target("oracle.delay_pairs", "repro.oracle.landmark:LandmarkOracle.delays_from_many"),
    # core
    Target("core.step", "repro.core.ace:AceProtocol.step", _step_hook),
    Target("core.extract_closures", "repro.core.batch_ace:extract_closures"),
    Target("core.churn_refresh", "repro.core.batch_ace:churn_refresh"),
    # search
    Target("search.compile", "repro.search.batch:compile_strategy"),
    Target("search.run_queries", "repro.search.batch:run_queries", _queries_hook),
    Target("search.propagate_many", "repro.search.batch:propagate_many", _messages_hook),
    # sim
    Target("sim.churn", "repro.sim.churn:ChurnModel.depart", _churn_hook),
    Target("sim.churn", "repro.sim.churn:ChurnModel.repair_isolated", _churn_hook),
    # experiments
    Target("experiments.measure_queries", "repro.experiments.static_env:measure_queries"),
    Target("experiments.driver", "repro.experiments.static_env:run_static_experiment"),
    Target("experiments.driver", "repro.experiments.dynamic_env:run_dynamic_experiment"),
    # net
    Target("net.wire.encode", "repro.net.wire:encode_frame"),
    Target("net.wire.decode", "repro.net.wire:FrameAssembler.feed"),
    Target("net.seed.run_step", "repro.net.seed:SeedNode.run_step", _step_hook),
    Target("net.peer.query", "repro.net.peer:LivePeer.start_query"),
    Target("net.peer.query", "repro.net.runtime:DeliveryCoordinator.drain"),
    Target("net.peer.rpc", "repro.net.peer:LivePeer.rpc"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    run: int,
    counters: Mapping[str, float],
    outcome: Mapping[str, float],
    run_s: float,
) -> Dict[str, float]:
    """The per-layer metrics of traced run *run* (one set-up plus one run)."""
    spans = tracer.spans
    own = tr.self_times(spans)
    busy_by_name = tr.busy_times(spans, run)
    by_name: Dict[str, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[tr.RUN] == run:
            by_name[span[tr.NAME]].append(index)
    counts = tracer.counts

    def busy(name: str) -> float:
        return busy_by_name.get(name, 0.0)

    def durations(name: str) -> Sequence[float]:
        return [spans[i][tr.END] - spans[i][tr.START] for i in by_name[name]]

    def self_time(name: str) -> float:
        return sum(own[i] for i in by_name[name])

    def first_start(name: str) -> Optional[float]:
        return spans[by_name[name][0]][tr.START] if by_name[name] else None

    c = counters.get
    steps = durations("core.step")
    queries = counts["search.queries"]
    frames = outcome.get("frames", 0)
    answered = outcome.get("queries", 0)
    delay_lookups = c("delay_cache_hits", 0) + c("delay_cache_misses", 0)
    edge_lookups = c("edge_cost_hits", 0) + c("edge_cost_misses", 0)
    run_start = first_start("harness.run")
    first_turn = first_start("net.seed.run_step")
    encode_s, decode_s = busy("net.wire.encode"), busy("net.wire.decode")

    return {
        "topology.build_underlay_s": busy("topology.build_underlay"),
        "topology.dijkstra_s": busy("topology.dijkstra"),
        "topology.dijkstra_runs": c("dijkstra_runs", 0),
        "topology.dijkstra_sources": c("dijkstra_sources", 0),
        "topology.delay_cache_hit_ratio": _ratio(c("delay_cache_hits", 0), delay_lookups),
        "topology.build_overlay_s": busy("topology.build_overlay"),
        "topology.warm_edge_costs_s": busy("topology.warm_edge_costs"),
        "topology.edge_cost_hit_ratio": _ratio(c("edge_cost_hits", 0), edge_lookups),
        "topology.edge_cost_misses": c("edge_cost_misses", 0),
        "topology.compact_s": busy("topology.compact"),
        "topology.soa_compactions": c("soa_compactions", 0),
        "topology.soa_flush_ratio": _ratio(
            c("soa_edit_buffer_flushes", 0), c("soa_compactions", 0)
        ),
        "topology.mutations": counts["topology.mutations"],
        "oracle.build_s": busy("oracle.build"),
        "oracle.delay_pairs_s": self_time("oracle.delay_pairs"),
        "oracle.estimates": c("oracle_estimates", 0),
        "oracle.exact_fallbacks": c("oracle_exact_fallbacks", 0),
        "oracle.fallback_ratio": _ratio(
            c("oracle_exact_fallbacks", 0),
            c("oracle_exact_fallbacks", 0) + c("oracle_estimates", 0),
        ),
        "oracle.landmark_embed_sources": c("landmark_embed_sources", 0),
        "core.step_s": sum(steps),
        "core.step_p50_s": statistics.median(steps) if steps else 0.0,
        "core.peer_rounds": counts["core.peer_rounds"],
        "core.step_peer_rounds_per_s": _ratio(
            counts["core.peer_rounds"], sum(steps) + busy("net.seed.run_step")
        ),
        "core.extract_closures_s": busy("core.extract_closures"),
        "core.closure_batch_peers": c("closure_batch_peers", 0),
        "core.closure_reuse_ratio": _ratio(
            c("closure_reuses", 0), c("closure_reuses", 0) + c("closure_batch_peers", 0)
        ),
        "core.churn_refresh_s": busy("core.churn_refresh"),
        "core.churn_refreshes": len(durations("core.churn_refresh")),
        "core.probes": counts["core.probes"],
        "core.replacements": counts["core.replacements"],
        "core.keep_both_adds": counts["core.keep_both_adds"],
        "core.redundant_sheds": counts["core.redundant_sheds"],
        "core.replacement_yield": _ratio(counts["core.replacements"], counts["core.probes"]),
        "core.state_syncs": c("array_state_syncs", 0),
        "core.probe_rebuild_all_trees_s": outcome.get("probe_rebuild_all_trees_s", 0.0),
        "search.compile_s": busy("search.compile"),
        "search.compiled_strategies": c("compiled_strategies", 0),
        "search.compiles_per_query": _ratio(c("compiled_strategies", 0), queries),
        "search.run_queries_s": busy("search.run_queries"),
        "search.queries": queries,
        "search.run_queries_per_s": _ratio(queries, busy("search.run_queries")),
        "search.frontier_rounds": c("frontier_rounds", 0),
        "search.scalar_fallbacks": max(0, queries - c("batched_queries", 0)),
        "search.duplicate_ratio": _ratio(counts["search.duplicates"], counts["search.messages"]),
        "sim.churn_s": busy("sim.churn"),
        "sim.departures": outcome.get("departures", 0),
        "sim.sim_seconds": outcome.get("sim_seconds", 0.0),
        "experiments.measure_queries_s": busy("experiments.measure_queries"),
        "experiments.driver_self_s": self_time("experiments.driver"),
        "net.wire.encode_s": encode_s,
        "net.wire.decode_s": decode_s,
        "net.wire.frames": frames,
        "net.wire.bytes_per_frame": _ratio(outcome.get("bytes", 0), frames),
        "net.wire.codec_share": _ratio(encode_s + decode_s, run_s),
        "net.boot_s": first_turn - run_start if first_turn and run_start else 0.0,
        "net.seed.run_step_s": busy("net.seed.run_step"),
        "net.peer.query_s": busy("net.peer.query"),
        "net.peer.rpcs": len(durations("net.peer.rpc")),
        "net.peer.rpc_wait_s": sum(durations("net.peer.rpc")),
        "net.runtime.connections": outcome.get("connections", 0),
        "net.runtime.frames_per_query": _ratio(frames, answered) if frames else 0.0,
        "net.runtime.frames_per_s": _ratio(frames, run_s),
        "net.runtime.retries": outcome.get("retries", 0),
        "net.runtime.lost_frames": outcome.get("lost_frames", 0),
        "net.runtime.dead_peers": outcome.get("dead_peers", 0),
    }
