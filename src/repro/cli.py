"""Command-line interface: run the paper's experiments from a shell.

Subcommands
-----------

``static``
    Figures 7-8: ACE convergence on a static overlay.
``dynamic``
    Figures 9-10: Gnutella-like vs. ACE (vs. ACE + cache) under churn.
``depth``
    Figures 11-16: closure-depth sweep with optimization rates.
``walkthrough``
    Tables 1-2: the six-peer worked example.
``topology``
    Section 4.1: generate and validate a topology pair.
``figures``
    Every paper table, figure and ablation, with its shape checks
    (:mod:`repro.experiments.figures`).
``net``
    Live asyncio network runtime: real sockets, wire protocol, seed-node
    bootstrap, optional sim-vs-live convergence check (docs/NETWORK.md).

Every run is reproducible from ``--seed``.  Examples::

    python -m repro static --peers 128 --degree 8 --steps 10
    python -m repro dynamic --peers 120 --queries 600 --cache
    python -m repro depth --degrees 4 10 --depths 1 2 3
    python -m repro walkthrough --depth 2
    python -m repro topology --peers 200
    python -m repro figures table1_table2 fig07_traffic_vs_steps
    python -m repro net --peers 8 --check --perf
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

__all__ = ["build_parser", "main"]


def _oracle_spec(text: str) -> str:
    """argparse ``type=`` for ``--oracle``: validate, return *text* unchanged."""
    from .oracle import parse_oracle_spec

    try:
        parse_oracle_spec(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _figure_name(text: str) -> str:
    """argparse ``type=`` for ``figures``: a row name of the figure table."""
    from .experiments.figures import FIGURES

    names = [row.name for row in FIGURES]
    if text not in names:
        raise argparse.ArgumentTypeError(
            f"unknown figure {text!r} (choose from {', '.join(names)})"
        )
    return text


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'A Distributed Approach to Solving Overlay "
            "Mismatching Problem' (ICDCS 2004)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_world_args(p, peers=128, degree=6.0):
        p.add_argument("--peers", type=int, default=peers,
                       help="number of overlay peers")
        p.add_argument("--physical-nodes", type=int, default=None,
                       help="underlay size (default: 8x peers)")
        p.add_argument("--degree", type=float, default=degree,
                       help="average logical degree")
        p.add_argument("--seed", type=int, default=1, help="RNG seed")
        p.add_argument("--oracle", default="exact", type=_oracle_spec,
                       help="delay backend: 'exact' (default) or "
                            "'landmark[:k]' for the approximate k-landmark "
                            "embedding (k=16 by default)")
        p.add_argument("--json", dest="json_path", default=None,
                       help="also write the result object to this JSON file")
        p.add_argument("--perf", action="store_true",
                       help="print engine perf counters (Dijkstra runs, "
                            "cache hit rates, queries/sec) after the run")
        p.add_argument("--sanitize", action="store_true",
                       help="enable the runtime invariant sanitizer (epoch "
                            "monotonicity, cache coherence and RNG stream "
                            "accounting); figures are byte-identical and any "
                            "violation fails the run")

    p_static = sub.add_parser("static", help="Figures 7-8 (static convergence)")
    add_world_args(p_static)
    p_static.add_argument("--steps", type=int, default=10,
                          help="ACE optimization steps")
    p_static.add_argument("--depth", type=int, default=1,
                          help="h-neighbor closure depth")
    p_static.add_argument("--samples", type=int, default=16,
                          help="query samples per measurement")

    p_dyn = sub.add_parser("dynamic", help="Figures 9-10 (churning system)")
    add_world_args(p_dyn, degree=8.0)
    p_dyn.add_argument("--queries", type=int, default=600,
                       help="total queries to simulate")
    p_dyn.add_argument("--windows", type=int, default=6,
                       help="number of reporting windows")
    p_dyn.add_argument("--no-ace", action="store_true",
                       help="run the Gnutella-like arm only")
    p_dyn.add_argument("--cache", action="store_true",
                       help="also run the ACE + index cache arm")

    p_depth = sub.add_parser("depth", help="Figures 11-16 (depth sweep)")
    add_world_args(p_depth, peers=96)
    p_depth.add_argument("--degrees", type=int, nargs="+", default=[4, 10],
                         help="average-degree values to sweep")
    p_depth.add_argument("--depths", type=int, nargs="+", default=[1, 2, 3],
                         help="closure depths to sweep")
    p_depth.add_argument("--steps", type=int, default=6,
                         help="convergence steps per configuration")

    p_walk = sub.add_parser("walkthrough", help="Tables 1-2 (worked example)")
    p_walk.add_argument("--depth", type=int, default=None,
                        help="closure depth (omit for blind flooding)")
    p_walk.add_argument("--source", default="F", help="query source peer")
    p_walk.add_argument("--perf", action="store_true",
                        help="print engine perf counters after the run")

    p_topo = sub.add_parser("topology", help="Section 4.1 validation")
    add_world_args(p_topo, peers=200)
    p_topo.add_argument("--underlay", default="ba",
                        choices=["ba", "waxman", "glp", "ws"])
    p_topo.add_argument("--overlay", dest="overlay_kind", default="small_world",
                        choices=["random", "power_law", "small_world"])

    p_fig = sub.add_parser(
        "figures", help="every paper table and figure, with shape checks")
    p_fig.add_argument("names", nargs="*", type=_figure_name, metavar="NAME",
                       help="rows to run (default: all); REPRO_SCALE and "
                            "REPRO_WORKERS set scale and fan-out")

    p_net = sub.add_parser(
        "net", help="live asyncio network runtime (see docs/NETWORK.md)")
    add_world_args(p_net, peers=8, degree=4.0)
    p_net.add_argument("--steps", type=int, default=2,
                       help="ACE optimization steps over the live fleet")
    p_net.add_argument("--queries", type=int, default=6,
                       help="queries in the live workload")
    p_net.add_argument("--discipline", default="lockstep",
                       choices=["lockstep", "realtime"],
                       help="delivery discipline: 'lockstep' replays the "
                            "simulator's event order exactly; 'realtime' "
                            "delivers at wall-clock deadlines")
    p_net.add_argument("--latency-scale", type=float, default=0.0,
                       help="seconds per cost unit of injected latency "
                            "(realtime discipline only)")
    p_net.add_argument("--kill", type=int, default=None, metavar="PEER",
                       help="kill this peer's sockets after the first query "
                            "(degradation drill)")
    p_net.add_argument("--post-kill-steps", type=int, default=1,
                       help="extra ACE steps after the kill (exercises the "
                            "retry/dead-marking path)")
    p_net.add_argument("--check", action="store_true",
                       help="also run the discrete-event simulator on the "
                            "same scenario and fail unless the live run "
                            "matches it exactly")
    p_net.add_argument("--expect-hits", action="store_true",
                       help="fail unless the workload produced QueryHits")
    return parser


def _scenario_config(args, overrides=None):
    from .experiments.setup import ScenarioConfig

    physical = args.physical_nodes or max(8 * args.peers, 400)
    kwargs = dict(
        physical_nodes=physical,
        peers=args.peers,
        avg_degree=args.degree,
        seed=args.seed,
        oracle=getattr(args, "oracle", "exact"),
    )
    kwargs.update(overrides or {})
    return ScenarioConfig(**kwargs)


def _cmd_static(args, out) -> int:
    from .core.ace import AceConfig
    from .experiments.reporting import format_series
    from .experiments.setup import build_scenario
    from .experiments.static_env import run_static_experiment

    scenario = build_scenario(_scenario_config(args))
    series = run_static_experiment(
        scenario,
        steps=args.steps,
        ace_config=AceConfig(depth=args.depth),
        query_samples=args.samples,
    )
    print(format_series(
        "step", series.steps,
        {
            "traffic/query": [round(t) for t in series.traffic_per_query],
            "response": [round(t) for t in series.response_time],
            "scope": series.search_scope,
        },
        title=f"Static convergence (peers={args.peers}, C={args.degree:g}, "
              f"h={args.depth})",
    ), file=out)
    print(f"traffic reduction: {series.traffic_reduction_percent:.1f}%  "
          f"response reduction: {series.response_reduction_percent:.1f}%",
          file=out)
    if args.json_path:
        from .experiments.results_io import save_result

        save_result(series, args.json_path,
                    metadata={"command": "static", "seed": args.seed})
        print(f"wrote {args.json_path}", file=out)
    return 0


def _cmd_dynamic(args, out) -> int:
    from .experiments.dynamic_env import DynamicConfig, run_dynamic_trials
    from .experiments.reporting import format_series

    window = max(1, args.queries // args.windows)
    total = window * args.windows
    arms = [("gnutella", dict(enable_ace=False))]
    if not args.no_ace:
        arms.append(("ace", dict(enable_ace=True)))
        if args.cache:
            arms.append(("ace+cache", dict(enable_ace=True, enable_cache=True)))
    # Independent arms fan out over REPRO_WORKERS processes; each worker
    # builds its own world and its perf counters are merged, so --perf
    # reports the whole fleet.  Results are identical to serial.
    series_list = run_dynamic_trials([
        (_scenario_config(args),
         DynamicConfig(total_queries=total, window=window, **kwargs))
        for _, kwargs in arms
    ])
    results = {name: series for (name, _), series in zip(arms, series_list)}
    x = list(range(1, args.windows + 1))
    print(format_series(
        f"queries (x{window})", x,
        {n: [round(p) for p in s.traffic_points] for n, s in results.items()},
        title="Avg traffic cost per query (ACE overhead included)",
    ), file=out)
    print(file=out)
    print(format_series(
        f"queries (x{window})", x,
        {n: [round(p) for p in s.response_points] for n, s in results.items()},
        title="Avg response time per query",
    ), file=out)
    if args.json_path:
        from .experiments.results_io import save_result

        primary = results.get("ace", results["gnutella"])
        save_result(primary, args.json_path,
                    metadata={"command": "dynamic", "seed": args.seed})
        print(f"wrote {args.json_path}", file=out)
    return 0


def _cmd_depth(args, out) -> int:
    from .experiments.depth_sweep import DepthSweepConfig, run_depth_sweep
    from .experiments.opt_rate import REPRO_R_VALUES, minimal_depths_table
    from .experiments.reporting import format_series, format_table

    sweep = run_depth_sweep(DepthSweepConfig(
        degrees=tuple(args.degrees),
        depths=tuple(args.depths),
        convergence_steps=args.steps,
        query_samples=12,
        base=_scenario_config(args),
    ))
    print(format_series(
        "h", list(args.depths),
        {
            f"C={c} reduction %": [
                round(t.reduction_percent, 1) for t in sweep.for_degree(c)
            ]
            for c in args.degrees
        },
        title="Query traffic reduction (Figure 11)",
    ), file=out)
    print(file=out)
    print(format_series(
        "h", list(args.depths),
        {
            f"C={c} overhead": [
                round(t.overhead_per_reconstruction)
                for t in sweep.for_degree(c)
            ]
            for c in args.degrees
        },
        title="Overhead per optimization round (Figure 12)",
    ), file=out)
    minima = minimal_depths_table(sweep, REPRO_R_VALUES)
    print(file=out)
    print(format_table(
        ["R", *(f"C={c} min h" for c in args.degrees)],
        [[f"{r:g}", *(minima[c][r] for c in args.degrees)]
         for r in REPRO_R_VALUES],
        title="Minimal depth with optimization rate > 1 (Figures 13-16)",
    ), file=out)
    if args.json_path:
        from .experiments.results_io import save_result

        save_result(sweep, args.json_path,
                    metadata={"command": "depth", "seed": args.seed})
        print(f"wrote {args.json_path}", file=out)
    return 0


def _cmd_walkthrough(args, out) -> int:
    from .experiments.paper_example import run_walkthrough
    from .experiments.reporting import format_table

    walk = run_walkthrough(args.depth, source=args.source)
    print(format_table(
        ["from", "to", "cost"], walk.rows(),
        title=f"{walk.scheme} from {walk.source}",
    ), file=out)
    print(f"total cost: {walk.total_cost:.0f}  messages: {walk.messages}  "
          f"duplicates: {walk.duplicate_messages}  "
          f"reached: {len(walk.reached)}", file=out)
    return 0


def _cmd_topology(args, out) -> int:
    from .experiments.setup import build_scenario
    from .topology.properties import analyze

    config = _scenario_config(
        args, overrides=dict(underlay=args.underlay,
                             overlay_kind=args.overlay_kind)
    )
    scenario = build_scenario(config)
    print(f"underlay ({args.underlay}): "
          f"{analyze(scenario.physical, samples=48).summary()}", file=out)
    print(f"overlay ({args.overlay_kind}): "
          f"{analyze(scenario.overlay, samples=96).summary()}", file=out)
    return 0


def _cmd_figures(args, out) -> int:
    from .experiments.figures import run_figures

    return run_figures(args.names, out)


def _cmd_net(args, out) -> int:
    from .core.ace import AceConfig
    from .experiments.reporting import format_table
    from .experiments.setup import build_scenario
    from .net.launch import (
        compare_runs,
        plan_queries,
        run_live,
        run_sim_reference,
    )
    from .net.runtime import NetConfig

    ace = AceConfig()
    net = NetConfig(
        discipline=args.discipline, latency_scale=args.latency_scale
    )
    # One scenario for plan, live run and reference: compare_runs is exact
    # only over one host-pair cost cache (dist[u][v] and dist[v][u] can
    # differ in the last ulp, and the two runs fault costs in from
    # different ends).
    scenario = build_scenario(_scenario_config(args))
    plan = plan_queries(scenario, args.queries)
    live = run_live(
        scenario, ace,
        steps=args.steps, plan=plan, net=net,
        kill_peer=args.kill, kill_after_query=0,
        post_kill_steps=args.post_kill_steps if args.kill is not None else 0,
    )
    rows = []
    for i, q in enumerate(live.queries):
        if q.get("skipped"):
            rows.append([i, q["source"], "-", "-", "-", "-", "skipped"])
            continue
        rows.append([
            i, q["source"], q["query_messages"],
            round(q["query_traffic"]), len(q["responders"]),
            "-" if q["first_response_time"] is None
            else round(q["first_response_time"]),
            "ok" if q["drained"] else "late",
        ])
    print(format_table(
        ["#", "source", "msgs", "traffic", "hits", "response", "drain"],
        rows,
        title=f"Live query workload ({args.discipline}, "
              f"{args.peers} peers, {args.steps} ACE steps)",
    ), file=out)
    print(f"wire: {live.messages_sent} frames, {live.bytes_sent} bytes, "
          f"{live.connections} connections, {live.retries} retries, "
          f"{live.lost_frames} lost frames", file=out)
    if live.dead:
        print(f"dead peers: {live.dead}", file=out)
    for step, peer, error in live.turn_errors:
        print(f"TURN FAILED peer {peer} step {step}: {error}", file=out)
    code = 0
    if args.check:
        ref = run_sim_reference(scenario, ace, args.steps, plan)
        problems = compare_runs(
            live, ref, check_queries=(args.discipline == "lockstep")
        )
        if args.kill is not None:
            print("check: skipped (kill runs diverge by design)", file=out)
        elif problems:
            for p in problems:
                print(f"MISMATCH {p}", file=out)
            code = 4
        else:
            print("check: live run matches the simulation exactly", file=out)
        if live.turn_errors:
            code = 4
    if args.expect_hits and live.total_hits == 0:
        print("FAIL: no QueryHits received", file=out)
        code = code or 5
    return code


_COMMANDS = {
    "static": _cmd_static,
    "dynamic": _cmd_dynamic,
    "depth": _cmd_depth,
    "walkthrough": _cmd_walkthrough,
    "topology": _cmd_topology,
    "figures": _cmd_figures,
    "net": _cmd_net,
}


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    from .perf import counters

    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    counters.reset()
    if getattr(args, "sanitize", False):
        import os

        # Worker processes re-read the knob from the environment, so the
        # sanitizer reaches spawned trial workers too.
        os.environ["REPRO_SANITIZE"] = "1"
    from .sanitize import maybe_install, report, violation_count

    maybe_install()
    code = _COMMANDS[args.command](args, out)
    if getattr(args, "perf", False):
        print(counters.format(), file=out)
    if violation_count():
        # Violations go to stderr so the metrics stream on *out* stays
        # byte-identical to an unsanitized run.
        report(sys.stderr)
        return code or 3
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
