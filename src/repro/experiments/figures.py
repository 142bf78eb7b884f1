"""The paper's evaluation as one table: every figure, table and ablation.

Each :class:`Figure` row regenerates one of the paper's tables or figures,
or an ablation or sensitivity study around them.  A row names the claim it
checks, produces its measurements, renders them as text tables with
:mod:`~repro.experiments.reporting` and asserts the claim's shape with its
predicates: ``assert`` statements run against the names the producer
returns.  ``python -m repro figures [NAME ...]`` prints every row (or the
named ones) and exits non-zero naming each predicate that fails;
``tests/experiments/test_figures.py`` asserts the rows that are cheap at
laptop scale.

Scale: laptop-sized by default (~160 peers on a ~1,200-node underlay; the
paper uses 8,000 peers on 20,000 nodes).  ``REPRO_SCALE`` grows every
scenario, and ``REPRO_WORKERS`` fans the static trials, the dynamic arms
and the depth sweep over processes; the printed text is the same at any
worker count.  Those three inputs feed several rows each and are computed
at most once per process.
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Any, Callable, Dict, List, Sequence, TextIO, Tuple

import numpy as np

from ..core.ace import AceConfig, AceProtocol
from ..core.adaptive_depth import AdaptiveAceProtocol, DepthAdvisor
from ..extensions.aoto import AotoProtocol
from ..extensions.gia import GiaAdaptation, assign_capacities
from ..extensions.hpf import hpf_strategy
from ..extensions.ltm import LtmProtocol
from ..metrics.collector import left_fold
from ..search.batch import propagate_many, run_queries
from ..search.expanding_ring import expanding_ring_query
from ..search.flooding import blind_flooding_strategy, propagate
from ..search.random_walk import random_walk_query
from ..search.tree_routing import ace_strategy
from ..sim.churn import ChurnConfig
from ..topology.autonomous_systems import as_traffic_report, transit_stub
from ..topology.overlay import small_world_overlay, synthesize_gnutella_snapshot
from ..topology.properties import analyze, clustering_coefficient
from ..topology.supernode import build_two_tier, two_tier_query
from .depth_sweep import DepthSweepConfig, run_depth_sweep
from .dynamic_env import DynamicConfig, run_dynamic_experiment, run_dynamic_trials
from .opt_rate import (
    REPRO_R_VALUES,
    minimal_depths_table,
    rate_vs_depth,
    rate_vs_frequency_ratio,
)
from .paper_example import run_walkthrough
from .reporting import format_series, format_table
from .setup import ScenarioConfig, build_scenario
from .static_env import run_static_trials

__all__ = ["Figure", "FIGURES", "run_figures"]

#: Average-neighbor counts swept in Figures 7, 8, 11 and 12.
DEGREES = (4, 6, 8, 10)
#: Closure depths swept in Figures 11-16.
DEPTHS = (1, 2, 3, 4, 5, 6)

BASE = ScenarioConfig(physical_nodes=1200, peers=160, seed=42).scaled()
DYNAMIC_BASE = ScenarioConfig(
    physical_nodes=1200, peers=160, avg_degree=8, seed=42
).scaled()

Values = Dict[str, Any]


@dataclass(frozen=True)
class Figure:
    """One row: a paper claim, its measurements, their text and their shape."""

    name: str
    claim: str
    produce: Callable[[], Values]
    render: Callable[[Values], List[str]]
    predicates: Tuple[str, ...]

    def failures(self, values: Values) -> List[str]:
        """The predicates that do not hold on *values*, as their assert lines."""
        failed = []
        for predicate in self.predicates:
            # optimize=0 keeps the asserts under ``python -O``.
            code = compile(textwrap.dedent(predicate), f"<figure {self.name}>", "exec",
                           optimize=0)
            try:
                exec(code, {"DEGREES": DEGREES, "DEPTHS": DEPTHS,
                            "REPRO_R_VALUES": REPRO_R_VALUES, **values})
            except AssertionError:
                failed.append(next(line.strip() for line in predicate.splitlines()
                                   if line.strip().startswith("assert")))
        return failed


def run_figures(names: Sequence[str], out: TextIO) -> int:
    """Print the named rows (every row if none) and check their predicates.

    Returns 1 if any predicate fails, naming the row and predicate of
    each failure, else 0.
    """
    failed = 0
    for row in FIGURES:
        if names and row.name not in names:
            continue
        print(f"== {row.name}: {row.claim}", file=out)
        values = row.produce()
        for block in row.render(values):
            print(file=out)
            print(block, file=out)
        for predicate in row.failures(values):
            failed += 1
            print(f"FAILED {row.name}: {predicate}", file=out)
    if failed:
        print(f"figures: {failed} predicate(s) failed", file=out)
    return 1 if failed else 0


# -- the three shared inputs --------------------------------------------------


@lru_cache(maxsize=None)
def _static_series():
    """Figure 7/8 series: one static convergence run per average degree."""
    configs = [replace(BASE, avg_degree=float(degree)) for degree in DEGREES]
    return dict(zip(DEGREES, run_static_trials(configs, steps=10, query_samples=16)))


@lru_cache(maxsize=None)
def _depth_sweep():
    """Figure 11-16 input: the (C, h) trade-off sweep."""
    return run_depth_sweep(
        DepthSweepConfig(
            degrees=DEGREES,
            depths=DEPTHS,
            convergence_steps=8,
            query_samples=16,
            base=BASE,
        )
    )


@lru_cache(maxsize=None)
def _dynamic_arms():
    """Figure 9/10 arms: Gnutella-like, ACE, and ACE + index cache."""
    # Keep the query budget an exact multiple of the window so no partial
    # final window concentrates the amortized overhead.
    window = max(150, DYNAMIC_BASE.peers)
    names_kwargs = (
        ("gnutella", dict(enable_ace=False)),
        ("ace", dict(enable_ace=True)),
        ("ace+cache", dict(enable_ace=True, enable_cache=True)),
    )
    results = run_dynamic_trials([
        (DYNAMIC_BASE, DynamicConfig(total_queries=6 * window, window=window, **kwargs))
        for _, kwargs in names_kwargs
    ])
    return {name: series for (name, _), series in zip(names_kwargs, results)}


# -- shared helpers -----------------------------------------------------------


def _traffic(overlay, strategy, sources) -> float:
    """Mean unbounded-TTL traffic of one query from each of *sources*."""
    stats = run_queries(overlay, strategy, [(s, ()) for s in sources], ttl=None)
    return left_fold(r.traffic_cost for r in stats) / len(sources)


def _ablation_world():
    """The ablations' scenario, 16 seeded query sources and their baseline."""
    scenario = build_scenario(BASE)
    peers = scenario.overlay.peers()
    src_rng = np.random.default_rng(1)
    sources = [peers[int(i)] for i in src_rng.integers(0, len(peers), 16)]
    overlay = scenario.overlay
    return scenario, sources, _traffic(overlay, blind_flooding_strategy(overlay), sources)


def _steady(points) -> float:
    """Mean of the second half of a windowed series."""
    tail = points[max(1, len(points) // 2):]
    return left_fold(tail) / len(tail)


# -- Tables 1-2, Section 4.1 and Figures 7-8 ----------------------------------


def _walkthroughs() -> Values:
    walks = {"blind": run_walkthrough(None), "h1": run_walkthrough(1),
             "h2": run_walkthrough(2)}
    return dict(walks=walks, blind=walks["blind"], h1=walks["h1"], h2=walks["h2"])


def _render_walkthroughs(v: Values) -> List[str]:
    walks = v["walks"].values()
    return [
        *(
            format_table(
                ["from", "to", "cost"],
                [(frm, to, cost) for frm, to, cost in walk.rows()],
                title=(
                    f"{walk.scheme}: total={walk.total_cost:.0f} "
                    f"messages={walk.messages} duplicates={walk.duplicate_messages}"
                ),
            )
            for walk in walks
        ),
        format_table(
            ["scheme", "total cost", "messages", "duplicates"],
            [(w.scheme, w.total_cost, w.messages, w.duplicate_messages) for w in walks],
            title="Tables 1-2 summary (paper: unnecessary messages 3 -> 1 -> 0)",
        ),
    ]


def _topologies() -> Values:
    scenario = build_scenario(BASE)
    underlay = analyze(scenario.physical, samples=48)
    overlay = analyze(scenario.overlay, samples=96)
    snapshot = synthesize_gnutella_snapshot(
        scenario.physical, n_peers=BASE.peers, rng=np.random.default_rng(BASE.seed)
    )
    return dict(underlay=underlay, overlay=overlay, trace=analyze(snapshot, samples=96))


def _render_topologies(v: Values) -> List[str]:
    rows = [
        [name, t.num_nodes, round(t.average_degree, 2), round(t.power_law_alpha, 2),
         round(t.clustering, 3), round(t.path_length, 2), round(t.small_world_sigma, 2)]
        for name, t in (("BA underlay", v["underlay"]),
                        ("small-world overlay", v["overlay"]),
                        ("Clip2-style snapshot", v["trace"]))
    ]
    return [format_table(["topology", "n", "<k>", "alpha", "C", "L", "sigma"], rows,
                         title="Section 4.1: power-law / small-world validation")]


def _render_convergence(metric, label, summary, titles, v: Values) -> List[str]:
    """Figures 7 and 8: one curve per C over the steps, then its reduction."""
    series = v["series"]
    return [
        format_series(
            "step",
            series[DEGREES[0]].steps,
            {f"C={c} {label}": [round(t) for t in getattr(series[c], metric)]
             for c in DEGREES},
            title=titles[0],
        ),
        format_series(
            "C",
            list(DEGREES),
            {f"{summary} reduction %": [
                round(getattr(series[c], f"{summary}_reduction_percent"), 1)
                for c in DEGREES
            ]},
            title=titles[1],
        ),
    ]


# -- Figures 9-10 and the Section 5.2 index-caching claim ---------------------


def _steady_arms(points: str) -> Values:
    arms = _dynamic_arms()
    return dict(arms=arms, ace=arms["ace"], g_steady=_steady(getattr(arms["gnutella"], points)),
                a_steady=_steady(getattr(arms["ace"], points)))


def _render_dynamic(points, title, figure, metric, paper, v: Values) -> List[str]:
    """Figures 9 and 10: every arm's windowed series, then the steady gap."""
    arms = v["arms"]
    reduction = 100.0 * (v["g_steady"] - v["a_steady"]) / v["g_steady"]
    return [
        format_series(
            f"queries (x{arms['gnutella'].window})",
            list(range(1, len(getattr(arms["gnutella"], points)) + 1)),
            {name: [round(p) for p in getattr(s, points)] for name, s in arms.items()},
            title=title,
        ),
        f"Figure {figure} steady-state {metric} reduction: {reduction:.1f}% "
        f"(paper: {paper})",
    ]


def _index_caching() -> Values:
    arms = _dynamic_arms()
    g_t, a_t, c_t = (_steady(arms[k].traffic_points) for k in ("gnutella", "ace", "ace+cache"))
    g_r, a_r, c_r = (_steady(arms[k].response_points) for k in ("gnutella", "ace", "ace+cache"))
    return dict(g_t=g_t, a_t=a_t, c_t=c_t, g_r=g_r, a_r=a_r, c_r=c_r)


def _render_index_caching(v: Values) -> List[str]:
    g_t, g_r = v["g_t"], v["g_r"]
    rows = [["gnutella-like", round(g_t), 0.0, round(g_r), 0.0]] + [
        [name, round(t), round(100 * (g_t - t) / g_t, 1),
         round(r), round(100 * (g_r - r) / g_r, 1)]
        for name, t, r in (("ace", v["a_t"], v["a_r"]),
                           ("ace + 100-item cache", v["c_t"], v["c_r"]))
    ]
    return [format_table(
        ["scheme", "traffic/query", "traffic red. %", "response", "response red. %"],
        rows,
        title=("Section 5.2: index caching on top of ACE "
               "(paper: 75% traffic / 70% response reduction)"),
    )]


# -- Figures 11-16: the depth sweep and the optimization rate -----------------


def _render_depth(label, value, title, v: Values) -> List[str]:
    """Figures 11 and 12: one curve per C over the closure depth h."""
    sweep = v["sweep"]
    return [format_series(
        "h",
        list(DEPTHS),
        {f"C={c} {label}": [value(t) for t in sweep.for_degree(c)] for c in DEGREES},
        title=title,
    )]


def _rates(degree: int, by_depth: bool) -> Values:
    sweep = _depth_sweep()
    if by_depth:
        series = rate_vs_depth(sweep, degree, REPRO_R_VALUES)
    else:
        series = rate_vs_frequency_ratio(sweep, degree, REPRO_R_VALUES, depths=DEPTHS)
    return dict(sweep=sweep, series=series, degree=degree, by_depth=by_depth,
                minima=minimal_depths_table(sweep, REPRO_R_VALUES))


def _render_rates(figure: int, v: Values, with_minima: bool = False) -> List[str]:
    """Figures 13-16: rate vs h (one curve per R) or vs R (one per h)."""
    series = v["series"]
    if v["by_depth"]:
        x_label, curve, axis = "h", "R={:g}", "depth h"
        xs = [h for h, _ in series[REPRO_R_VALUES[0]]]
    else:
        x_label, curve, axis = "R", "h={}", "frequency ratio R"
        xs = [f"{r:g}" for r in REPRO_R_VALUES]
    blocks = [format_series(
        x_label,
        xs,
        {curve.format(k): [round(rate, 3) for _x, rate in points]
         for k, points in series.items()},
        title=f"Figure {figure}: optimization rate vs {axis} (C={v['degree']})",
    )]
    if with_minima:
        minima = v["minima"]
        blocks.append(format_table(
            ["", *(f"C={c} min h" for c in sorted(minima))],
            [[f"R={r:g}"] + [minima[c].get(r) for c in sorted(minima)]
             for r in REPRO_R_VALUES],
            title=("Figures 13-14 minimal depth for gain "
                   "(paper: smaller for larger C; none at R=1)"),
        ))
    return blocks


def _adaptive_depth() -> Values:
    steps = 6
    advisor = DepthAdvisor(_depth_sweep().for_degree(8))
    recommendations = [
        (r, advisor.recommend(r), advisor.best_depth(r)[1]) for r in REPRO_R_VALUES
    ]
    scenario = build_scenario(BASE)
    sources = scenario.overlay.peers()[:10]
    baseline = _traffic(scenario.overlay, blind_flooding_strategy(scenario.overlay), sources)

    def regime(queries: int, changes: int) -> AdaptiveAceProtocol:
        protocol = AdaptiveAceProtocol(
            scenario.fresh_overlay(), advisor, rng=np.random.default_rng(2)
        )
        for t in range(30):
            protocol.estimator.observe_query(float(t), count=queries)
            protocol.estimator.observe_change(float(t), count=changes)
        protocol.run(steps)
        return protocol

    starved = regime(1, 20)  # churn dominates, R << 1
    heavy = regime(40, 1)  # optimization pays for itself, R >> 1
    heavy_traffic = _traffic(heavy.overlay, ace_strategy(heavy), sources)
    return dict(STEPS=steps, recommendations=recommendations, baseline=baseline,
                starved=starved, heavy=heavy, heavy_traffic=heavy_traffic)


def _render_adaptive_depth(v: Values) -> List[str]:
    starved, heavy = v["starved"], v["heavy"]
    return [
        format_table(
            ["R", "recommended h", "best rate"],
            [(f"{r:g}", h, round(rate, 3)) for r, h, rate in v["recommendations"]],
            title="Depth advisor recommendations from the measured sweep (C=8)",
        ),
        format_table(
            ["regime", "parked steps", "depths used", "traffic/query"],
            [
                ["query-starved (R<<1)", starved.parked_steps,
                 str(starved.depth_history or "-"), round(v["baseline"])],
                ["query-heavy (R>>1)", heavy.parked_steps,
                 str(heavy.depth_history), round(v["heavy_traffic"])],
            ],
            title=("Adaptive ACE under two regimes "
                   f"(blind-flooding baseline {v['baseline']:.0f})"),
        ),
    ]


# -- Section 1-2 claims: AS locality, search schemes, supernodes, Gia ---------


def _as_locality() -> Values:
    rng = np.random.default_rng(13)
    topo, labels = transit_stub(transit_nodes=14, stubs_per_transit=3, stub_size=12, rng=rng)
    overlay = small_world_overlay(topo, 144, avg_degree=8, rng=rng)
    sources = overlay.peers()[:8]

    def snapshot(strategy):
        traffic = 0.0
        inter_frac = 0.0
        batch = propagate_many(overlay, sources, strategy, ttl=None)
        for i in range(len(sources)):
            prop = batch.result(i)
            traffic += prop.traffic_cost
            inter_frac += as_traffic_report(labels, overlay, prop).inter_traffic_fraction
        return (as_traffic_report(labels, overlay).intra_link_fraction,
                traffic / len(sources), inter_frac / len(sources))

    before = snapshot(blind_flooding_strategy(overlay))
    protocol = AceProtocol(overlay, rng=rng)
    protocol.run(8)
    return dict(before=before, after=snapshot(ace_strategy(protocol)))


def _render_as_locality(v: Values) -> List[str]:
    rows = [
        [name, round(100 * snap[0], 1), round(snap[1]), round(100 * snap[2], 1)]
        for name, snap in (("random Gnutella-like", v["before"]),
                           ("after 8 ACE steps", v["after"]))
    ]
    return [format_table(
        ["overlay", "intra-AS links %", "traffic/query", "inter-AS traffic %"],
        rows,
        title=("Section 1 motivation: AS locality of connections/traffic "
               "(paper: 2-5% of Gnutella links stay inside one AS)"),
    )]


def _measure_schemes(overlay, catalog, base_strategy, n_queries=12) -> Dict[str, float]:
    peers = overlay.peers()
    rng = np.random.default_rng(5)
    out = {"flooding": 0.0, "random walk": 0.0, "expanding ring": 0.0, "hpf": 0.0}
    for i, si in enumerate(rng.integers(0, len(peers), n_queries)):
        source = peers[int(si)]
        obj = catalog.sample_object(rng)
        holders = catalog.holders_of(obj)
        (flood,) = run_queries(overlay, base_strategy, [(source, holders)], ttl=None)
        out["flooding"] += flood.traffic_cost
        out["random walk"] += random_walk_query(
            overlay, source, holders, rng, walkers=4, max_hops=48
        ).traffic_cost
        out["expanding ring"] += expanding_ring_query(
            overlay, source, base_strategy, holders
        ).traffic_cost
        # HPF draws each relay's subset as it settles: no graph to compile,
        # so its column runs on the heap engine.
        hpf = hpf_strategy(overlay, np.random.default_rng(1000 + i), fraction=0.5)
        out["hpf"] += propagate(overlay, source, hpf, ttl=None).traffic_cost
    return {k: v / n_queries for k, v in out.items()}


def _search_schemes() -> Values:
    scenario = build_scenario(BASE)
    overlay, catalog = scenario.overlay, scenario.catalog
    before = _measure_schemes(overlay, catalog, blind_flooding_strategy(overlay))
    protocol = AceProtocol(overlay, rng=np.random.default_rng(6))
    protocol.run(8)
    return dict(before=before, after=_measure_schemes(overlay, catalog, ace_strategy(protocol)))


def _render_search_schemes(v: Values) -> List[str]:
    before, after = v["before"], v["after"]
    rows = [
        [scheme, round(before[scheme]), round(after[scheme]),
         round(100 * (before[scheme] - after[scheme]) / before[scheme], 1)]
        for scheme in before
    ]
    return [format_table(
        ["search scheme", "mismatched overlay", "after ACE", "reduction %"],
        rows,
        title=("Section 2 claim: every search scheme improves once the "
               "mismatch is repaired"),
    )]


def _supernode_tier() -> Values:
    n_queries = 10
    scenario = build_scenario(BASE)
    flat = scenario.overlay
    flat_traffic = _traffic(flat, blind_flooding_strategy(flat), flat.peers()[:n_queries])
    # Two-tier KaZaA-like system on the same underlay and population.
    tt = build_two_tier(scenario.physical, scenario.config.peers, supernode_fraction=0.25,
                        rng=np.random.default_rng(17))
    leaves = sorted(tt.leaf_parent)[:n_queries]
    super_traffic = left_fold(
        two_tier_query(tt, s, holders=[]).traffic_cost for s in leaves
    ) / n_queries
    protocol = AceProtocol(tt.backbone, rng=np.random.default_rng(18))
    protocol.run(6)
    strategy = ace_strategy(protocol)
    ace_traffic = left_fold(
        two_tier_query(tt, s, holders=[], strategy=strategy).traffic_cost for s in leaves
    ) / n_queries
    return dict(flat=flat_traffic, supernode=super_traffic, ace=ace_traffic,
                coverage=two_tier_query(tt, leaves[0], holders=[], strategy=strategy),
                n_peers=scenario.config.peers)


def _render_supernode_tier(v: Values) -> List[str]:
    flat = v["flat"]
    rows = [["flat blind flooding", round(flat), 0.0]] + [
        [name, round(t), round(100 * (flat - t) / flat, 1)]
        for name, t in (("supernode tier", v["supernode"]),
                        ("supernode tier + ACE (6 steps)", v["ace"]))
    ]
    return [format_table(
        ["system", "traffic/query", "reduction vs flat %"],
        rows,
        title="KaZaA-like two-tier system (full peer coverage throughout)",
    )]


def _gia_vs_ace() -> Values:
    steps = 6
    scenario = build_scenario(BASE)
    capacities = assign_capacities(scenario.overlay.peers(), np.random.default_rng(23))
    sources = scenario.overlay.peers()[:10]

    def snapshot(overlay, strategy):
        gia_probe = GiaAdaptation(overlay, capacities=dict(capacities),
                                  rng=np.random.default_rng(0))
        return (gia_probe.capacity_degree_correlation(),
                overlay.total_edge_cost() / max(1, overlay.num_edges),
                _traffic(overlay, strategy, [s for s in sources if overlay.has_peer(s)]))

    baseline = snapshot(scenario.overlay, blind_flooding_strategy(scenario.overlay))
    gia_overlay = scenario.fresh_overlay()
    GiaAdaptation(gia_overlay, capacities=dict(capacities),
                  rng=np.random.default_rng(24)).run(steps)
    ace_overlay = scenario.fresh_overlay()
    protocol = AceProtocol(ace_overlay, rng=np.random.default_rng(24))
    protocol.run(steps)
    return dict(STEPS=steps, baseline=baseline,
                gia_snap=snapshot(gia_overlay, blind_flooding_strategy(gia_overlay)),
                ace_snap=snapshot(ace_overlay, ace_strategy(protocol)))


def _render_gia_vs_ace(v: Values) -> List[str]:
    rows = [
        [name, round(snap[0], 3), round(snap[1]), round(snap[2])]
        for name, snap in (("unoptimized", v["baseline"]),
                           (f"gia ({v['STEPS']} rounds)", v["gia_snap"]),
                           (f"ace ({v['STEPS']} rounds)", v["ace_snap"]))
    ]
    return [format_table(
        ["scheme", "capacity-degree corr", "avg link cost", "traffic/query"],
        rows,
        title=("Section 2: Gia fixes capacity matching, ACE fixes topology "
               "mismatching — different problems"),
    )]


# -- ablations and sensitivity studies ----------------------------------------


def _aoto_vs_ace() -> Values:
    steps = 8
    scenario, sources, baseline = _ablation_world()
    results = {"blind flooding": baseline}
    for name, protocol_class in (("ace", AceProtocol), ("aoto", AotoProtocol)):
        ov = scenario.fresh_overlay()
        protocol = protocol_class(ov, rng=np.random.default_rng(2))
        protocol.run(steps)
        results[name] = _traffic(ov, ace_strategy(protocol), sources)
    ov = scenario.fresh_overlay()
    LtmProtocol(ov, rng=np.random.default_rng(2)).run(steps)
    results["ltm"] = _traffic(ov, blind_flooding_strategy(ov), sources)
    return dict(baseline=baseline, results=results)


def _render_aoto_vs_ace(v: Values) -> List[str]:
    return [format_table(
        ["scheme", "traffic/query", "reduction %"],
        [[name, round(traffic), round(100 * (v["baseline"] - traffic) / v["baseline"], 1)]
         for name, traffic in v["results"].items()],
        title="Ablation: ACE vs AOTO vs LTM after 8 rounds",
    )]


def _policies() -> Values:
    scenario, sources, baseline = _ablation_world()
    results = {}
    for policy in ("random", "closest", "naive"):
        ov = scenario.fresh_overlay()
        protocol = AceProtocol(ov, AceConfig(policy=policy), rng=np.random.default_rng(3))
        reports = protocol.run(8)
        results[policy] = (
            _traffic(ov, ace_strategy(protocol), sources),
            left_fold(r.replacement_probe_overhead for r in reports),
            sum(r.probes for r in reports),
        )
    return dict(baseline=baseline, results=results)


def _render_policies(v: Values) -> List[str]:
    baseline = v["baseline"]
    rows = [
        [policy, round(traffic), round(100 * (baseline - traffic) / baseline, 1),
         round(probe_cost), probes]
        for policy, (traffic, probe_cost, probes) in v["results"].items()
    ]
    return [format_table(
        ["policy", "traffic/query", "reduction %", "probe overhead", "probes"],
        rows,
        title=("Ablation: Phase-3 candidate policies after 8 rounds "
               f"(blind flooding baseline {baseline:.0f})"),
    )]


def _shedding() -> Values:
    scenario, sources, baseline = _ablation_world()
    results = {}
    for name, config in (
        ("full ace", AceConfig()),
        ("no shedding", AceConfig(shed_redundant=False)),
        ("no keep-both", AceConfig(allow_keep_both=False)),
        ("swap only", AceConfig(allow_keep_both=False, shed_redundant=False)),
    ):
        ov = scenario.fresh_overlay()
        protocol = AceProtocol(ov, config, rng=np.random.default_rng(5))
        protocol.run(8)
        results[name] = (_traffic(ov, ace_strategy(protocol), sources), ov.average_degree())
    return dict(baseline=baseline, results=results,
                initial_degree=scenario.overlay.average_degree())


def _render_shedding(v: Values) -> List[str]:
    baseline = v["baseline"]
    rows = [
        [name, round(traffic), round(100 * (baseline - traffic) / baseline, 1),
         round(degree, 2)]
        for name, (traffic, degree) in v["results"].items()
    ]
    return [format_table(
        ["config", "traffic/query", "reduction %", "final avg degree"],
        rows,
        title=("Ablation: shedding / keep-both after 8 rounds "
               f"(initial degree {v['initial_degree']:.2f}, "
               f"blind baseline {baseline:.0f})"),
    )]


def _churn() -> Values:
    window = max(120, DYNAMIC_BASE.peers)
    results = {}
    for lifetime in (150.0, 600.0, 2400.0):  # the paper's is 600 s
        arms = {
            name: run_dynamic_experiment(
                build_scenario(DYNAMIC_BASE),
                DynamicConfig(
                    total_queries=5 * window,
                    window=window,
                    enable_ace=enable,
                    churn=ChurnConfig(mean_lifetime=lifetime, std_lifetime=lifetime / 2.0),
                ),
            )
            for name, enable in (("gnutella", False), ("ace", True))
        }
        g = arms["gnutella"].traffic_points[2:]
        a = arms["ace"].traffic_points[2:]
        g_sum, a_sum = left_fold(g), left_fold(a)
        results[lifetime] = (100.0 * (g_sum - a_sum) / g_sum, arms["ace"].departures)
    return dict(results=results, reductions={lt: r for lt, (r, _d) in results.items()})


def _render_churn(v: Values) -> List[str]:
    rows = [
        [f"{lifetime / 60:.1f} min", departures, round(reduction, 1)]
        for lifetime, (reduction, departures) in sorted(v["results"].items())
    ]
    return [format_table(
        ["mean lifetime", "departures (ACE arm)", "ACE traffic reduction %"],
        rows,
        title=("Churn sensitivity: steady-state ACE reduction vs mean "
               "lifetime (paper's setting: 10 min)"),
    )]


def _overlay_kinds() -> Values:
    results = {}
    for kind in ("random", "power_law", "small_world"):
        overlay = build_scenario(replace(BASE, avg_degree=8.0, overlay_kind=kind)).overlay
        sources = overlay.peers()[:10]
        clustering = clustering_coefficient(overlay)
        baseline = _traffic(overlay, blind_flooding_strategy(overlay), sources)
        protocol = AceProtocol(overlay, rng=np.random.default_rng(7))
        protocol.run(8)
        optimized = _traffic(overlay, ace_strategy(protocol), sources)
        results[kind] = (clustering, 100.0 * (baseline - optimized) / baseline)
    return dict(results=results, KINDS=tuple(results))


def _render_overlay_kinds(v: Values) -> List[str]:
    rows = [[kind, round(c, 3), round(r, 1)] for kind, (c, r) in v["results"].items()]
    return [format_table(
        ["overlay family", "clustering", "ACE traffic reduction %"],
        rows,
        title=("Overlay-family sensitivity: ACE needs the clustering real "
               "Gnutella snapshots have"),
    )]


# -- the table ----------------------------------------------------------------

#: Figures 15-16: strictly increasing in R (rate is linear in R) and not
#: profitable at R = 1.
_RATE_VS_R = (
    """
    for h in DEPTHS:
        rates = [rate for _r, rate in series[h]]
        assert all(b > a for a, b in zip(rates, rates[1:]))
    """,
    """
    for h in DEPTHS:
        rates = [rate for _r, rate in series[h]]
        assert rates[0] < 1.0
    """,
)

#: One row per paper table, figure, ablation or sensitivity study, in the
#: order ``repro figures`` prints them.  Comments state what a predicate
#: checks where its assert line does not.
FIGURES: Tuple[Figure, ...] = (
    Figure("table1_table2",
           "Tables 1-2: duplicates 3 -> 1 -> 0 and strictly decreasing total cost",
           _walkthroughs, _render_walkthroughs, (
               "assert h2.total_cost < h1.total_cost < blind.total_cost",
               "assert blind.duplicate_messages > h1.duplicate_messages"
               " > h2.duplicate_messages",
               "assert h2.duplicate_messages == 0",
               "assert blind.reached == h1.reached == h2.reached",
           )),
    Figure("topology_properties",
           "Section 4.1: underlays and overlays are power-law small worlds",
           _topologies, _render_topologies, (
               # Power-law exponents in the measured Internet/Gnutella range.
               "assert 1.5 < underlay.power_law_alpha < 4.0",
               "assert 1.5 < overlay.power_law_alpha < 4.0",
               "assert 1.5 < trace.power_law_alpha < 4.0",
               # Small-world: short paths plus clustering well above random.
               "assert overlay.clustering > 0.1",
               "assert overlay.small_world_sigma > 1.5",
               "assert underlay.small_world_sigma > 1.0",
           )),
    Figure("fig07_traffic_vs_steps",
           "Figure 7: ACE cuts traffic by ~50% and converges in ~10 steps",
           lambda: dict(series=_static_series()),
           partial(_render_convergence, "traffic_per_query", "traffic/query", "traffic", (
               "Figure 7: avg traffic cost per full-coverage query vs ACE steps",
               "Figure 7 summary (paper: ~50% reduction, more for denser overlays)",
           )), (
               # Converged traffic sits below blind flooding, and the search
               # scope is retained at every step.
               """
               for c in DEGREES:
                   s = series[c]
                   assert s.traffic_per_query[-1] < s.traffic_per_query[0]
               """,
               """
               for c in DEGREES:
                   s = series[c]
                   assert all(x == s.search_scope[0] for x in s.search_scope)
               """,
               # Denser overlays benefit more (Figure 7/11 trend).
               "assert series[10].traffic_reduction_percent"
               " > series[4].traffic_reduction_percent",
           )),
    Figure("fig08_response_vs_steps",
           "Figure 8: ACE shortens the response time by ~35% after 10 steps",
           lambda: dict(series=_static_series()),
           partial(_render_convergence, "response_time", "response", "response", (
               "Figure 8: avg response time per query vs ACE steps",
               "Figure 8 summary (paper: ~35% reduction after 10 steps)",
           )), (
               """
               for c in DEGREES:
                   s = series[c]
                   assert s.response_time[-1] < s.response_time[0]
               """,
           )),
    Figure("fig09_dynamic_traffic",
           "Figure 9: under churn ACE cuts traffic, its own overhead included",
           partial(_steady_arms, "traffic_points"),
           partial(_render_dynamic, "traffic_points",
                   "Figure 9: avg traffic cost per query under churn "
                   "(ACE curves include optimization overhead)",
                   9, "traffic", "~50% for a Gnutella-like system"), (
               "assert a_steady < g_steady",
               # Search scope is retained (full coverage both arms).
               "assert all(p > 0.9 for p in ace.success_points)",
           )),
    Figure("fig10_dynamic_response",
           "Figure 10: under churn ACE also shortens the response time",
           partial(_steady_arms, "response_points"),
           partial(_render_dynamic, "response_points",
                   "Figure 10: avg response time per query under churn",
                   10, "response", "~35%"), (
               "assert a_steady < g_steady",
           )),
    Figure("fig11_reduction_vs_depth",
           "Figure 11: reduction grows with h and C and saturates past a threshold h",
           lambda: dict(sweep=_depth_sweep()),
           partial(_render_depth, "reduction %", lambda t: round(t.reduction_percent, 1),
                   "Figure 11: query traffic reduction rate (%) vs closure depth h"), (
               # Reduction is positive everywhere and saturates: the deepest
               # value is (near-)maximal.
               """
               for c in DEGREES:
                   tradeoffs = sweep.for_degree(c)
                   assert all(t.reduction_percent > 0 for t in tradeoffs)
               """,
               """
               for c in DEGREES:
                   tradeoffs = sweep.for_degree(c)
                   best = max(t.reduction_percent for t in tradeoffs)
                   assert tradeoffs[-1].reduction_percent > best - 10.0
               """,
               # Denser overlays reduce more at every depth.
               """
               for h_idx in range(len(DEPTHS)):
                   low = sweep.for_degree(DEGREES[0])[h_idx].reduction_percent
                   high = sweep.for_degree(DEGREES[-1])[h_idx].reduction_percent
                   assert high > low
               """,
           )),
    Figure("fig12_overhead_vs_depth",
           "Figure 12: overhead grows with the closure depth h and with C",
           lambda: dict(sweep=_depth_sweep()),
           partial(_render_depth, "overhead", lambda t: round(t.overhead_per_reconstruction),
                   "Figure 12: overhead traffic per reconstruction round vs depth h"), (
               # Monotone growth from the shallowest to the deepest depth.
               """
               for c in DEGREES:
                   ts = sweep.for_degree(c)
                   assert ts[-1].overhead_per_reconstruction > ts[0].overhead_per_reconstruction
               """,
               # Denser overlays pay more overhead at every depth.
               """
               for h_idx in range(len(DEPTHS)):
                   low = sweep.for_degree(DEGREES[0])[h_idx].overhead_per_reconstruction
                   high = sweep.for_degree(DEGREES[-1])[h_idx].overhead_per_reconstruction
                   assert high > low
               """,
           )),
    Figure("fig13_optrate_vs_depth_c10",
           "Figure 13: for R = 1 the optimization rate is always less than 1",
           partial(_rates, 10, True), partial(_render_rates, 13), (
               "assert all(rate < 1.0 for _h, rate in series[1.0])",
               # Rate is proportional to R: larger R strictly dominates.
               """
               for (h_a, r_small), (h_b, r_big) in zip(
                   series[REPRO_R_VALUES[0]], series[REPRO_R_VALUES[-1]]
               ):
                   assert h_a == h_b
               """,
               """
               for (h_a, r_small), (h_b, r_big) in zip(
                   series[REPRO_R_VALUES[0]], series[REPRO_R_VALUES[-1]]
               ):
                   assert r_big > r_small
               """,
               # Some swept R achieves gain (rate > 1) at some depth.
               "assert any(rate > 1.0 for r in REPRO_R_VALUES for _h, rate in series[r])",
           )),
    Figure("fig14_optrate_vs_depth_c4",
           "Figure 14: a larger C needs a smaller minimal h for gain",
           partial(_rates, 4, True), partial(_render_rates, 14, with_minima=True), (
               "assert all(rate < 1.0 for _h, rate in series[1.0])",
               # Whenever both densities gain at some R, the denser overlay's
               # minimal depth is not larger.
               """
               for r in REPRO_R_VALUES:
                   dense = minima[10][r]
                   sparse = minima[4][r]
                   if dense is not None and sparse is not None:
                       assert dense <= sparse
               """,
           )),
    Figure("fig15_optrate_vs_r_c10",
           "Figure 15: the optimization rate increases significantly with R",
           partial(_rates, 10, False), partial(_render_rates, 15), _RATE_VS_R),
    Figure("fig16_optrate_vs_r_c4",
           "Figure 16: ACE is more effective in a topology with high connectivity",
           partial(_rates, 4, False), partial(_render_rates, 16), (
               *_RATE_VS_R,
               # Peak rates can favor the sparse overlay at laptop scale, where
               # C = 10 closures engulf the network by h = 2; the minimal depth
               # still favors the dense one, and some R must compare the two.
               """
               for r in REPRO_R_VALUES:
                   dense_h = minima[10][r]
                   sparse_h = minima[4][r]
                   if dense_h is not None and sparse_h is not None:
                       assert dense_h <= sparse_h
               """,
               """
               compared = 0
               for r in REPRO_R_VALUES:
                   dense_h = minima[10][r]
                   sparse_h = minima[4][r]
                   if dense_h is not None and sparse_h is not None:
                       compared += 1
               assert compared > 0  # the sweep must exercise the comparison
               """,
           )),
    Figure("text_index_caching",
           "Section 5.2: index caching on ACE cuts traffic 75% and response 70%",
           _index_caching, _render_index_caching, (
               "assert c_t < g_t",
               "assert a_t < g_t",
               "assert c_t <= a_t",
               "assert c_r <= a_r",
           )),
    Figure("adaptive_depth",
           "Section 5.3: with R measured, h can be adjusted for the best gain",
           _adaptive_depth, _render_adaptive_depth, (
               # Query-starved: the protocol parks itself every step.
               "assert starved.parked_steps == STEPS",
               "assert starved.depth_history == []",
               # Query-heavy: it runs and cuts traffic.
               "assert heavy.parked_steps == 0",
               "assert len(heavy.depth_history) == STEPS",
               "assert heavy_traffic < baseline",
           )),
    Figure("motivation_as_locality",
           "Section 1: only 2-5% of Gnutella connections stay inside one AS",
           _as_locality, _render_as_locality, (
               "assert before[0] < 0.15",
               # ACE multiplies locality and cuts traffic.
               "assert after[0] > 2 * before[0]",
               "assert after[1] < before[1]",
           )),
    Figure("search_schemes",
           "Section 2: rival search schemes stay limited by the mismatch",
           _search_schemes, _render_search_schemes, (
               """
               for scheme in before:
                   assert after[scheme] < before[scheme], scheme
               """,
           )),
    Figure("supernode_tier",
           "Section 1: ACE also pays among supernodes (KaZaA), not only peers",
           _supernode_tier, _render_supernode_tier, (
               "assert supernode < flat",
               "assert ace < supernode",
               "assert coverage.search_scope == n_peers",
           )),
    Figure("ablation_gia_vs_ace",
           "Section 2: Gia addresses a different matching problem than ACE",
           _gia_vs_ace, _render_gia_vs_ace, (
               # Gia wins its metric and barely touches the mismatch.
               "assert gia_snap[0] > baseline[0] + 0.2",
               "assert gia_snap[1] > 0.85 * baseline[1]",
               # ACE wins its metric and does not solve Gia's.
               "assert ace_snap[1] < baseline[1]",
               "assert ace_snap[2] < gia_snap[2]",
               "assert ace_snap[0] < gia_snap[0] - 0.2",
           )),
    Figure("ablation_aoto_vs_ace",
           "Section 2: AOTO is a preliminary design of ACE; LTM an alternative",
           _aoto_vs_ace, _render_aoto_vs_ace, (
               # LTM's larger raw cut comes from removing connections: the
               # autonomy trade-off Section 2 raises.
               'assert results["ace"] < baseline',
               'assert results["aoto"] < baseline',
               'assert results["ltm"] < baseline',
               # The keep-both/shed cycle buys little at laptop scale.
               'assert results["ace"] <= results["aoto"] * 1.05',
           )),
    Figure("ablation_policies",
           "Section 6: the closest candidate policy wins traffic, pays in probes",
           _policies, _render_policies, (
               """
               for traffic, _cost, _probes in results.values():
                   assert traffic < baseline
               """,
               'assert results["closest"][2] > results["random"][2]',
               'assert results["closest"][0] <= results["random"][0] * 1.1',
           )),
    Figure("ablation_shedding",
           "Phase 3: keep-both without shedding creeps the degree upward",
           _shedding, _render_shedding, (
               """
               for traffic, _deg in results.values():
                   assert traffic < baseline
               """,
               'assert results["no shedding"][1] > initial_degree + 1.0',
               'assert abs(results["full ace"][1] - initial_degree) < 2.0',
           )),
    Figure("sensitivity_churn",
           "Section 5.2: the shorter peers live, the less of ACE's gain survives",
           _churn, _render_churn, (
               # ACE wins at the paper's churn level and beyond.
               "assert reductions[600.0] > 0",
               "assert reductions[2400.0] > 0",
               "assert reductions[2400.0] >= reductions[150.0]",
           )),
    Figure("sensitivity_overlay_kind",
           "Section 4.1: ACE needs the clustering real Gnutella overlays have",
           _overlay_kinds, _render_overlay_kinds, (
               """
               for kind in KINDS:
                   assert results[kind][1] > 0
               """,
               'assert results["small_world"][1] > results["random"][1]',
               'assert results["small_world"][0] > results["random"][0]',
           )),
)
