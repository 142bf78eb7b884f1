"""One run of one workload, in a process of its own.

``run.py`` starts this file with a scrubbed environment and one JSON
argument, and reads one JSON object from the last line of its standard
output.  A fresh process per run keeps ``peak_rss_mb``, the delay LRU and
the compiled-graph memos from leaking between runs.

Order: correctness gate, then iterations of (set-up, run) while another one
fits into ``seconds``, then extra set-ups so that ``setup_s`` is a median of
at least five.  A traced run alternates untraced and traced
iterations, so its tracing overhead compares like with like.  End-to-end
timings are wall seconds corrected for the speed of the box while they were
taken (speed.py), as far as the workload feels it (``Workload.sensitivity``);
span times are raw.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

# Import the benchmark as the package ``suite``: its trace.py must not
# shadow the standard library's ``trace`` for anything the program imports.
sys.path[0] = str(Path(__file__).resolve().parent.parent)

from repro.core import AceConfig  # noqa: E402
from repro.experiments import ScenarioConfig, build_scenario, run_static_experiment  # noqa: E402
from repro.net import NetConfig, plan_queries, run_live, run_sim_reference  # noqa: E402
from repro.net.launch import compare_runs  # noqa: E402
from repro.perf import counters  # noqa: E402

from suite import layers, trace  # noqa: E402
from suite.speed import SpeedProbe, speed  # noqa: E402
from suite.workloads import WORKLOADS, Outcome, Workload  # noqa: E402

#: ``setup_s`` is a median of at least five set-ups (the first is cold); cheap
#: ones repeat until a second has been spent on them, 25 at most.
MIN_SETUPS, MAX_SETUPS, MIN_SETUP_TIME_S = 5, 25, 1.0
GATE_SEED = 1


def timed(call: Callable[[], object]) -> Tuple[object, float]:
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start


class GateFailure(Exception):
    """The program's outputs are wrong; no number may be reported."""


def correctness_gate() -> List[str]:
    """Paper-default engine equality and lockstep sim-vs-live equality."""
    notes = []
    default = dict(
        physical_nodes=1200, peers=160, avg_degree=6.0, underlay="ba",
        overlay_kind="small_world", seed=GATE_SEED,
    )
    if "engine" in {f.name for f in dataclasses.fields(ScenarioConfig)}:
        series = [
            run_static_experiment(build_scenario(ScenarioConfig(engine=engine, **default)), steps=10)
            for engine in ("array", "object")
        ]
        if series[0] != series[1]:
            raise GateFailure("array and object engines disagree at 160 peers / 1200 nodes")
    else:
        notes.append("gate: ScenarioConfig has one engine; engine equality skipped")
    scenario = build_scenario(
        ScenarioConfig(physical_nodes=128, peers=16, avg_degree=4.0, seed=GATE_SEED)
    )
    plan = plan_queries(scenario, 32)
    live = run_live(
        scenario, AceConfig(), steps=2, plan=plan, net=NetConfig(discipline="lockstep")
    )
    problems = compare_runs(live, run_sim_reference(scenario, AceConfig(), 2, plan))
    if problems:
        raise GateFailure("lockstep live run differs from the simulator: " + "; ".join(problems[:3]))
    return notes


def listening_sockets() -> int:
    """TCP sockets this process still holds in the LISTEN state."""
    inodes = set()
    for entry in os.listdir("/proc/self/fd"):
        try:
            link = os.readlink(f"/proc/self/fd/{entry}")
        except OSError:
            continue
        if link.startswith("socket:["):
            inodes.add(link[8:-1])
    listening = 0
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            rows = Path(table).read_text().splitlines()[1:]
        except OSError:
            continue
        for row in rows:
            cols = row.split()
            if cols[3] == "0A" and cols[9] in inodes:
                listening += 1
    return listening


@dataclasses.dataclass
class Iteration:
    setup_s: float  # wall seconds
    run_s: float  # wall seconds
    setup_speed: List[float]  # kernel samples taken during the set-up
    run_speed: float  # box speed during the run (see speed.py)
    outcome: Outcome
    layer: Optional[Dict[str, float]] = None


def iterate(workload: Workload, size, seed: int, probe: SpeedProbe,
            tracer: Optional[trace.Tracer]) -> Iteration:
    """One set-up and one run; under *tracer* also the per-layer metrics."""
    gc.collect()
    spanned = tracer.span if tracer is not None else (lambda _name: nullcontext())
    if tracer is not None:
        tracer.run_id += 1
        tracer.counts.clear()
        tracer.last_protocol = None
    before = counters.copy()
    with tracer.installed() if tracer is not None else nullcontext():
        with spanned("harness.setup"), probe.sampling() as during_setup:
            world, setup_s = timed(lambda: workload.set_up(size, seed))
        with spanned("harness.run"), probe.sampling() as during_run:
            outcome, run_s = timed(lambda: workload.run(size, world))
    iteration = Iteration(setup_s, run_s, during_setup, speed(during_run), outcome)
    if tracer is not None:
        facts = dict(outcome.facts, queries=outcome.queries)
        # Closure + MST over the final state with no Phase 1/3, timed outside
        # the run: core.step_p50_s minus this bounds the Phase 1+3 share.
        rebuild = getattr(tracer.last_protocol, "rebuild_all_trees", None)
        if rebuild is not None:
            facts["probe_rebuild_all_trees_s"] = timed(rebuild)[1]
        iteration.layer = layers.layer_metrics(
            tracer, tracer.run_id, counters.delta(before), facts, run_s
        )
    return iteration


def measure(workload: Workload, size, seed: int, seconds: float, traced: bool):
    tracer = trace.Tracer(layers.TARGETS) if traced else None
    probe = SpeedProbe()
    iterations: List[Iteration] = []
    start = time.perf_counter()
    while True:
        use = tracer if traced and len(iterations) % 2 == 1 else None
        iterations.append(iterate(workload, size, seed, probe, use))
        elapsed = time.perf_counter() - start
        # Go on only while one more iteration, a quarter slower than those so
        # far, would end in time: the count must not flip with the speed of
        # the box, because the first iteration of a process is the cold one.
        enough = elapsed + 1.25 * elapsed / len(iterations) > seconds
        if enough and (not traced or len(iterations) >= 2):
            break
    setups = [it.setup_s for it in iterations]
    samples = [sample for it in iterations for sample in it.setup_speed]
    while len(setups) < MIN_SETUPS or (
        len(setups) < MAX_SETUPS and sum(setups) < MIN_SETUP_TIME_S
    ):
        with probe.sampling() as during_setup:
            setups.append(timed(lambda: workload.set_up(size, seed))[1])
        samples += during_setup
    # One set-up can be shorter than the sampling interval, so all of them
    # share one speed: that of the box over all the set-ups of this run.
    return iterations, statistics.median(setups) * speed(samples), tracer


def main() -> int:
    spec = json.loads(sys.argv[1])
    workload = WORKLOADS[spec["workload"]]
    size = workload.tiny if spec["tiny"] else workload.full
    try:
        notes = correctness_gate()
    except GateFailure as failure:
        print(f"correctness gate failed: {failure}", file=sys.stderr)
        return 3

    try:
        iterations, setup_s, tracer = measure(
            workload, size, spec["seed"], spec["seconds"], spec["trace"]
        )
    except Exception:
        # A driver that raises has failed every operation it was given; there
        # is no partial result to account, so the run reports nothing.
        traceback.print_exc()
        return 4

    for it in iterations:
        kind = "untraced" if it.layer is None else "traced"
        print(f"iteration: setup {it.setup_s:.3f} s, run {it.run_s:.3f} s wall at box speed "
              f"{it.run_speed:.3f} ({kind})", file=sys.stderr)
    outcomes = [it.outcome for it in iterations]
    first = outcomes[0]
    repeats = all(
        other.figures[name] == first.figures[name]
        for other in outcomes[1:]
        for name in workload.exact
    )
    if not repeats:
        notes.append("simulated figures differ between iterations of one seed")
    leaked = listening_sockets()
    if leaked:
        notes.append(f"{leaked} listening sockets left open")
    attempted = sum(o.attempted for o in outcomes) + leaked
    failed = sum(o.failed for o in outcomes) + leaked

    def reference_run_s(its: List[Iteration]) -> float:
        return statistics.median(it.run_s * it.run_speed ** workload.sensitivity for it in its)

    untraced = [it for it in iterations if it.layer is None]
    run_s = reference_run_s(untraced)
    latencies = [ms for o in outcomes for ms in o.latencies_ms]
    result = {
        "correct": repeats and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "iterations": len(iterations),
        "notes": notes,
        "size": dict(size),
        "metrics": {
            "setup_s": setup_s,
            "run_s": run_s,
            "peer_rounds_per_s": first.peer_rounds / run_s,
            "queries_per_s": first.queries / run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "scope_retained": first.figures["scope_retained"],
        },
    }
    if tracer is not None:
        traced_runs = [it for it in iterations if it.layer is not None]
        layer = {
            name: statistics.median(it.layer[name] for it in traced_runs)
            for name in traced_runs[0].layer
        }
        traced_s = reference_run_s(traced_runs)
        layer.update(
            {name: first.figures.get(name, 0.0) for name in (
                "traffic_reduction_pct", "response_reduction_pct",
                "ace_overhead_per_round", "bytes_per_query",
            )},
            query_latency_p50_ms=statistics.median(latencies) if latencies else 0.0,
            query_latency_p95_ms=statistics.quantiles(latencies, n=20)[18] if latencies else 0.0,
            failure_rate=failed / attempted,
        )
        layer["harness.trace_overhead_pct"] = 100.0 * (traced_s - run_s) / run_s
        layer["harness.run_wall_s"] = statistics.median(it.run_s for it in traced_runs)
        layer["harness.box_speed"] = statistics.median(it.run_speed for it in traced_runs)
        layer["harness.missing_spans"] = len(tracer.missing)
        result["metrics"] = layer
        result["missing_spans"] = tracer.missing
        problems = trace.malformed(tracer.spans)
        if problems:
            notes.append(f"span tree malformed: {problems[0]} (+{len(problems) - 1} more)")
        out = Path(spec["trace_out"])
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({
            "workload": workload.name,
            "seed": spec["seed"],
            "fields": ["name", "start", "end", "parent", "run"],
            "missing": tracer.missing,
            "spans": tracer.spans,
        }))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
