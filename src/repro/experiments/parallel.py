"""Generic parallel trial harness: one fan-out path for every experiment.

The static driver, the dynamic arms and the benchmark conftest all spread
independent trials over one plain process pool:

* **Workers build their own world.**  A payload is a seeded config, never
  a built topology; the worker calls
  :func:`~repro.experiments.setup.build_scenario` exactly as the serial path
  does.  A 20,000-node ``ba`` underlay builds in well under a second and its
  ``landmark:16`` embedding in a fraction of that, next to trials of many
  seconds, so nothing is shared between processes.
* **Fleet-wide perf accounting.**  Each worker measures its trial as a
  :meth:`counter delta <repro.perf.PerfCounters.delta>` and returns it with
  the result; the parent :meth:`merges <repro.perf.PerfCounters.merge>`
  every delta into the process-wide bag, so ``--perf`` and the budget gates
  see the whole fleet's Dijkstra workload, not just the parent's.

Determinism: each payload is self-contained (a seeded config), workers are
pure functions of their payload, and results come back in submission order —
so a run with ``REPRO_WORKERS=8`` is byte-identical to the same run inline.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar, Union

from ..perf import counters
from .setup import repro_workers

__all__ = ["run_trials", "run_trials_detailed"]

P = TypeVar("P")
R = TypeVar("R")

#: One worker's measurement of its trial: a mergeable counter delta.
PerfSnapshot = Dict[str, Union[int, float]]


def _run_task(item: Tuple[Callable[[Any], Any], Any]) -> Tuple[Any, PerfSnapshot]:
    """Worker entry point: run one trial and measure its counter delta."""
    from repro.sanitize import maybe_install

    maybe_install()  # spawned workers re-read REPRO_SANITIZE; no-op otherwise
    task, payload = item
    before = counters.copy()
    result = task(payload)
    return result, counters.delta(before)


def run_trials_detailed(
    task: Callable[[P], R],
    payloads: Sequence[P],
    max_workers: Optional[int] = None,
) -> Tuple[List[R], List[PerfSnapshot]]:
    """Run *task* over *payloads*, returning results and per-trial perf.

    *task* must be a module-level callable (pickled by reference) and each
    payload must be small and picklable — a seeded config, never a built
    topology (``tests/experiments/test_parallel.py`` fails any fan-out
    that pickles a ``PhysicalTopology``).

    *max_workers* defaults to the ``REPRO_WORKERS`` environment knob; ``1``
    runs everything inline in this process with no pool and no fork —
    bit-identical results either way, since every trial is a pure function
    of its payload.

    Returns ``(results, perf_snapshots)`` in payload order.  Parallel
    snapshots are merged into this process's :data:`repro.perf.counters`
    (inline trials already incremented them directly), so fleet totals are
    always visible to ``--perf`` whatever the worker count.
    """
    items = [(task, payload) for payload in payloads]
    workers = repro_workers() if max_workers is None else max_workers
    if workers < 1:
        raise ValueError("max_workers must be >= 1")
    workers = min(workers, len(items))
    if workers <= 1:
        pairs = [_run_task(item) for item in items]
        return [r for r, _ in pairs], [snap for _, snap in pairs]

    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        pairs = list(pool.map(_run_task, items))
    results: List[R] = []
    snapshots: List[PerfSnapshot] = []
    for result, snap in pairs:
        counters.merge(snap)
        results.append(result)
        snapshots.append(snap)
    return results, snapshots


def run_trials(
    task: Callable[[P], R],
    payloads: Sequence[P],
    max_workers: Optional[int] = None,
) -> List[R]:
    """Like :func:`run_trials_detailed`, returning just the results."""
    results, _ = run_trials_detailed(task, payloads, max_workers=max_workers)
    return results
