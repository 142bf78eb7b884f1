"""Generic parallel trial harness: one fan-out path for every experiment.

PR 1 gave ``run_static_trials`` its own pool/submit/collect logic; this
module hoists that into a single harness that the static driver, the dynamic
arms, and the benchmark conftest all share, and upgrades it in three ways:

* **Zero-copy worker setup.**  The parent builds each *distinct* underlay
  (see :func:`repro.experiments.setup.underlay_key`) exactly once — and,
  for configs selecting a landmark oracle, each distinct embedding (see
  :func:`repro.experiments.setup.oracle_key`) on that same graph — exports
  both to shared memory, and initializes every worker process with
  :func:`repro.experiments.setup.attach_shared_worlds`.  Workers attach
  read-only views of the CSR arrays and the ``(k, N)`` embedding instead
  of regenerating a 20,000-node graph (or re-running k Dijkstra solves)
  from seed per process — the regeneration that used to dominate
  paper-scale wall-clock.
* **Fleet-wide perf accounting.**  Each worker measures its trial as a
  :meth:`counter delta <repro.perf.PerfCounters.delta>` and returns it with
  the result; the parent :meth:`merges <repro.perf.PerfCounters.merge>`
  every delta into the process-wide bag, so ``--perf`` and the budget gates
  see the whole fleet's Dijkstra workload, not just the parent's.
* **Leak-proof lifecycle.**  Segments are unlinked in a ``finally`` that
  covers worker exceptions and pool teardown; the
  :class:`~repro.topology.shm.SharedUnderlay` atexit guard (PID-keyed)
  backstops hard exits.  A failed trial cannot leave segments behind —
  pinned by ``tests/experiments/test_parallel.py``.

Determinism: each payload is self-contained (a seeded config), workers are
pure functions of their payload, and results come back in submission order —
so a run with ``REPRO_WORKERS=8`` is byte-identical to the same run inline.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from ..oracle import parse_oracle_spec
from ..oracle.landmark import LandmarkOracle, SharedEmbedding
from ..perf import counters
from ..topology.physical import PhysicalTopology
from ..topology.shm import SharedUnderlay
from .setup import (
    OracleKey,
    ScenarioConfig,
    UnderlayKey,
    attach_shared_worlds,
    build_oracle,
    build_underlay,
    oracle_key,
    repro_workers,
    underlay_key,
)

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


def _export_worlds(
    configs: Sequence[ScenarioConfig],
) -> Tuple[Dict[UnderlayKey, SharedUnderlay], Dict[OracleKey, SharedEmbedding]]:
    """Build and export each distinct underlay and oracle embedding once.

    The parent builds every distinct :func:`underlay_key` graph, then every
    distinct non-exact :func:`oracle_key` embedding *on that same built
    graph* (no second generator run), and exports both to shared memory.
    Workers attach zero-copy, so neither the 20,000-node generator nor the
    k embedding solves ever run per process.  On any failure the
    already-exported segments of both layers are unlinked before the
    exception propagates — a half-exported fleet never leaks.
    """
    underlays: Dict[UnderlayKey, SharedUnderlay] = {}
    oracles: Dict[OracleKey, SharedEmbedding] = {}
    built: Dict[UnderlayKey, PhysicalTopology] = {}
    try:
        for config in configs:
            key = underlay_key(config)
            if key not in underlays:
                physical = build_underlay(config)
                built[key] = physical
                underlays[key] = physical.export_shared()
            okey = oracle_key(config)
            if parse_oracle_spec(config.oracle).kind == "exact" or okey in oracles:
                continue
            oracle = build_oracle(config, built[key])
            assert isinstance(oracle, LandmarkOracle)  # non-exact specs only
            oracles[okey] = oracle.export_shared()
    except BaseException:
        for shared in (*underlays.values(), *oracles.values()):
            shared.unlink()
        raise
    return underlays, oracles


def run_trials_detailed(
    task: Callable[[P], R],
    payloads: Sequence[P],
    shared_underlays: Sequence[ScenarioConfig] = (),
    max_workers: Optional[int] = None,
) -> Tuple[List[R], List[PerfSnapshot]]:
    """Run *task* over *payloads*, returning results and per-trial perf.

    *task* must be a module-level callable (pickled by reference) and each
    payload must be small and picklable — a seeded config, never a built
    topology (``tests/experiments/test_parallel.py`` fails any fan-out
    that pickles a ``PhysicalTopology``).

    *shared_underlays* lists the scenario configs whose worlds the trials
    will build; each distinct :func:`underlay_key` (and, for landmark-oracle
    configs, each distinct :func:`oracle_key` embedding) is generated once
    in the parent, exported to shared memory, and attached by every
    worker's initializer.  Leave it empty to skip sharing (e.g. payloads
    that build no scenario).

    *max_workers* defaults to the ``REPRO_WORKERS`` environment knob; ``1``
    runs everything inline in this process with no pool, no export and no
    fork — bit-identical results either way, since every trial is a pure
    function of its payload.

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

    underlay_exports, oracle_exports = _export_worlds(shared_underlays)
    try:
        underlay_handles = {k: s.handle for k, s in underlay_exports.items()}
        oracle_handles = {k: s.handle for k, s in oracle_exports.items()}
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=attach_shared_worlds,
            initargs=(underlay_handles, oracle_handles),
        ) as pool:
            pairs = list(pool.map(_run_task, items))
    finally:
        for shared in (*underlay_exports.values(), *oracle_exports.values()):
            shared.unlink()
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
    shared_underlays: Sequence[ScenarioConfig] = (),
    max_workers: Optional[int] = None,
) -> List[R]:
    """Like :func:`run_trials_detailed`, returning just the results."""
    results, _ = run_trials_detailed(
        task, payloads, shared_underlays=shared_underlays, max_workers=max_workers
    )
    return results
