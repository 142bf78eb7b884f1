"""Common experiment scaffolding: scenario construction from a seeded config.

Every experiment in Section 5 starts from the same ingredients — a physical
topology, a logical overlay of a given average degree on top of it, a query
workload — differing only in parameters.  :func:`build_scenario` constructs
all of it reproducibly from one seed, and :class:`ScenarioConfig.scaled`
honors the ``REPRO_SCALE`` environment knob so the benchmark harness can run
laptop-sized by default and paper-sized on demand.

Worker processes do not regenerate the underlay.  The parallel harness
(:mod:`repro.experiments.parallel`) exports each distinct underlay to shared
memory once and initializes every worker with
:func:`attach_shared_underlays`; :func:`build_scenario` then finds the
attached topology in the per-process registry (keyed by
:func:`underlay_key`) and only builds the cheap per-trial layers — overlay,
catalog, RNG streams — on top of it.  The RNG seed-spawning is identical on
both paths, so a scenario built over an attached underlay is byte-identical
to one built from scratch.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..oracle import DelayOracle, make_oracle, parse_oracle_spec
from ..oracle.landmark import LandmarkEmbeddingHandle, LandmarkOracle
from ..perf import counters
from ..sim.workload import ObjectCatalog, WorkloadConfig
from ..topology import generators
from ..topology.overlay import (
    power_law_overlay,
    random_overlay,
    small_world_overlay,
)
from ..topology.physical import PhysicalTopology
from ..topology.shm import SharedTopologyHandle
from ..topology.soa import ArrayOverlay

__all__ = [
    "ScenarioConfig",
    "Scenario",
    "build_scenario",
    "build_underlay",
    "build_oracle",
    "underlay_key",
    "oracle_key",
    "UnderlayKey",
    "OracleKey",
    "attach_shared_underlays",
    "attach_shared_oracles",
    "attach_shared_worlds",
    "attached_underlay_count",
    "attached_oracle_count",
    "clear_attached_underlays",
    "repro_scale",
    "repro_workers",
]

_UNDERLAY_CACHE = 512  # single-source Dijkstra results kept per underlay

_UNDERLAYS = {
    "ba": lambda n, rng: generators.barabasi_albert(
        n, m=2, rng=rng, cache_size=_UNDERLAY_CACHE
    ),
    "waxman": lambda n, rng: generators.waxman(n, rng=rng, cache_size=_UNDERLAY_CACHE),
    "glp": lambda n, rng: generators.glp(n, rng=rng, cache_size=_UNDERLAY_CACHE),
    "ws": lambda n, rng: generators.watts_strogatz(
        n, rng=rng, cache_size=_UNDERLAY_CACHE
    ),
}

_OVERLAYS = {
    "random": random_overlay,
    "power_law": power_law_overlay,
    "small_world": small_world_overlay,
}


def repro_scale(default: float = 1.0) -> float:
    """The ``REPRO_SCALE`` multiplier (>= 1 grows toward paper scale)."""
    raw = os.environ.get("REPRO_SCALE", "")
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"REPRO_SCALE must be a number, got {raw!r}") from None
    if value <= 0:
        raise ValueError("REPRO_SCALE must be positive")
    return value


def repro_workers(default: int = 1) -> int:
    """The ``REPRO_WORKERS`` knob: worker processes for per-trial fan-out.

    ``1`` (the default) runs trials inline in this process — deterministic
    and fork-free, the right choice for tests.  Larger values let the
    experiment drivers spread independent trials over a process pool; each
    worker rebuilds its world from the (small, picklable)
    :class:`ScenarioConfig`, so no topology is ever pickled.
    """
    raw = os.environ.get("REPRO_WORKERS", "")
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"REPRO_WORKERS must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError("REPRO_WORKERS must be >= 1")
    return value


@dataclass(frozen=True)
class ScenarioConfig:
    """Reproducible description of one simulated world.

    The paper's full configuration is ``physical_nodes=20000`` and
    ``peers=8000``; defaults here are laptop-sized with the same shape.
    """

    physical_nodes: int = 2000
    peers: int = 256
    avg_degree: float = 6.0
    underlay: str = "ba"
    overlay_kind: str = "small_world"
    seed: int = 0
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    #: Delay backend spec: ``"exact"`` (default, byte-identical to the
    #: pre-oracle engine) or ``"landmark[:k[:strategy[:estimator]]]"`` (see
    #: :func:`repro.oracle.parse_oracle_spec`).
    oracle: str = "exact"

    def scaled(self, factor: Optional[float] = None) -> "ScenarioConfig":
        """Scale node counts by *factor* (default: the REPRO_SCALE env)."""
        f = repro_scale() if factor is None else factor
        return replace(
            self,
            physical_nodes=max(64, int(self.physical_nodes * f)),
            peers=max(16, int(self.peers * f)),
        )


@dataclass
class Scenario:
    """A constructed world: underlay, overlay, workload, and RNG streams."""

    config: ScenarioConfig
    physical: PhysicalTopology
    overlay: ArrayOverlay
    catalog: ObjectCatalog
    rng: np.random.Generator

    def fresh_overlay(self) -> ArrayOverlay:
        """Deep copy of the initial overlay for an independent treatment arm."""
        return self.overlay.copy()

    def sample_sources(self, n: int) -> List[int]:
        """Draw *n* query sources (with replacement) from live peers."""
        peers = self.overlay.peers()
        idx = self.rng.integers(0, len(peers), size=n)
        return [peers[int(i)] for i in idx]


#: Identity of an underlay independent of overlay/workload parameters: two
#: configs with the same key deterministically generate the same graph.
UnderlayKey = Tuple[str, int, int]

#: Identity of a (non-exact) oracle: the underlay it embeds plus the
#: canonical spec string.  Selection draws come from a stream spawned off
#: the scenario seed (part of the underlay key), so configs sharing this
#: key deterministically build the identical oracle.
OracleKey = Tuple[UnderlayKey, str]

#: Per-process registry of shared-memory handles offered to this process
#: (pool initializer) and of the underlays actually attached from them.
#: Attachment is lazy — a worker maps only the underlays its trials touch —
#: and cached, so each segment set is mapped at most once per process.
_SHARED_HANDLES: Dict[UnderlayKey, SharedTopologyHandle] = {}
_ATTACHED_UNDERLAYS: Dict[UnderlayKey, PhysicalTopology] = {}

#: Same lazy registry pattern for exported landmark embeddings.
_SHARED_ORACLE_HANDLES: Dict[OracleKey, LandmarkEmbeddingHandle] = {}
_ATTACHED_ORACLES: Dict[OracleKey, DelayOracle] = {}


def underlay_key(config: ScenarioConfig) -> UnderlayKey:
    """The underlay identity of *config* (generator kind, size, seed).

    The underlay RNG stream is spawned from the scenario seed independently
    of the overlay/workload streams, so every config sharing this key builds
    the identical physical graph — which is what makes one shared-memory
    export reusable across e.g. a sweep over average degrees.
    """
    return (config.underlay, config.physical_nodes, config.seed)


def build_underlay(config: ScenarioConfig) -> PhysicalTopology:
    """Generate just the physical underlay of *config*, deterministically.

    Uses the same spawned seed stream as :func:`build_scenario`, so the
    graph is identical to the one a full scenario build would produce.
    """
    if config.underlay not in _UNDERLAYS:
        raise ValueError(
            f"unknown underlay {config.underlay!r}; choose from {sorted(_UNDERLAYS)}"
        )
    underlay_seed = np.random.SeedSequence(config.seed).spawn(4)[0]
    counters.underlay_builds += 1
    return _UNDERLAYS[config.underlay](
        config.physical_nodes, np.random.default_rng(underlay_seed)
    )


def oracle_key(config: ScenarioConfig) -> OracleKey:
    """The oracle identity of *config* (underlay key + canonical spec).

    The spec is canonicalized first, so ``"landmark"`` and
    ``"landmark:16:maxmin:midpoint"`` share one key (they build the same
    oracle) and one shared-memory export serves both.
    """
    return (underlay_key(config), parse_oracle_spec(config.oracle).canonical())


def _oracle_rng(config: ScenarioConfig) -> np.random.Generator:
    """The seeded stream feeding oracle landmark selection.

    Stream #4 of the scenario seed — spawned *after* the four historical
    streams, whose values a ``SeedSequence`` derives purely from their
    spawn position, so adding this stream leaves underlay/overlay/workload/
    run draws untouched and ``oracle="exact"`` scenarios byte-identical.
    """
    return np.random.default_rng(np.random.SeedSequence(config.seed).spawn(5)[4])


def build_oracle(config: ScenarioConfig, physical: PhysicalTopology) -> DelayOracle:
    """Build just the delay oracle of *config* over an existing underlay.

    Deterministic: the landmark selection stream is spawned from the
    scenario seed, so every call with equal config and equal underlay
    produces the identical oracle (same landmarks, same embedding bytes) —
    which is what makes a parent-exported embedding interchangeable with a
    worker-built one.
    """
    return make_oracle(config.oracle, physical, rng=_oracle_rng(config))


def attach_shared_underlays(
    handles: Mapping[UnderlayKey, SharedTopologyHandle],
) -> None:
    """Process-pool initializer: register exported underlays for this worker.

    Registration is cheap (the handles are a few hundred bytes each); the
    actual segment mapping happens lazily, the first time
    :func:`build_scenario` needs a given key, and is cached for the rest of
    the process's life.  A worker therefore maps only the underlays its
    trials touch, never regenerates one, and — because the attach happens
    inside a trial — the attach shows up in that trial's perf snapshot and
    survives the merge back into the parent's fleet-wide counters.
    """
    _SHARED_HANDLES.update(handles)


def attach_shared_oracles(
    handles: Mapping[OracleKey, LandmarkEmbeddingHandle],
) -> None:
    """Register exported landmark embeddings for this worker (lazy attach).

    The counterpart of :func:`attach_shared_underlays` for the oracle
    layer: actual segment mapping happens the first time
    :func:`build_scenario` needs a given key, so a worker maps only the
    embeddings its trials touch and never re-runs the embedding solves.
    """
    _SHARED_ORACLE_HANDLES.update(handles)


def attach_shared_worlds(
    underlays: Mapping[UnderlayKey, SharedTopologyHandle],
    oracles: Mapping[OracleKey, LandmarkEmbeddingHandle],
) -> None:
    """Process-pool initializer registering both shared layers at once."""
    attach_shared_underlays(underlays)
    attach_shared_oracles(oracles)


def _attached_underlay(key: UnderlayKey) -> Optional[PhysicalTopology]:
    """The attached underlay for *key*, mapping its segments on first use."""
    physical = _ATTACHED_UNDERLAYS.get(key)
    if physical is None:
        handle = _SHARED_HANDLES.get(key)
        if handle is not None:
            physical = PhysicalTopology.attach_shared(handle)
            _ATTACHED_UNDERLAYS[key] = physical
    return physical


def _attached_oracle(
    key: OracleKey, physical: PhysicalTopology
) -> Optional[DelayOracle]:
    """The attached oracle for *key* over *physical*, mapped on first use.

    The cached instance is only reused while it answers for the same
    underlay object; a different resolved underlay (e.g. an explicitly
    passed one) gets a fresh zero-copy attach around the same embedding.
    """
    oracle = _ATTACHED_ORACLES.get(key)
    if oracle is not None and oracle.physical is physical:
        return oracle
    handle = _SHARED_ORACLE_HANDLES.get(key)
    if handle is None:
        return None
    oracle = LandmarkOracle.attach_shared(handle, physical)
    _ATTACHED_ORACLES[key] = oracle
    return oracle


def attached_underlay_count() -> int:
    """How many shared underlays this process has attached (for tests)."""
    return len(_ATTACHED_UNDERLAYS)


def attached_oracle_count() -> int:
    """How many shared embeddings this process has attached (for tests)."""
    return len(_ATTACHED_ORACLES)


def clear_attached_underlays() -> None:
    """Drop this process's shared-handle and attached-instance registries.

    Covers both layers (underlays and oracle embeddings).  Dropping the
    registries releases the attached instances and thereby this process's
    segment mappings; the exporter's segments are untouched.
    """
    _SHARED_HANDLES.clear()
    _ATTACHED_UNDERLAYS.clear()
    _SHARED_ORACLE_HANDLES.clear()
    _ATTACHED_ORACLES.clear()


def build_scenario(
    config: ScenarioConfig, physical: Optional[PhysicalTopology] = None
) -> Scenario:
    """Construct a scenario deterministically from its config.

    Independent RNG streams (via ``numpy`` seed sequences) are used for the
    underlay, overlay, workload and runtime randomness, so changing e.g. the
    overlay degree does not perturb the underlay.

    The underlay itself is resolved in priority order: an explicitly passed
    *physical* (caller asserts it matches the config), this process's
    attached shared-memory registry, and finally the seeded generator.  All
    three paths yield the identical graph, so results do not depend on which
    one served the scenario.
    """
    if config.underlay not in _UNDERLAYS:
        raise ValueError(
            f"unknown underlay {config.underlay!r}; choose from {sorted(_UNDERLAYS)}"
        )
    if config.overlay_kind not in _OVERLAYS:
        raise ValueError(
            f"unknown overlay kind {config.overlay_kind!r}; "
            f"choose from {sorted(_OVERLAYS)}"
        )
    oracle_spec = parse_oracle_spec(config.oracle)  # fail fast on typos
    seeds = np.random.SeedSequence(config.seed).spawn(4)
    underlay_rng, overlay_rng, workload_rng, run_rng = (
        np.random.default_rng(s) for s in seeds
    )
    if physical is None:
        physical = _attached_underlay(underlay_key(config))
    if physical is None:
        counters.underlay_builds += 1
        physical = _UNDERLAYS[config.underlay](config.physical_nodes, underlay_rng)
    overlay = _OVERLAYS[config.overlay_kind](
        physical, config.peers, avg_degree=config.avg_degree, rng=overlay_rng
    )
    if oracle_spec.kind != "exact":
        # The default ExactOracle installed by the Overlay constructor is
        # already correct for "exact" (and swapping would needlessly drop
        # cost memos); only non-exact backends are resolved — attached from
        # shared memory when the pool initializer offered one, built from
        # the seeded oracle stream otherwise.  Both paths yield identical
        # embeddings, so results do not depend on which one served.
        oracle = _attached_oracle(oracle_key(config), physical)
        if oracle is None:
            oracle = build_oracle(config, physical)
        overlay.use_oracle(oracle)
    # The generators build on the object model; the finished overlay is
    # lowered into flat arrays.  The oracle and epoch carry over.
    overlay = ArrayOverlay.from_overlay(overlay)
    catalog = ObjectCatalog(overlay.peers(), config.workload, workload_rng)
    return Scenario(
        config=config,
        physical=physical,
        overlay=overlay,
        catalog=catalog,
        rng=run_rng,
    )
