"""Common experiment scaffolding: scenario construction from a seeded config.

Every experiment in Section 5 starts from the same ingredients — a physical
topology, a logical overlay of a given average degree on top of it, a query
workload — differing only in parameters.  :func:`build_scenario` constructs
all of it reproducibly from one seed, and :class:`ScenarioConfig.scaled`
honors the ``REPRO_SCALE`` environment knob so the figure table can run
laptop-sized by default and paper-sized on demand.

There is one way to build a world: a worker process of the parallel harness
(:mod:`repro.experiments.parallel`) receives the same seeded config and calls
:func:`build_scenario` exactly as a serial run does.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from ..oracle import DelayOracle, make_oracle, parse_oracle_spec
from ..perf import counters
from ..sim.workload import ObjectCatalog, WorkloadConfig
from ..topology import generators
from ..topology.overlay import (
    power_law_overlay,
    random_overlay,
    small_world_overlay,
)
from ..topology.physical import PhysicalTopology
from ..topology.soa import ArrayOverlay

__all__ = [
    "ScenarioConfig",
    "Scenario",
    "build_scenario",
    "build_oracle",
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
    #: pre-oracle engine) or ``"landmark[:k]"``, a maxmin k-landmark
    #: embedding answering with midpoint estimates (see
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
    produces the identical oracle (same landmarks, same embedding bytes).
    """
    return make_oracle(config.oracle, physical, rng=_oracle_rng(config))


def build_scenario(config: ScenarioConfig) -> Scenario:
    """Construct a scenario deterministically from its config.

    Independent RNG streams (via ``numpy`` seed sequences) are used for the
    underlay, overlay, workload and runtime randomness, so changing e.g. the
    overlay degree does not perturb the underlay.
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
    counters.underlay_builds += 1
    physical = _UNDERLAYS[config.underlay](config.physical_nodes, underlay_rng)
    overlay = _OVERLAYS[config.overlay_kind](
        physical, config.peers, avg_degree=config.avg_degree, rng=overlay_rng
    )
    if oracle_spec.kind != "exact":
        # The default ExactOracle installed by the ArrayOverlay constructor is
        # already correct for "exact" (and swapping would needlessly drop
        # cost memos); only non-exact backends are built, from the seeded
        # oracle stream.
        overlay.use_oracle(build_oracle(config, physical))
    catalog = ObjectCatalog(overlay.peers(), config.workload, workload_rng)
    return Scenario(
        config=config,
        physical=physical,
        overlay=overlay,
        catalog=catalog,
        rng=run_rng,
    )
