"""Pluggable delay oracles: exact batched Dijkstra or landmark embeddings.

See :mod:`repro.oracle.base` for the seam's rationale.  This package
exposes the protocol (:class:`DelayOracle`), the two production backends
(:class:`ExactOracle`, :class:`LandmarkOracle`), and a tiny spec grammar so
scenario configs and the CLI can select a backend with a string::

    exact                                  # the default; byte-identical to main
    landmark                               # k=16, maxmin selection, midpoint estimator
    landmark:32                            # k=32
    landmark:16:degree                     # degree-biased selection
    landmark:16:maxmin:upper               # triangle upper-bound estimator

:func:`parse_oracle_spec` turns the string into a validated
:class:`OracleSpec`; :func:`make_oracle` builds the backend for an
underlay.  Specs deliberately do not expose the exact-fallback budget:
config-built oracles stay stateless so answers never depend on query order
(serial and parallel runs of the same seed must agree byte-for-byte).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .base import DelayOracle, OracleAccuracyError
from .exact import ExactOracle
from .landmark import (
    LANDMARK_ESTIMATORS,
    LANDMARK_STRATEGIES,
    LandmarkOracle,
)

if TYPE_CHECKING:  # pragma: no cover - import-cycle-free type hints only
    from ..topology.physical import PhysicalTopology

__all__ = [
    "DelayOracle",
    "OracleAccuracyError",
    "ExactOracle",
    "LandmarkOracle",
    "LANDMARK_STRATEGIES",
    "LANDMARK_ESTIMATORS",
    "OracleSpec",
    "parse_oracle_spec",
    "make_oracle",
]


@dataclass(frozen=True)
class OracleSpec:
    """Parsed form of an oracle selection string (hashable, picklable)."""

    #: Backend kind: ``"exact"`` or ``"landmark"``.
    kind: str
    #: Landmark count *k* (landmark backend only).
    n_landmarks: int = 16
    #: Landmark selection strategy (landmark backend only).
    strategy: str = "maxmin"
    #: Query estimator (landmark backend only).
    estimator: str = "midpoint"

    def canonical(self) -> str:
        """The spec string that parses back to this exact spec."""
        if self.kind == "exact":
            return "exact"
        return f"landmark:{self.n_landmarks}:{self.strategy}:{self.estimator}"


def parse_oracle_spec(spec: str) -> OracleSpec:
    """Parse ``exact`` / ``landmark[:k[:strategy[:estimator]]]``.

    Raises ``ValueError`` with a pointed message on anything malformed, so
    a typo in a config or CLI flag fails at setup time, not mid-experiment.
    """
    text = spec.strip().lower()
    if not text:
        raise ValueError("empty oracle spec; expected 'exact' or 'landmark:<k>'")
    parts = text.split(":")
    kind = parts[0]
    if kind == "exact":
        if len(parts) > 1:
            raise ValueError(f"'exact' takes no parameters, got {spec!r}")
        return OracleSpec(kind="exact")
    if kind != "landmark":
        raise ValueError(
            f"unknown oracle kind {kind!r} in {spec!r}; "
            "expected 'exact' or 'landmark'"
        )
    if len(parts) > 4:
        raise ValueError(
            f"too many fields in {spec!r}; "
            "expected landmark[:k[:strategy[:estimator]]]"
        )
    n_landmarks = 16
    if len(parts) > 1 and parts[1]:
        try:
            n_landmarks = int(parts[1])
        except ValueError:
            raise ValueError(
                f"landmark count must be an integer, got {parts[1]!r} in {spec!r}"
            ) from None
        if n_landmarks < 1:
            raise ValueError(f"landmark count must be >= 1, got {n_landmarks}")
    strategy = "maxmin"
    if len(parts) > 2 and parts[2]:
        strategy = parts[2]
        if strategy not in LANDMARK_STRATEGIES:
            raise ValueError(
                f"unknown landmark strategy {strategy!r} in {spec!r}; "
                f"choose from {list(LANDMARK_STRATEGIES)}"
            )
    estimator = "midpoint"
    if len(parts) > 3 and parts[3]:
        estimator = parts[3]
        if estimator not in LANDMARK_ESTIMATORS:
            raise ValueError(
                f"unknown estimator {estimator!r} in {spec!r}; "
                f"choose from {list(LANDMARK_ESTIMATORS)}"
            )
    return OracleSpec(
        kind="landmark",
        n_landmarks=n_landmarks,
        strategy=strategy,
        estimator=estimator,
    )


def make_oracle(
    spec: str,
    physical: "PhysicalTopology",
    rng: Optional[np.random.Generator] = None,
) -> DelayOracle:
    """Build the oracle a spec string selects, for one underlay.

    *rng* feeds the landmark selection draws (``random``/``maxmin``); pass
    a dedicated seeded stream so oracle construction never perturbs other
    seeded draws.  Ignored for ``exact``.
    """
    parsed = parse_oracle_spec(spec)
    if parsed.kind == "exact":
        return ExactOracle(physical)
    return LandmarkOracle(
        physical,
        n_landmarks=parsed.n_landmarks,
        strategy=parsed.strategy,
        estimator=parsed.estimator,
        rng=rng,
    )
