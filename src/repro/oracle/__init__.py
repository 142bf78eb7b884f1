"""Pluggable delay oracles: exact batched Dijkstra or landmark embeddings.

See :mod:`repro.oracle.base` for the seam's rationale.  This package
exposes the protocol (:class:`DelayOracle`), the two production backends
(:class:`ExactOracle`, :class:`LandmarkOracle`), and a tiny spec grammar so
scenario configs and the CLI can select a backend with a string::

    exact                                  # the default; byte-identical to main
    landmark                               # k=16 landmarks
    landmark:32                            # k=32

A landmark oracle always selects its landmarks by greedy maxmin and answers
with the midpoint of the triangle bounds.  :func:`parse_oracle_spec` turns
the string into a validated :class:`OracleSpec`; :func:`make_oracle` builds
the backend for an underlay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .base import DelayOracle
from .exact import ExactOracle
from .landmark import LandmarkOracle

if TYPE_CHECKING:  # pragma: no cover - import-cycle-free type hints only
    from ..topology.physical import PhysicalTopology

__all__ = [
    "DelayOracle",
    "ExactOracle",
    "LandmarkOracle",
    "OracleSpec",
    "parse_oracle_spec",
    "make_oracle",
]

#: The grammar every parse error names.
_GRAMMAR = "expected 'exact | landmark[:k]'"


@dataclass(frozen=True)
class OracleSpec:
    """Parsed form of an oracle selection string (hashable, picklable)."""

    #: Backend kind: ``"exact"`` or ``"landmark"``.
    kind: str
    #: Landmark count *k* (landmark backend only).
    n_landmarks: int = 16


def parse_oracle_spec(spec: str) -> OracleSpec:
    """Parse ``exact`` / ``landmark[:k]``.

    Raises ``ValueError`` with a pointed message on anything malformed, so
    a typo in a config or CLI flag fails at setup time, not mid-experiment.
    """
    text = spec.strip().lower()
    if not text:
        raise ValueError(f"empty oracle spec; {_GRAMMAR}")
    kind, sep, count = text.partition(":")
    if kind == "exact" and not sep:
        return OracleSpec(kind="exact")
    if kind != "landmark" or ":" in count:
        raise ValueError(f"bad oracle spec {spec!r}; {_GRAMMAR}")
    if not sep:
        return OracleSpec(kind="landmark")
    try:
        n_landmarks = int(count)
    except ValueError:
        raise ValueError(
            f"landmark count must be an integer, got {count!r} in {spec!r}; "
            f"{_GRAMMAR}"
        ) from None
    if n_landmarks < 1:
        raise ValueError(f"landmark count must be >= 1, got {n_landmarks}")
    return OracleSpec(kind="landmark", n_landmarks=n_landmarks)


def make_oracle(
    spec: str,
    physical: "PhysicalTopology",
    rng: Optional[np.random.Generator] = None,
) -> DelayOracle:
    """Build the oracle a spec string selects, for one underlay.

    *rng* feeds the landmark selection draw; pass a dedicated seeded stream
    so oracle construction never perturbs other seeded draws.  Ignored for
    ``exact``.
    """
    parsed = parse_oracle_spec(spec)
    if parsed.kind == "exact":
        return ExactOracle(physical)
    return LandmarkOracle(physical, n_landmarks=parsed.n_landmarks, rng=rng)
