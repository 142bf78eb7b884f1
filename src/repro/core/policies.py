"""Candidate-selection policies for ACE Phase 3.

The paper's Section 6: "In our simulations, we only use random policy to
replace a non-flooding neighbor by a random selected candidate.  We are
studying several alternatives ... the naive policy simply disconnects the
source node's most expensive neighbor [and probes] some other nodes ...
The second one is closest policy in which the source will probe the costs to
all of the non-flooding neighbor's neighbors, and select the closest one."

We implement all three.  A policy answers two questions for a source peer:

* which non-flooding neighbors to try to replace, and in what order
  (:meth:`CandidatePolicy.targets`), and
* which candidate peers to probe for a given target
  (:meth:`CandidatePolicy.candidates`).

Every returned candidate is probed (a cost-unit charge accounted by the
replacement engine), so a policy's candidate count directly controls the
overhead/optimization-quality trade-off studied in Figures 13-16.
"""

from __future__ import annotations

import abc
from typing import List, Sequence, Set

import numpy as np

from ..topology.overlay import Overlay

__all__ = [
    "CandidatePolicy",
    "RandomPolicy",
    "ClosestPolicy",
    "NaivePolicy",
    "make_policy",
]


class CandidatePolicy(abc.ABC):
    """Strategy for picking replacement targets and candidates."""

    name: str = "abstract"

    def targets(
        self,
        overlay: Overlay,
        source: int,
        non_flooding: Sequence[int],
        rng: np.random.Generator,
    ) -> List[int]:
        """Non-flooding neighbors to attempt to replace, in order.

        Default: all of them, most expensive first (the peer wants to shed
        its physically farthest connections first).
        """
        return sorted(
            non_flooding, key=lambda n: (-overlay.cost(source, n), n)
        )

    @abc.abstractmethod
    def candidates(
        self,
        overlay: Overlay,
        source: int,
        target: int,
        rng: np.random.Generator,
        limit: int,
    ) -> List[int]:
        """Ordered candidate peers to probe as replacements for *target*."""

    def _eligible(
        self, overlay: Overlay, source: int, target: int
    ) -> List[int]:
        """Target's neighbors that could become new neighbors of *source*."""
        exclude: Set[int] = set(overlay.neighbors(source))
        exclude.add(source)
        return sorted(n for n in overlay.neighbors(target) if n not in exclude)


class RandomPolicy(CandidatePolicy):
    """The paper's evaluated policy: probe random neighbors of the target."""

    name = "random"

    def candidates(
        self,
        overlay: Overlay,
        source: int,
        target: int,
        rng: np.random.Generator,
        limit: int,
    ) -> List[int]:
        """Up to *limit* uniformly random eligible neighbors of *target*."""
        pool = self._eligible(overlay, source, target)
        if not pool:
            return []
        k = min(limit, len(pool))
        idx = rng.choice(len(pool), size=k, replace=False)
        return [pool[int(i)] for i in idx]


class ClosestPolicy(CandidatePolicy):
    """Probe *all* of the target's neighbors; try the closest first.

    More probes (higher overhead) but the best replacement quality — the
    second future-work policy of Section 6.
    """

    name = "closest"

    def candidates(
        self,
        overlay: Overlay,
        source: int,
        target: int,
        rng: np.random.Generator,
        limit: int,
    ) -> List[int]:
        """The whole eligible pool, cheapest (from *source*) first."""
        pool = self._eligible(overlay, source, target)
        pool.sort(key=lambda h: (overlay.cost(source, h), h))
        # The engine charges a probe per returned candidate; "closest" pays
        # for the whole pool even though it tries the best one first.
        return pool

    def probes_charged(self, overlay: Overlay, source: int, target: int) -> List[int]:
        """All peers probed regardless of which candidate is tried."""
        return self._eligible(overlay, source, target)


class NaivePolicy(CandidatePolicy):
    """Cut the most expensive neighbor; probe random peers anywhere.

    Section 6's first future-work policy: not restricted to the target's
    neighborhood, so it explores globally but with no locality guidance.
    """

    name = "naive"

    def targets(
        self,
        overlay: Overlay,
        source: int,
        non_flooding: Sequence[int],
        rng: np.random.Generator,
    ) -> List[int]:
        """Only the single most expensive non-flooding neighbor."""
        if not non_flooding:
            return []
        worst = max(non_flooding, key=lambda n: (overlay.cost(source, n), n))
        return [worst]

    def candidates(
        self,
        overlay: Overlay,
        source: int,
        target: int,
        rng: np.random.Generator,
        limit: int,
    ) -> List[int]:
        """Random peers from anywhere in the overlay (no locality)."""
        exclude: Set[int] = set(overlay.neighbors(source))
        exclude.add(source)
        pool = [p for p in overlay.peers() if p not in exclude]
        if not pool:
            return []
        k = min(limit, len(pool))
        idx = rng.choice(len(pool), size=k, replace=False)
        return [pool[int(i)] for i in idx]


_POLICIES = {
    RandomPolicy.name: RandomPolicy,
    ClosestPolicy.name: ClosestPolicy,
    NaivePolicy.name: NaivePolicy,
}


def make_policy(name: str) -> CandidatePolicy:
    """The :class:`CandidatePolicy` a policy name selects."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
