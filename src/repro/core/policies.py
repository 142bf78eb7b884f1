"""Candidate-selection policies for ACE Phase 3.

The paper's Section 6: "In our simulations, we only use random policy to
replace a non-flooding neighbor by a random selected candidate.  We are
studying several alternatives ... the naive policy simply disconnects the
source node's most expensive neighbor [and probes] some other nodes ...
The second one is closest policy in which the source will probe the costs to
all of the non-flooding neighbor's neighbors, and select the closest one."

We implement all three.  A policy answers three questions for a source
peer, from what the turn has already read — never from the overlay:

* which non-flooding neighbors to try to replace, and in what order
  (:meth:`CandidatePolicy.targets`, from the source's cost row),
* which peers a replacement for one target may be drawn from
  (:meth:`CandidatePolicy.pool`, from the two neighbor sets), and
* which of them the source probes (:meth:`CandidatePolicy.probe`).

Every probed peer is charged (a cost-unit charge accounted by the
replacement engine), so a policy's probe count directly controls the
overhead/optimization-quality trade-off studied in Figures 13-16.
"""

from __future__ import annotations

import abc
from typing import Callable, Iterable, List, Mapping, Sequence, Set

import numpy as np

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
        self, non_flooding: Sequence[int], d_source: Mapping[int, float]
    ) -> List[int]:
        """Non-flooding neighbors to attempt to replace, in order.

        *d_source* maps each to its link cost from the source.  Default:
        all of them, most expensive first (the peer wants to shed its
        physically farthest connections first).
        """
        return sorted(non_flooding, key=lambda n: (-d_source[n], n))

    def pool(
        self,
        source: int,
        mine: Set[int],
        theirs: Set[int],
        roster: Callable[[], Iterable[int]],
    ) -> List[int]:
        """Peers a replacement for one target may be drawn from.

        *mine* and *theirs* are the source's and the target's neighbor
        sets, *roster* lists every live peer.  Default: the target's
        neighbors that are not yet the source's, ascending.
        """
        pool = theirs - mine
        pool.discard(source)
        return sorted(pool)

    @abc.abstractmethod
    def probe(
        self, pool: List[int], rng: np.random.Generator, limit: int
    ) -> List[int]:
        """The members of *pool* the source probes, in probe order."""


class RandomPolicy(CandidatePolicy):
    """The paper's evaluated policy: probe random neighbors of the target."""

    name = "random"

    def probe(
        self, pool: List[int], rng: np.random.Generator, limit: int
    ) -> List[int]:
        """Up to *limit* distinct members of the pool, uniformly at random.

        One member is one ``rng.integers`` call: it returns the index
        ``rng.choice(len(pool), 1, replace=False)`` would and leaves the
        generator in the same state, at a fifth of the cost
        (``tests/core/test_policies.py`` holds the equality).
        """
        if not pool:
            return []
        if limit == 1:
            return [pool[int(rng.integers(len(pool)))]]
        idx = rng.choice(len(pool), size=min(limit, len(pool)), replace=False)
        return [pool[int(i)] for i in idx]


class ClosestPolicy(CandidatePolicy):
    """Probe *all* of the target's neighbors; try the closest first.

    More probes (higher overhead) but the best replacement quality — the
    second future-work policy of Section 6.
    """

    name = "closest"

    def probe(
        self, pool: List[int], rng: np.random.Generator, limit: int
    ) -> List[int]:
        """The whole pool: the source pays for every probe, then tries the
        cheapest candidate first."""
        return pool


class NaivePolicy(RandomPolicy):
    """Cut the most expensive neighbor; probe random peers anywhere.

    Section 6's first future-work policy: not restricted to the target's
    neighborhood, so it explores globally but with no locality guidance.
    """

    name = "naive"

    def targets(
        self, non_flooding: Sequence[int], d_source: Mapping[int, float]
    ) -> List[int]:
        """Only the single most expensive non-flooding neighbor."""
        if not non_flooding:
            return []
        return [max(non_flooding, key=lambda n: (d_source[n], n))]

    def pool(
        self,
        source: int,
        mine: Set[int],
        theirs: Set[int],
        roster: Callable[[], Iterable[int]],
    ) -> List[int]:
        """Every live peer but the source and its neighbors (no locality)."""
        return [p for p in roster() if p not in mine and p != source]


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
