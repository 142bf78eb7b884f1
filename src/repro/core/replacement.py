"""Neighbor replacement — ACE Phase 3 (paper Section 3.3, Figure 4).

A source peer S examines a non-flooding neighbor C and probes a candidate H
drawn from C's neighbor list.  With d(x, y) the probed cost:

* **Figure 4(b)** — ``d(S,H) < d(S,C)``: S establishes S-H and cuts S-C.
  C keeps H, so connectivity is preserved (S-H-C replaces S-C).
* **Figure 4(c)** — ``d(S,C) <= d(S,H) < d(C,H)``: S establishes S-H but
  keeps C; the redundant long link C-H is expected to be shed later by C's
  own optimization once H turns non-flooding for C.
* **Figure 4(d)** — otherwise: nothing changes.

Each probe is a ping/pong over the (potential) logical link and is charged
``ROUND_TRIP_FACTOR * d(S,H)`` cost units of overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set

import numpy as np

from ..metrics.collector import left_fold
from .policies import CandidatePolicy

__all__ = [
    "ROUND_TRIP_FACTOR",
    "MIN_DEGREE",
    "MAX_PROBES_PER_TARGET",
    "ReplacementAction",
    "attempt_replacement",
]

#: Cost multiplier of one probe: a ping/pong over the (potential) logical
#: link.  Phase 1 charges its neighbor probes at the same rate
#: (:func:`~repro.core.turn.phase1_charges`).
ROUND_TRIP_FACTOR = 2.0
#: A Figure 4(b) cut never leaves the target below this logical degree
#: unless the candidate is the target's neighbor; also the lowest shed floor.
MIN_DEGREE = 2
#: Candidates a random or naive policy probes per target (the closest
#: policy probes the target's whole neighbor list).
MAX_PROBES_PER_TARGET = 1


@dataclass(frozen=True)
class ReplacementAction:
    """Outcome of one Phase-3 attempt for a (source, target) pair.

    ``kind`` is one of:

    * ``"replace"`` — Figure 4(b): new link to ``candidate``, link to
      ``target`` cut.
    * ``"keep_both"`` — Figure 4(c): new link to ``candidate``, ``target``
      kept.
    * ``"none"`` — Figure 4(d) for every probed candidate, or no candidates.
    """

    kind: str
    source: int
    target: int
    candidate: Optional[int]
    probes: int
    probe_cost: float


def attempt_replacement(
    view,
    source: int,
    target: int,
    mine: Set[int],
    d_sc: float,
    policy: CandidatePolicy,
    rng: np.random.Generator,
    allow_keep_both: bool = True,
) -> ReplacementAction:
    """Run Phase 3 for one non-flooding neighbor *target* of *source*.

    *mine* is the source's neighbor set as its turn keeps it — edited here
    on a new or cut link — and *d_sc* the probed link cost d(S,C); the
    target's own neighbor set is read once and answers the candidate pool,
    the degree guard and whether the candidate is already its neighbor.
    Every probed candidate is charged; they are tried cheapest first.  A
    Figure 4(b) cut is skipped when it would drop the *target* below
    :data:`MIN_DEGREE` and the candidate is not the target's neighbor.
    With *allow_keep_both* ``False`` the Figure 4(c) branch is disabled —
    the behaviour of the AOTO precursor, which only ever swaps connections.
    """
    theirs = view.neighbors(target)
    pool = policy.pool(source, mine, theirs, lambda: view.peers())
    probed = policy.probe(pool, rng, MAX_PROBES_PER_TARGET)
    if not probed:
        return ReplacementAction("none", source, target, None, 0, 0.0)

    # One batched read: a live turn probes every candidate in one round.
    d_src = view.costs_from(source, probed)
    probe_cost = ROUND_TRIP_FACTOR * left_fold(d_src[h] for h in probed)
    order = sorted(probed, key=lambda h: (d_src[h], h))

    # Target-rooted costs are only needed on the keep-both branch; read
    # lazily (one batched sweep) the first time a candidate reaches it.
    d_tgt = None

    for cand in order:
        d_sh = d_src[cand]
        if d_sh < d_sc:
            # Figure 4(b): strictly closer — replace the far neighbor.
            if len(theirs) - 1 >= MIN_DEGREE or cand in theirs:
                view.connect(source, cand)
                view.disconnect(source, target)
                mine.add(cand)
                mine.discard(target)
                return ReplacementAction(
                    "replace", source, target, cand, len(probed), probe_cost
                )
            continue

        if d_tgt is None:
            d_tgt = view.costs_from(target, order)
        if allow_keep_both and d_sh < d_tgt[cand]:
            # Figure 4(c): farther than C, but closer than the C-H link —
            # establish S-H and keep C; C is expected to shed C-H later.
            view.connect(source, cand)
            mine.add(cand)
            return ReplacementAction(
                "keep_both", source, target, cand, len(probed), probe_cost
            )
        # Figure 4(d): try the next candidate (the closest policy's pool).

    return ReplacementAction(
        "none", source, target, None, len(probed), probe_cost
    )
