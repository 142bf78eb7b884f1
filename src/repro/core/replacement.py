"""Neighbor replacement — ACE Phase 3 (paper Section 3.3, Figure 4).

A source peer S examines a non-flooding neighbor C and probes a candidate H
drawn from C's neighbor list.  With d(x, y) the probed cost:

* **Figure 4(b)** — ``d(S,H) < d(S,C)``: S establishes S-H and cuts S-C.
  C keeps H, so connectivity is preserved (S-H-C replaces S-C).
* **Figure 4(c)** — ``d(S,C) <= d(S,H) < d(C,H)``: S establishes S-H but
  keeps C; the redundant long link C-H is expected to be shed later by C's
  own optimization once H turns non-flooding for C.
* **Figure 4(d)** — otherwise: nothing changes; S keeps probing other
  candidates of C (up to the configured probe budget).

Each probe is a ping/pong over the (potential) logical link and is charged
``round_trip_factor * d(S,H)`` cost units of overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..topology.overlay import Overlay
from .policies import CandidatePolicy

__all__ = ["ReplacementAction", "attempt_replacement"]


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
    overlay: Overlay,
    source: int,
    target: int,
    policy: CandidatePolicy,
    rng: np.random.Generator,
    max_probes: int = 1,
    round_trip_factor: float = 2.0,
    max_degree: Optional[int] = None,
    min_degree: int = 1,
    allow_keep_both: bool = True,
) -> ReplacementAction:
    """Run Phase 3 for one non-flooding neighbor of *source*.

    Parameters
    ----------
    max_probes:
        Probe budget per target (the paper's random policy probes one
        candidate; the closest policy probes the whole neighbor list).
    max_degree:
        If set, a Figure 4(c) "keep both" addition is skipped when it would
        push *source* above this logical degree (the replacement of 4(b) is
        degree-neutral and always allowed).
    min_degree:
        A cut is skipped when it would drop the *target* below this degree
        (defensive guard; Figure 4(b) already guarantees the target keeps
        the candidate as a neighbor).
    allow_keep_both:
        When ``False`` the Figure 4(c) branch is disabled — the behaviour of
        the AOTO precursor, which only ever swaps connections.
    """
    if not overlay.has_edge(source, target):
        return ReplacementAction("none", source, target, None, 0, 0.0)

    candidates = policy.candidates(overlay, source, target, rng, max_probes)
    if not candidates:
        return ReplacementAction("none", source, target, None, 0, 0.0)

    d_sc = overlay.cost(source, target)
    probes = 0
    probe_cost = 0.0

    # All source-rooted probe costs come from one batched sweep: the same
    # underlay vector serves the charged pool and every candidate below.
    d_src = overlay.costs_from(source, list(candidates))

    # The closest policy pays for probing the full eligible pool up front.
    charged = getattr(policy, "probes_charged", None)
    if charged is not None:
        pool = charged(overlay, source, target)
        probes = len(pool)
        pool_costs = overlay.costs_from(source, pool)
        probe_cost = round_trip_factor * sum(pool_costs[h] for h in pool)

    # Target-rooted costs are only needed on the keep-both branch; solved
    # lazily (one batched sweep) the first time a candidate reaches it.
    d_tgt = None

    tried = 0
    for cand in candidates:
        if tried >= max_probes and charged is None:
            break
        tried += 1
        d_sh = d_src[cand]
        if charged is None:
            probes += 1
            probe_cost += round_trip_factor * d_sh

        if d_sh < d_sc:
            # Figure 4(b): strictly closer — replace the far neighbor.
            if overlay.degree(target) - 1 >= min_degree or overlay.has_edge(
                target, cand
            ):
                overlay.connect(source, cand)
                overlay.disconnect(source, target)
                return ReplacementAction(
                    "replace", source, target, cand, probes, probe_cost
                )
            continue

        if d_tgt is None:
            d_tgt = overlay.costs_from(target, list(candidates))
        d_ch = d_tgt[cand]
        if allow_keep_both and d_sh < d_ch:
            # Figure 4(c): farther than C, but closer than the C-H link —
            # establish S-H and keep C; C is expected to shed C-H later.
            if max_degree is not None and overlay.degree(source) >= max_degree:
                continue
            overlay.connect(source, cand)
            return ReplacementAction(
                "keep_both", source, target, cand, probes, probe_cost
            )
        # Figure 4(d): keep probing.

    return ReplacementAction("none", source, target, None, probes, probe_cost)
