"""AOTO — Adaptive Overlay Topology Optimization (the ACE precursor).

Reference [8] of the paper: "A preliminary design of ACE, which is called
AOTO, has been discussed in [Liu et al., GLOBECOM 2003]."  AOTO has two
components:

* **Selective flooding**: a minimum spanning tree over the peer and its
  immediate logical neighbors only (h = 1), exactly ACE's Phase 2; and
* **Active topology optimization**: a non-flooding neighbor C is replaced by
  one of C's neighbors when that candidate is strictly closer — the Figure
  4(b) swap — with *no* "keep both" branch (ACE's Figure 4(c) is the
  refinement that distinguishes the two schemes).

We therefore express AOTO as an :class:`~repro.core.ace.AceProtocol`
configuration: depth 1, keep-both disabled.  The figure row comparing the
two (``ablation_aoto_vs_ace`` in :mod:`repro.experiments.figures`) is the
ablation the related-work section implies.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from ..core.ace import AceConfig, AceProtocol
from ..topology.soa import ArrayOverlay

__all__ = ["aoto_config", "AotoProtocol"]


def aoto_config(base: Optional[AceConfig] = None) -> AceConfig:
    """An :class:`AceConfig` restricted to AOTO's behaviour."""
    base = base or AceConfig()
    return replace(base, depth=1, allow_keep_both=False)


class AotoProtocol(AceProtocol):
    """ACE restricted to AOTO semantics (h=1, swap-only Phase 3)."""

    def __init__(
        self,
        overlay: ArrayOverlay,
        config: Optional[AceConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(overlay, aoto_config(config), rng=rng)
