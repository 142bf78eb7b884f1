"""Comparison schemes and extensions from the paper's related work.

* :mod:`~repro.extensions.aoto` — the AOTO precursor of ACE ([8]).
* :mod:`~repro.extensions.ltm` — simplified Location-aware Topology
  Matching ([9]), a triangle-cutting comparator.
* :mod:`~repro.extensions.hpf` — Hybrid Periodical Flooding ([23]),
  weighted partial flooding.
* :mod:`~repro.extensions.gia` — Gia capacity-aware adaptation ([4]),
  which fixes a *different* matching problem.
"""

from .aoto import AotoProtocol, aoto_config
from .gia import GiaAdaptation, GiaReport, assign_capacities
from .hpf import HPF_WEIGHTINGS, hpf_strategy
from .ltm import LtmProtocol, LtmReport

__all__ = [
    "AotoProtocol",
    "aoto_config",
    "LtmProtocol",
    "LtmReport",
    "hpf_strategy",
    "HPF_WEIGHTINGS",
    "GiaAdaptation",
    "GiaReport",
    "assign_capacities",
]
