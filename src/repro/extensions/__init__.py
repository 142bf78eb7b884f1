"""Comparison schemes and extensions from the paper's related work.

* :mod:`~repro.extensions.aoto` — the AOTO precursor of ACE ([8]).
* :mod:`~repro.extensions.ltm` — simplified Location-aware Topology
  Matching ([9]), a triangle-cutting comparator.
* :mod:`~repro.extensions.hpf` — Hybrid Periodical Flooding ([23]),
  weighted partial flooding.
* :mod:`~repro.extensions.gia` — Gia capacity-aware adaptation ([4]),
  which fixes a *different* matching problem.
"""
