"""Topology substrates: the physical underlay and the logical overlay.

The paper's simulation methodology (Section 4.1) needs both layers:

* :class:`~repro.topology.physical.PhysicalTopology` — BRITE-style Internet
  underlay with link delays and shortest-path queries.
* :class:`~repro.topology.soa.ArrayOverlay` — the Gnutella-like logical
  network whose link costs are underlay shortest-path delays, held in flat
  arrays (CSR + edit buffer).  It is the only overlay class; the tests keep
  a dict-of-sets reference of it in ``tests/reference/overlay.py``.
* :mod:`~repro.topology.overlay` — the overlay generators and the synthetic
  Clip2-style crawl
  (:func:`~repro.topology.overlay.synthesize_gnutella_snapshot`).
* :mod:`~repro.topology.generators` — Waxman / Barabási–Albert / GLP /
  Watts–Strogatz underlay generators.
* :mod:`~repro.topology.properties` — power-law and small-world validation.
"""
