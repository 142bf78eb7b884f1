"""Topology substrates: the physical underlay and the logical overlay.

The paper's simulation methodology (Section 4.1) needs both layers:

* :class:`~repro.topology.physical.PhysicalTopology` — BRITE-style Internet
  underlay with link delays and shortest-path queries.
* :class:`~repro.topology.overlay.Overlay` — the Gnutella-like logical
  network whose link costs are underlay shortest-path delays.
* :class:`~repro.topology.soa.ArrayOverlay` — struct-of-arrays overlay
  engine (flat CSR + edit buffer) for 100k+-peer experiments.
* :mod:`~repro.topology.generators` — Waxman / Barabási–Albert / GLP /
  Watts–Strogatz underlay generators.
* :mod:`~repro.topology.properties` — power-law and small-world validation.
* :mod:`~repro.topology.trace` — synthetic Clip2-style crawl snapshots.
"""
