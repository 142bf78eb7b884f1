"""The object-model reference, built by hand from public API.

``build_scenario`` only ever returns the production ``ArrayOverlay``; a test
that compares production with the dict-of-sets ``Overlay`` (and through it
the per-peer ``AceProtocol`` loop with its dict store) builds the twin here.
Every comparison asserts the types of both sides —
:func:`production_and_reference` does it for scenarios — so it cannot
silently turn into array-vs-array.
"""

import dataclasses

from repro.experiments.setup import Scenario, ScenarioConfig, build_scenario
from repro.topology.overlay import Overlay
from repro.topology.soa import ArrayOverlay


def object_twin(overlay: Overlay) -> Overlay:
    """An ``Overlay`` with *overlay*'s peers, hosts, edges and oracle."""
    peers = overlay.peers()
    twin = Overlay(overlay.physical, {p: overlay.host_of(p) for p in peers})
    for u in peers:
        for v in sorted(overlay.neighbors(u)):
            if u < v:
                twin.connect(u, v)
    twin.use_oracle(overlay.oracle)
    return twin


def object_scenario(config: ScenarioConfig) -> Scenario:
    """``build_scenario(config)`` with the overlay swapped for its twin."""
    scenario = build_scenario(config)
    return dataclasses.replace(scenario, overlay=object_twin(scenario.overlay))


def production_and_reference(config: ScenarioConfig):
    """Equal worlds on the production engine and on its object twin."""
    production, reference = build_scenario(config), object_scenario(config)
    assert isinstance(production.overlay, ArrayOverlay)
    assert type(reference.overlay) is Overlay
    return production, reference
