"""The object-model reference, built by hand from public API.

``build_scenario`` and the overlay generators only ever return the
production ``ArrayOverlay``; a test that compares production with the
dict-of-sets ``Overlay`` builds the twin here.  ACE on the twin is the
per-peer reference loop of :mod:`tests.reference.ace` (``AceProtocol``
refuses an object overlay), over the reference Phases 1-2:
:mod:`~tests.reference.closure` (h-neighbor closures),
:mod:`~tests.reference.cost_table` (member cost tables and Phase-1
charges) and :mod:`~tests.reference.spanning_tree` (heap Prim).  Queries
on the twin run on the heap engine (:mod:`~tests.reference.search`,
:mod:`~tests.reference.caching`): the compiled kernel lowers only an
``ArrayOverlay``, and a hand-built object overlay reaches it through
:func:`array_twin`.  Every
comparison asserts the types of both sides —
:func:`production_and_reference` does it for scenarios — so it cannot
silently turn into array-vs-array.
"""

import copy
import dataclasses

from repro.experiments.setup import Scenario, ScenarioConfig, build_scenario
from repro.oracle.base import DelayOracle
from repro.topology.soa import ArrayOverlay
from tests.reference.overlay import Overlay


def fresh_oracle(oracle: DelayOracle) -> DelayOracle:
    """An oracle answering like *oracle*, over the same underlay, that
    remembers no host pair: the oracle owns the host-pair store, so a twin
    on the same oracle would read the pairs its original stored."""
    clone = copy.deepcopy(oracle, {id(oracle.physical): oracle.physical})
    clone._store.clear()
    vars(clone).get("_partial", {}).clear()
    return clone


def twin(cls, overlay: Overlay, **kwargs) -> Overlay:
    """A *cls* overlay (built with *kwargs*) with *overlay*'s peers, hosts
    and edges, over a fresh copy of its oracle."""
    peers = overlay.peers()
    twin = cls(overlay.physical, {p: overlay.host_of(p) for p in peers}, **kwargs)
    for u in peers:
        for v in sorted(overlay.neighbors(u)):
            if u < v:
                twin.connect(u, v)
    twin.use_oracle(fresh_oracle(overlay.oracle))
    return twin


def object_twin(overlay: Overlay) -> Overlay:
    """An ``Overlay`` with *overlay*'s peers, hosts and edges (see :func:`twin`)."""
    return twin(Overlay, overlay)


def array_twin(overlay: Overlay) -> ArrayOverlay:
    """*overlay* itself if it is an ``ArrayOverlay``, else its array twin."""
    if isinstance(overlay, ArrayOverlay):
        return overlay
    return twin(ArrayOverlay, overlay)


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
