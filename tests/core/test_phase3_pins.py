"""Phase 3 pinned bit for bit: one step at 200 peers per policy and switch.

Each row was recorded before Phase 3 shared one read of the peer's row
across shedding, target order and every replacement attempt, and its floats
re-recorded once when link delays moved onto the 2**-10 grid (no count or
edge digest moved); any change to which candidate is drawn, tried, charged
or cut moves a row.  A row holds
the :class:`~repro.core.ace.StepReport` (floats as ``float.hex``), the
action count, and digests of the per-action tuples and of the sorted edge
set after the step.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core.ace import AceConfig, AceProtocol
from repro.experiments.setup import ScenarioConfig, build_scenario

#: (policy, allow_keep_both, shed_redundant) -> (peers_optimized,
#: probe_overhead, exchange_overhead, replacement_probe_overhead,
#: replacements, keep_both_adds, redundant_sheds, probes, actions,
#: action digest, edge digest)
PINS = {
    ("random", True, True): (
        200, "0x1.cfe6673c00000p+21", "0x1.65cf950ec28f4p+21", "0x1.5ba5b6c800000p+20",
        206, 24, 37, 399, 428, "b8f2223f517c6709", "2175be47fa0af315",
    ),
    ("random", True, False): (
        200, "0x1.dd9e377c00000p+21", "0x1.75d161e647ae1p+21", "0x1.7da5ae2000000p+20",
        272, 23, 0, 461, 491, "695495e92fe3eb71", "4815fccde1f53c46",
    ),
    ("random", False, True): (
        200, "0x1.ca48ab6c00000p+21", "0x1.5ffad27f33331p+21", "0x1.53d98b4000000p+20",
        195, 0, 40, 392, 425, "8aa797cca40927af", "d47a59d79d0856d0",
    ),
    ("random", False, False): (
        200, "0x1.d392439400000p+21", "0x1.69a1dba6ae144p+21", "0x1.75a9cdb800000p+20",
        250, 0, 0, 445, 481, "74a47a5804651400", "458bac1cdd8f8f01",
    ),
    ("closest", True, True): (
        200, "0x1.baf32a4400000p+21", "0x1.4dec536a66665p+21", "0x1.4b93859d00000p+23",
        278, 13, 31, 3275, 386, "fc646c445a93ddd6", "7c5811a64bb09047",
    ),
    ("closest", True, False): (
        200, "0x1.bea1b20800000p+21", "0x1.5191492d5c28dp+21", "0x1.8989944400000p+23",
        316, 14, 0, 4030, 423, "2067777e775c7209", "9b5b075a88fb3c3f",
    ),
    ("closest", False, True): (
        200, "0x1.b66bbd6000000p+21", "0x1.46e0b6db51eb2p+21", "0x1.365f14ef00000p+23",
        266, 0, 27, 3064, 371, "540ccb1c9cb4f6e5", "ea60a96e0519fd4a",
    ),
    ("closest", False, False): (
        200, "0x1.b91fb9cc00000p+21", "0x1.49110c33f5c25p+21", "0x1.698708a300000p+23",
        295, 0, 0, 3674, 399, "5256fba888b08381", "df53b0734db73f75",
    ),
    ("naive", True, True): (
        200, "0x1.d60894bc00000p+21", "0x1.69660737cccccp+21", "0x1.f66b3ce000000p+18",
        117, 16, 37, 159, 159, "60179502047c6cb2", "26081c6578a819b9",
    ),
    ("naive", True, False): (
        200, "0x1.e05b418400000p+21", "0x1.77f9c889ae147p+21", "0x1.02fa06b000000p+19",
        119, 19, 0, 164, 164, "a426ed500235ef51", "b0abc9d725cd4ff9",
    ),
    ("naive", False, True): (
        200, "0x1.d2d461d000000p+21", "0x1.674c2b76e1478p+21", "0x1.f6d1f32000000p+18",
        117, 0, 36, 159, 159, "effeaad023710420", "91334223486e704f",
    ),
    ("naive", False, False): (
        200, "0x1.dd2a6bc400000p+21", "0x1.75cc4df899999p+21", "0x1.0308487000000p+19",
        118, 0, 0, 164, 164, "877b787c3ac51ceb", "5dfbe3ceb21fac09",
    ),
}


def digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


@pytest.mark.parametrize("key", sorted(PINS), ids=lambda k: "-".join(map(str, k)))
def test_one_step_is_pinned(key):
    # A world of its own per key, so no pin depends on the keys run before it.
    policy, keep_both, shed = key
    overlay = build_scenario(
        ScenarioConfig(physical_nodes=800, peers=200, seed=3)
    ).overlay
    config = AceConfig(policy=policy, allow_keep_both=keep_both, shed_redundant=shed)
    protocol = AceProtocol(overlay, config, rng=np.random.default_rng(7))
    report = protocol.step()
    fields = [
        v.hex() if isinstance(v, float) else v
        for v in dataclasses.astuple(report)[1:]
    ]
    actions = [
        (a.kind, a.source, a.target, a.candidate, a.probes, a.probe_cost.hex())
        for a in protocol.last_actions
    ]
    edges = sorted((min(u, v), max(u, v)) for u, v in overlay.edges())
    got = (*fields, len(actions), digest(actions), digest(edges))
    assert got == PINS[key]
