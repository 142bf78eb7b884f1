"""Phase 3 pinned bit for bit: one step at 200 peers per policy and switch.

Each row was recorded before Phase 3 shared one read of the peer's row
across shedding, target order and every replacement attempt; any change to
which candidate is drawn, tried, charged or cut moves a row.  A row holds
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
        200, "0x1.cfe665755104dp+21", "0x1.65cf934eac166p+21", "0x1.5ba5b56663213p+20",
        206, 24, 37, 399, 428, "52fa64486b8c06ac", "2175be47fa0af315",
    ),
    ("random", True, False): (
        200, "0x1.dd9e359c93f35p+21", "0x1.75d16007b9c12p+21", "0x1.7da5ac68db32dp+20",
        272, 23, 0, 461, 491, "adf04d0bff8b8fe7", "4815fccde1f53c46",
    ),
    ("random", False, True): (
        200, "0x1.ca48a9b1561bap+21", "0x1.5ffad0d53a994p+21", "0x1.53d98a32a8629p+20",
        195, 0, 40, 392, 425, "ef52e822a53aacac", "d47a59d79d0856d0",
    ),
    ("random", False, False): (
        200, "0x1.d39241e535ff8p+21", "0x1.69a1da012bf27p+21", "0x1.75a9cc5573794p+20",
        250, 0, 0, 445, 481, "be5fe3ba5d82c481", "458bac1cdd8f8f01",
    ),
    ("closest", True, True): (
        200, "0x1.baf3287825a8ep+21", "0x1.4dec51a7c2c16p+21", "0x1.4b9384b9ec053p+23",
        278, 13, 31, 3275, 386, "ddcbc7002311d2aa", "7c5811a64bb09047",
    ),
    ("closest", True, False): (
        200, "0x1.bea1b02bba41bp+21", "0x1.5191475aa1b10p+21", "0x1.898992f04312dp+23",
        316, 14, 0, 4030, 423, "3438b769b2a81ce1", "9b5b075a88fb3c3f",
    ),
    ("closest", False, True): (
        200, "0x1.b66bbb96c1080p+21", "0x1.46e0b52c30041p+21", "0x1.365f1423ffd95p+23",
        266, 0, 27, 3064, 371, "52d659069124852d", "ea60a96e0519fd4a",
    ),
    ("closest", False, False): (
        200, "0x1.b91fb7fb19882p+21", "0x1.49110a7c696e8p+21", "0x1.6987077e8cc40p+23",
        295, 0, 0, 3674, 399, "e9ec5543e807f90b", "df53b0734db73f75",
    ),
    ("naive", True, True): (
        200, "0x1.d60892f31155bp+21", "0x1.6966058411b09p+21", "0x1.f66b3d99b8608p+18",
        117, 16, 37, 159, 159, "b7f8be5691c2032f", "26081c6578a819b9",
    ),
    ("naive", True, False): (
        200, "0x1.e05b3f9f3a01ap+21", "0x1.77f9c6ac758f2p+21", "0x1.02fa07572559ap+19",
        119, 19, 0, 164, 164, "2fdc7856178bda8f", "b0abc9d725cd4ff9",
    ),
    ("naive", False, True): (
        200, "0x1.d2d46004c72fcp+21", "0x1.674c29c167650p+21", "0x1.f6d1f3ff51494p+18",
        117, 0, 36, 159, 159, "69e5778fa89658e0", "91334223486e704f",
    ),
    ("naive", False, False): (
        200, "0x1.dd2a69de8a61ap+21", "0x1.75cc4c1a9411bp+21", "0x1.0308491b66dcep+19",
        118, 0, 0, 164, 164, "dd2fc3fea83e4b6e", "5dfbe3ceb21fac09",
    ),
}


def digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


@pytest.mark.parametrize("key", sorted(PINS), ids=lambda k: "-".join(map(str, k)))
def test_one_step_is_pinned(key):
    # A world of its own: copies of one scenario share the host-pair cost
    # cache, so a copy's probe costs would depend on the runs before it.
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
