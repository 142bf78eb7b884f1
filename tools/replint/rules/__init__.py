"""The replint rules: the invariants no test, runtime check or benchmark holds.

========  ======================  =====================================================
Code      Name                    Invariant
========  ======================  =====================================================
REP001    determinism             randomness is seeded and threaded, never ambient
REP003    layering                topology/sim never import experiment-layer modules
REP009    rng-streams             SeedSequence.spawn() children are consumed in
                                  order, once, in range, by their allocator
REP012    float-order             no order-dependent float reductions over sets in
                                  simulation decision logic
REP013    suppression-hygiene     every disable pragma names a registered code and
                                  carries a justification
REP015    net-boundary            wall clocks, sockets and sleeps live only in
                                  repro.net; repro.net never imports experiments
========  ======================  =====================================================

``REP000`` is reserved for parse errors (emitted by the engine, not a rule).
Every rule is per-file.  Each invariant, and the test, sanitizer check or
benchmark that holds each contract replint does not check, is documented
in ``docs/STATIC_ANALYSIS.md``.
"""

from __future__ import annotations

from typing import Dict, List

from ..engine import Rule
from .determinism import DeterminismRule
from .float_order import FloatOrderRule
from .layering import LayeringRule
from .net_boundary import NetBoundaryRule
from .rng_streams import RngStreamsRule
from .suppression_hygiene import SuppressionHygieneRule

__all__ = [
    "DeterminismRule",
    "LayeringRule",
    "RngStreamsRule",
    "FloatOrderRule",
    "SuppressionHygieneRule",
    "NetBoundaryRule",
    "default_rules",
    "rules_by_code",
]


def default_rules() -> List[Rule]:
    """One instance of every shipped rule, in code order."""
    return [
        DeterminismRule(),
        LayeringRule(),
        RngStreamsRule(),
        FloatOrderRule(),
        SuppressionHygieneRule(),
        NetBoundaryRule(),
    ]


def rules_by_code() -> Dict[str, Rule]:
    """Map ``REP0xx`` codes to fresh rule instances."""
    return {rule.code: rule for rule in default_rules()}
