"""replint — the repro repository's AST-based invariant checker.

Six rules hold the contracts nothing else in the repository holds:
**REP001** determinism (seeded, threaded randomness), **REP003** layering
(substrate never imports drivers), **REP009** RNG stream order, **REP012**
float order, **REP013** suppression hygiene and **REP015** the live-network
boundary.  See ``docs/STATIC_ANALYSIS.md``.

Usage::

    python -m tools.replint src tests          # CLI
    from tools.replint import check_paths      # pytest bridge / programmatic

Suppress a finding with ``# replint: disable=REP0xx — reason`` on (or
directly above) the offending line.
"""

from .engine import (
    FileContext,
    Rule,
    Violation,
    check_file,
    check_paths,
    iter_python_files,
)
from .rules import default_rules, rules_by_code

__all__ = [
    "FileContext",
    "Rule",
    "Violation",
    "check_file",
    "check_paths",
    "iter_python_files",
    "default_rules",
    "rules_by_code",
]
