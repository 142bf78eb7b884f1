"""ACE core: the paper's primary contribution.

Exports the protocol driver (:class:`AceProtocol` / :class:`AceConfig`).
Its building blocks — h-neighbor closures (:mod:`~repro.core.closure`),
neighbor cost tables (:mod:`~repro.core.cost_table`), Prim spanning trees
(:mod:`~repro.core.spanning_tree`), Phase-3 replacement
(:mod:`~repro.core.replacement`) and the candidate policies
(:mod:`~repro.core.policies`) — are imported from their modules.
"""

from .ace import AceConfig, AceProtocol

__all__ = ["AceProtocol", "AceConfig"]
