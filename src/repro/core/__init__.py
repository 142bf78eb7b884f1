"""ACE core: the paper's primary contribution.

Exports the protocol driver (:class:`AceProtocol` / :class:`AceConfig`).
Its building blocks — one peer's turn, Phases 1-3
(:mod:`~repro.core.turn`), the batched step kernel
(:mod:`~repro.core.batch_ace`), Phase-3 replacement
(:mod:`~repro.core.replacement`) and the candidate policies
(:mod:`~repro.core.policies`) — are imported from their modules.
"""

from .ace import AceConfig, AceProtocol

__all__ = ["AceProtocol", "AceConfig"]
