"""Live asyncio network runtime for the ACE protocol.

Everything under ``repro.net`` runs the *same* protocol logic as the
discrete-event simulation (``repro.sim`` / ``repro.core``) over real
sockets: peers are asyncio endpoints with listening sockets and outbound
connection pools, descriptors from :mod:`repro.sim.messages` cross the
wire in the length-prefixed binary framing of :mod:`repro.net.wire`, and a
seed node (:mod:`repro.net.seed`) bootstraps membership and orchestrates
ACE optimization rounds as a token-passing sequence of live
``CostProbe`` / ``CostTableMessage`` / ``ConnectRequest`` exchanges.

Layering contract (enforced by replint REP015): wall-clock reads and
blocking socket/sleep calls are confined to this package, and this package
never imports ``repro.experiments`` — the launcher
(:mod:`repro.net.launch`) accepts a pre-built scenario object instead, so
the experiment layer stays above the runtime, never below it.

See ``docs/NETWORK.md`` for the architecture, the wire format and the
sim-vs-live convergence contract.
"""

from .launch import plan_queries, run_live, run_sim_reference
from .runtime import NetConfig

__all__ = ["NetConfig", "plan_queries", "run_live", "run_sim_reference"]
