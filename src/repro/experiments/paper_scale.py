"""Paper-scale configuration presets.

The paper's simulations use 10 physical topologies of 20,000 nodes with
logical overlays of up to 8,000 peers.  The default harness is laptop-sized;
these presets provide the faithful configurations for when the compute is
available, plus honest cost estimates so a user knows what they are signing
up for before launching an hours-long run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .setup import ScenarioConfig

__all__ = [
    "PAPER_PHYSICAL_NODES",
    "PAPER_PEERS",
    "PAPER_TOPOLOGY_COUNT",
    "paper_scenario",
    "paper_seed_family",
    "estimate_static_run_cost",
]

#: Section 4.1: "10 physical topologies each with 20,000 nodes".
PAPER_PHYSICAL_NODES = 20_000
#: Section 5: "we representatively present the results based on 8,000 peers".
PAPER_PEERS = 8_000
#: The number of independent physical topologies the paper averages over.
PAPER_TOPOLOGY_COUNT = 10


def paper_scenario(
    avg_degree: float = 8.0,
    seed: int = 0,
    peers: int = PAPER_PEERS,
    physical_nodes: int = PAPER_PHYSICAL_NODES,
) -> ScenarioConfig:
    """A faithful paper-scale scenario configuration.

    Building the underlay alone takes tens of seconds; one ACE step over
    8,000 peers takes a few seconds (the benchmark's ``static_8k``).  Use
    :func:`estimate_static_run_cost` before launching.
    """
    return ScenarioConfig(
        physical_nodes=physical_nodes,
        peers=peers,
        avg_degree=avg_degree,
        seed=seed,
    )


def paper_seed_family(base_seed: int = 0) -> List[int]:
    """Seeds for the paper's 10 independent physical topologies."""
    return [base_seed + 1000 * i for i in range(PAPER_TOPOLOGY_COUNT)]


@dataclass(frozen=True)
class RunCostEstimate:
    """Back-of-envelope cost model for one static experiment."""

    peers: int
    physical_nodes: int
    steps: int
    query_samples: int
    estimated_seconds: float

    def format(self) -> str:
        """Human-readable rendering."""
        minutes = self.estimated_seconds / 60.0
        return (
            f"~{minutes:.0f} min for {self.steps} ACE steps + "
            f"{self.query_samples} query samples on {self.peers} peers "
            f"({self.physical_nodes}-node underlay)"
        )


def estimate_static_run_cost(
    config: ScenarioConfig,
    steps: int = 10,
    query_samples: int = 32,
    per_peer_step_us: float = 2_000.0,
    per_peer_query_us: float = 25.0,
    dijkstra_us_per_node: float = 1.2,
) -> RunCostEstimate:
    """Estimate the wall time of a static experiment at the given scale.

    The model: one ACE step costs ~*per_peer_step_us* per peer (closure +
    MST + probes), one full-coverage query costs ~*per_peer_query_us* per
    peer reached, and each distinct query source pays one underlay Dijkstra
    (~*dijkstra_us_per_node* per physical node).  Constants were fit on the
    default laptop harness; treat the output as an order of magnitude.
    """
    step_cost = steps * config.peers * per_peer_step_us
    query_cost = (steps + 1) * query_samples * config.peers * per_peer_query_us
    dijkstra_cost = (
        min(query_samples + config.peers, config.peers)
        * config.physical_nodes
        * dijkstra_us_per_node
    )
    total_us = step_cost + query_cost + dijkstra_cost
    return RunCostEstimate(
        peers=config.peers,
        physical_nodes=config.physical_nodes,
        steps=steps,
        query_samples=query_samples,
        estimated_seconds=total_us / 1e6,
    )
