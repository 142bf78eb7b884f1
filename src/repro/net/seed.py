"""Seed node: bootstrap registry and ACE round orchestrator.

The seed is the live fleet's rendezvous point, modeled on the classic
bootstrap/tracker pattern: every peer dials it first, registers with a
``Hello`` and receives a ``Welcome`` carrying the membership roster, the
address book, its assigned bootstrap neighbors, its measured cost row and
the protocol configuration.  After bootstrap the seed turns into the ACE
round driver: one optimization *step* is a token-passing sweep —

1. shuffle the sorted live roster with the protocol RNG (the exact draw
   the simulator's ``AceProtocol.step`` makes),
2. hand each peer in turn an :class:`~repro.net.wire.OptimizeTurn` token
   carrying the serialized RNG state; the peer runs Phases 1-3 over live
   probe/table/connect exchanges, advances the stream, and returns the new
   state in its :class:`~repro.net.wire.TurnDone`,
3. after every turn, sweep the same order again with ``recompute`` tokens
   (the simulator's end-of-step Phase-2 refresh).

Because exactly one peer holds the token at a time, the fleet consumes
*one* RNG stream in the simulator's order, and every returned turn is
folded into the step report by the simulator's own
:func:`repro.core.turn.fold`, in the same order — which is what makes the
live run's step reports equal the simulator's float for float.

A peer that cannot be reached (killed mid-run) is marked dead: its turn is
skipped, later sweeps exclude it, and the step completes — degradation,
not deadlock.  A turn that fails at a reachable peer is recorded in
:attr:`SeedNode.turn_errors`, never dropped.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, List, Tuple

import numpy as np

from ..core.ace import AceConfig, StepReport
from ..core.replacement import ReplacementAction
from ..core.turn import Turn, fold
from .peer import LivePeer, restore_rng, serialize_rng
from .runtime import DeliveryCoordinator, NetConfig, PeerUnreachable, TrafficLedger
from .wire import Envelope, Hello, OptimizeTurn, Shutdown, Welcome

__all__ = ["SEED_ID", "PeerRecord", "SeedNode"]

#: The seed's peer id — outside every valid overlay peer id.
SEED_ID = -1


class PeerRecord:
    """What the seed knows about one expected peer."""

    def __init__(
        self, peer: int, neighbors: Tuple[int, ...], cost_row: Dict[int, float]
    ) -> None:
        self.peer = peer
        self.neighbors = tuple(neighbors)
        self.cost_row = dict(cost_row)


class SeedNode(LivePeer):
    """Bootstrap registry + token-passing ACE round driver."""

    def __init__(
        self,
        net: NetConfig,
        coordinator: DeliveryCoordinator,
        ledger: TrafficLedger,
        ace_config: AceConfig,
        shed_floor: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__(SEED_ID, net, coordinator, ledger)
        self.ace_config = ace_config
        self.shed_floor = shed_floor
        #: The protocol RNG — the single stream the whole fleet consumes.
        self.rng = rng
        self.roster: Dict[int, PeerRecord] = {}
        #: ``(step_index, peer, error repr)`` of every turn a reachable
        #: peer reported as failed.
        self.turn_errors: List[Tuple[int, int, str]] = []
        #: Generous per-turn budget: one turn is many sequential RPCs.
        self.turn_timeout = net.rpc_timeout * 8
        #: The ``Welcome`` config, built now so a configuration that cannot
        #: run live is rejected before any socket opens.
        self._welcome_config = self._config_payload()

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------

    def expect(self, record: PeerRecord, address: Tuple[str, int]) -> None:
        """Pre-register one expected peer (roster entry + address book)."""
        self.roster[record.peer] = record
        self.addresses[record.peer] = address

    def _config_payload(self) -> Dict[str, object]:
        payload = asdict(self.ace_config)
        if payload["policy"] == "naive":
            raise ValueError(
                "policy 'naive' cannot run live: it probes candidates from "
                "the whole roster, and the wire protocol only carries "
                "neighbor cost tables"
            )
        payload["shed_floor"] = self.shed_floor
        return payload

    async def on_hello(self, conn, hello: Hello, env: Envelope) -> None:
        record = self.roster.get(hello.peer)
        if record is None or env.rpc is None:
            return
        self.addresses[hello.peer] = (hello.host, hello.port)
        welcome = Welcome(
            peer=hello.peer,
            members=tuple(sorted(self.roster)),
            addresses=dict(self.addresses),
            neighbors=record.neighbors,
            cost_row=record.cost_row,
            config=self._welcome_config,
        )
        await self._send_control(
            conn, welcome,
            Envelope(src=self.peer_id, dst=hello.peer, reply=env.rpc),
        )

    # ------------------------------------------------------------------
    # ACE rounds
    # ------------------------------------------------------------------

    def live_order(self) -> List[int]:
        """Sorted live roster — the simulator's ``overlay.peers()``."""
        return [p for p in sorted(self.roster) if p not in self.dead]

    async def _pass_token(self, peer: int, phase: str, step_index: int):
        """One turn at *peer*: its ``TurnDone``, or ``None`` if it had none.

        An unreachable peer is dead-marked by :meth:`rpc`; a reachable peer
        whose turn raised is recorded in :attr:`turn_errors`.
        """
        token = serialize_rng(self.rng) if phase == "optimize" else ""
        try:
            done, _env = await self.rpc(
                peer,
                OptimizeTurn(phase=phase, step_index=step_index, rng_state=token),
                timeout=self.turn_timeout,
                retries=0,  # a re-sent turn would mutate twice
            )
        except PeerUnreachable:
            return None
        if not done.ok:
            self.turn_errors.append(
                (step_index, peer, f"{phase}: {done.report.get('error')}")
            )
            return None
        return done

    async def run_step(self, step_index: int) -> StepReport:
        """One optimization step across the fleet (sim ``step()`` live)."""
        order = self.live_order()
        self.rng.shuffle(order)
        report = StepReport(step_index=step_index)
        for peer in order:
            if peer in self.dead:
                continue
            done = await self._pass_token(peer, "optimize", step_index)
            if done is None:
                continue
            self.rng = restore_rng(done.rng_state)
            actions = [ReplacementAction(**a) for a in done.report["actions"]]
            fold(report, Turn(**{**done.report, "actions": actions}))
        # End-of-step Phase-2 refresh, same order (the simulator's
        # recompute_tree sweep): routing catches up with the final topology.
        for peer in order:
            if peer not in self.dead:
                await self._pass_token(peer, "recompute", step_index)
        return report

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    async def shutdown_all(self, reason: str = "done") -> None:
        """Tell every reachable peer to stop."""
        for peer in self.live_order():
            try:
                conn = await self.connect_to(peer)
                await self._send_control(
                    conn, Shutdown(reason=reason),
                    Envelope(src=self.peer_id, dst=peer),
                )
            except (PeerUnreachable, ConnectionError, OSError):
                continue
