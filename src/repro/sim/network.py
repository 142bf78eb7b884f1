"""Message-level overlay network on the discrete-event kernel.

The experiment drivers evaluate queries analytically (weighted BFS in
:mod:`repro.search.flooding`) for speed.  :class:`MessageNetwork` is the
ground-truth alternative: peers are attached as message handlers, every
descriptor is an object from :mod:`repro.sim.messages`, and deliveries are
events on the :class:`~repro.sim.engine.EventLoop` with the logical hop's
underlay delay.  The integration suite proves the two agree
(`tests/integration/test_message_level.py`), which is what justifies using
the fast path everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Protocol

from ..rng import ensure_rng
from ..topology.soa import ArrayOverlay
from .engine import EventLoop
from .messages import Message

__all__ = ["MessageHandler", "NetworkStats", "MessageNetwork"]


class MessageHandler(Protocol):
    """Anything that can receive overlay messages."""

    def on_message(
        self, network: "MessageNetwork", message: Message, sender: int, now: float
    ) -> None:
        """Handle a delivered message."""


@dataclass
class NetworkStats:
    """Running totals of message-level traffic."""

    messages: int = 0
    traffic_cost: float = 0.0
    dropped_dead_links: int = 0
    lost_messages: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)
    cost_by_kind: Dict[str, float] = field(default_factory=dict)

    def record(self, message: Message, cost: float) -> None:
        """Account one transmission."""
        self.messages += 1
        self.traffic_cost += cost
        self.by_kind[message.kind] = self.by_kind.get(message.kind, 0) + 1
        self.cost_by_kind[message.kind] = (
            self.cost_by_kind.get(message.kind, 0.0) + cost
        )


class MessageNetwork:
    """Delivers messages between attached peers over live logical links.

    A positive *loss_rate* makes delivery unreliable (the transmission is
    still charged — the bytes left the sender); the failure-injection suite
    uses this to check that the protocols degrade rather than break.
    """

    def __init__(
        self,
        overlay: ArrayOverlay,
        loop: Optional[EventLoop] = None,
        loss_rate: float = 0.0,
        rng=None,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self.overlay = overlay
        self.loop = loop or EventLoop()
        self.stats = NetworkStats()
        self.loss_rate = loss_rate
        self._rng = rng
        self._handlers: Dict[int, MessageHandler] = {}

    def attach(self, peer: int, handler: MessageHandler) -> None:
        """Register the handler that receives *peer*'s messages."""
        if not self.overlay.has_peer(peer):
            raise KeyError(f"peer {peer} not in overlay")
        self._handlers[peer] = handler

    def detach(self, peer: int) -> None:
        """Remove a peer's handler (messages in flight are dropped)."""
        self._handlers.pop(peer, None)

    def handler_of(self, peer: int) -> Optional[MessageHandler]:
        """The attached handler, if any."""
        return self._handlers.get(peer)

    def send(self, sender: int, target: int, message: Message) -> bool:
        """Transmit *message* over the logical link sender-target.

        The transmission is charged (cost units = the link's underlay
        delay) the moment it is put on the wire — a dropped duplicate at
        the receiver still consumed the network, exactly the paper's
        unnecessary-traffic accounting.  Returns ``False`` (nothing
        charged) when the link no longer exists.
        """
        if not self.overlay.has_edge(sender, target):
            self.stats.dropped_dead_links += 1
            return False
        cost = self.overlay.cost(sender, target)
        self.stats.record(message, cost)
        if self.loss_rate > 0.0:
            if self._rng is None:
                # Deterministic fallback: loss draws reproduce run-to-run
                # even when the caller did not thread an RNG.
                self._rng = ensure_rng(None)
            if self._rng.random() < self.loss_rate:
                self.stats.lost_messages += 1
                return True  # charged, never delivered

        def deliver() -> None:
            handler = self._handlers.get(target)
            if handler is not None and self.overlay.has_peer(target):
                handler.on_message(self, message, sender, self.loop.now)

        self.loop.schedule_in(cost, deliver)
        return True

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the event loop (all in-flight messages)."""
        return self.loop.run(max_events=max_events)
