"""Asyncio runtime plumbing: delivery disciplines, latency, accounting.

The live network must *be* a real network (sockets, reader tasks, frames)
while still being able to reproduce the simulator's results exactly.  The
pieces here make that possible:

:class:`DeliveryCoordinator`
    The data plane's delivery scheduler, in one of two disciplines.

    * ``"lockstep"`` replays the simulator's event heap on a live network.
      Every data frame (Query/QueryHit) gets a global send sequence number
      at *send* time — the exact counter the simulator's
      :class:`~repro.sim.engine.EventLoop` uses to break same-timestamp
      ties — and carries its logical arrival time ``ltime``.  Frames still
      genuinely cross sockets and the codec; the coordinator merely holds
      each received frame until the wire is quiescent and then runs
      handlers in ``(ltime, seq)`` order.  Deliveries therefore happen in
      *exactly* the simulator's order, including tie-breaks, which is what
      makes the sim-vs-live convergence check an equality, not a tolerance.
    * ``"realtime"`` delivers each data frame at the wall-clock deadline
      ``epoch + ltime * latency_scale`` — the artificial-latency injection
      that reproduces the simulated underlay's delay matrix in real time.
      ``latency_scale`` is seconds per cost unit; ``0`` delivers as fast as
      asyncio can schedule.

:class:`TrafficLedger`
    Cost/byte accounting, one entry per transmitted data frame, keyed by
    the send sequence.  Summing a kind's costs in sequence order replays
    the simulator's accumulation order — float addition is not
    associative, and the convergence check compares totals bit for bit.

:class:`NetConfig`
    All the runtime knobs in one bag (host, timeouts, retries, discipline).

Wall-clock reads (``loop.time``) live only in this package — replint
REP015 keeps them out of the simulation layers.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
from dataclasses import dataclass
from typing import Awaitable, Callable, Dict, List, Tuple

__all__ = [
    "NetConfig",
    "PeerUnreachable",
    "TrafficLedger",
    "DeliveryCoordinator",
]

#: Delivery disciplines understood by the coordinator.
DISCIPLINES = ("lockstep", "realtime")


class PeerUnreachable(Exception):
    """A peer could not be reached after the configured retries."""


@dataclass(frozen=True)
class NetConfig:
    """Tunable parameters of the live runtime.

    ``latency_scale`` converts logical cost units to wall-clock seconds in
    the realtime discipline (lockstep ignores it — ordering is logical).
    Timeouts are deliberately short: the runtime targets in-process
    localhost fleets where a silent peer is dead, not slow.
    """

    host: str = "127.0.0.1"
    discipline: str = "lockstep"
    latency_scale: float = 0.0
    connect_timeout: float = 2.0
    rpc_timeout: float = 5.0
    drain_timeout: float = 10.0
    max_retries: int = 2
    retry_delay: float = 0.05

    def __post_init__(self) -> None:
        if self.discipline not in DISCIPLINES:
            raise ValueError(
                f"unknown discipline {self.discipline!r}; "
                f"choose from {DISCIPLINES}"
            )
        if self.latency_scale < 0:
            raise ValueError("latency_scale must be non-negative")


@dataclass
class LedgerEntry:
    """One transmitted data frame: send order, kind, cost, wire bytes."""

    seq: int
    kind: str
    cost: float
    nbytes: int


class TrafficLedger:
    """Send-ordered accounting of data-plane traffic.

    The simulator charges each transmission the moment it is put on the
    wire, accumulating per-kind cost floats in global send order.  The
    ledger records the same information on the live network; summing a
    slice's entries sorted by ``seq`` reproduces the simulator's float
    accumulation order exactly.
    """

    def __init__(self) -> None:
        self.entries: List[LedgerEntry] = []

    def record(self, seq: int, kind: str, cost: float, nbytes: int) -> None:
        """Account one transmission (called at successful send)."""
        self.entries.append(LedgerEntry(seq, kind, cost, nbytes))

    def mark(self) -> int:
        """Position marker delimiting a measurement window."""
        return len(self.entries)

    def window(self, start: int) -> List[LedgerEntry]:
        """Entries recorded since ``mark()``, in send (seq) order."""
        return sorted(self.entries[start:], key=lambda e: e.seq)

    @staticmethod
    def cost_by_kind(entries: List[LedgerEntry]) -> Dict[str, float]:
        """Per-kind cost totals, accumulated in send order."""
        out: Dict[str, float] = {}
        for e in sorted(entries, key=lambda x: x.seq):
            out[e.kind] = out.get(e.kind, 0.0) + e.cost
        return out

    @staticmethod
    def count_by_kind(entries: List[LedgerEntry]) -> Dict[str, int]:
        """Per-kind message counts."""
        out: Dict[str, int] = {}
        for e in entries:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out


class DeliveryCoordinator:
    """Shared data-plane scheduler for an in-process peer fleet.

    Senders call :meth:`next_seq` / :meth:`will_send` before writing a
    data frame; reader tasks hand received frames to :meth:`on_frame`.
    The launcher then awaits :meth:`drain` to run one query to quiescence.

    In-flight counting is exact on the happy path (every ``will_send`` is
    matched by an ``on_frame`` or an ``abort_send``); a frame swallowed by
    a dead peer's socket never arrives, which is what the drain timeout is
    for — the run degrades to "late" instead of hanging, and the loss is
    counted in :attr:`lost_frames`.
    """

    def __init__(self, discipline: str = "lockstep", latency_scale: float = 0.0):
        if discipline not in DISCIPLINES:
            raise ValueError(f"unknown discipline {discipline!r}")
        self.discipline = discipline
        self.latency_scale = latency_scale
        self.lost_frames = 0
        self._seq = itertools.count(1)
        self._inflight = 0
        self._heap: List[Tuple[float, int, Callable[[], Awaitable[None]]]] = []
        self._tasks: "set[asyncio.Task]" = set()
        self._event = asyncio.Event()
        self._event.set()
        self._epoch = 0.0

    # -- send side ------------------------------------------------------

    def next_seq(self) -> int:
        """Allocate the next global send sequence number."""
        return next(self._seq)

    def will_send(self) -> None:
        """Declare one data frame about to hit the wire."""
        self._inflight += 1
        self._event.clear()

    def abort_send(self) -> None:
        """Undo :meth:`will_send` after a failed write."""
        self._inflight -= 1
        self._maybe_wake()

    # -- receive side ---------------------------------------------------

    def start_epoch(self) -> None:
        """Pin the realtime deadline origin to *now* (one call per query)."""
        self._epoch = asyncio.get_running_loop().time()

    def on_frame(
        self, ltime: float, seq: int, handler: Callable[[], Awaitable[None]]
    ) -> None:
        """A data frame arrived; schedule its handler per the discipline."""
        if self.discipline == "lockstep":
            heapq.heappush(self._heap, (ltime, seq, handler))
            self._inflight -= 1
            self._maybe_wake()
        else:
            deadline = self._epoch + ltime * self.latency_scale
            task = asyncio.get_running_loop().create_task(
                self._deliver_at(deadline, handler)
            )
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _deliver_at(
        self, deadline: float, handler: Callable[[], Awaitable[None]]
    ) -> None:
        delay = deadline - asyncio.get_running_loop().time()
        if delay > 0:
            await asyncio.sleep(delay)
        try:
            await handler()
        finally:
            # The handler's own sends were counted before this decrement,
            # so quiescence cannot be observed between a delivery and the
            # transmissions it caused.
            self._inflight -= 1
            self._maybe_wake()

    def _maybe_wake(self) -> None:
        if self._inflight == 0:
            self._event.set()

    # -- drain ----------------------------------------------------------

    @property
    def pending(self) -> int:
        """Frames in flight plus (lockstep) frames queued for delivery."""
        return self._inflight + len(self._heap) + len(self._tasks)

    async def drain(self, timeout: float) -> bool:
        """Run the data plane to quiescence; ``False`` on timeout.

        Lockstep: repeatedly wait for the wire to go quiet, then dispatch
        the earliest ``(ltime, seq)`` handler — the simulator's event loop,
        with real sockets as the transport.  Realtime: wait until no frame
        is in flight and no delivery task is pending.

        On timeout the in-flight count is force-cleared (frames sent to a
        peer that died mid-run can never arrive) and the loss is counted,
        so a killed peer degrades the run instead of hanging it.
        """
        loop = asyncio.get_running_loop()
        give_up = loop.time() + timeout
        while True:
            remaining = give_up - loop.time()
            if remaining <= 0:
                self.lost_frames += self._inflight
                self._inflight = 0
                self._heap.clear()
                self._event.set()
                return False
            if self._inflight > 0:
                try:
                    await asyncio.wait_for(self._event.wait(), remaining)
                except asyncio.TimeoutError:
                    continue
                continue
            if self.discipline == "lockstep":
                if not self._heap:
                    return True
                _ltime, _seq, handler = heapq.heappop(self._heap)
                await handler()
            else:
                if not self._tasks:
                    return True
                await asyncio.sleep(0)
                if self._tasks:
                    try:
                        await asyncio.wait_for(
                            asyncio.gather(
                                *list(self._tasks), return_exceptions=True
                            ),
                            remaining,
                        )
                    except asyncio.TimeoutError:
                        continue
