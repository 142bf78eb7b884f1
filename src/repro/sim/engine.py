"""Discrete-event simulation kernel.

A minimal, deterministic heap-based event loop.  The dynamic-environment
experiments (paper Section 5.2) schedule peer lifetimes, query issues and
per-peer ACE optimization ticks on this loop; query propagation itself is
evaluated analytically per query (see :mod:`repro.search.flooding`), which
keeps 10^5-query simulations fast while preserving the event-level dynamics
that matter — who is alive, and how stale each peer's routing state is, at
the moment each query is issued.

Events scheduled for the same timestamp fire in scheduling order (a
monotonically increasing sequence number breaks ties), so simulations are
fully reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

__all__ = ["EventHandle", "EventLoop"]


@dataclass
class EventHandle:
    """Cancellable reference to a scheduled event."""

    time: float
    seq: int
    callback: Optional[Callable[[], None]]

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`EventLoop.cancel` was called on this event."""
        return self.callback is None


class EventLoop:
    """A deterministic discrete-event scheduler."""

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulation time (seconds by convention)."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of scheduled (possibly cancelled) events."""
        return len(self._heap)

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule *callback* at absolute simulation time *time*."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule in the past: {time} < now {self._now}"
            )
        handle = EventHandle(time=time, seq=next(self._seq), callback=callback)
        heapq.heappush(self._heap, (handle.time, handle.seq, handle))
        return handle

    def schedule_in(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule *callback* after *delay* seconds."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self._now + delay, callback)

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a scheduled event (no-op if already fired or cancelled)."""
        handle.callback = None

    def step(self) -> bool:
        """Execute the next event.  Returns ``False`` when none remain."""
        while self._heap:
            time, _seq, handle = heapq.heappop(self._heap)
            if handle.callback is None:
                continue
            self._now = time
            callback, handle.callback = handle.callback, None
            callback()
            self._processed += 1
            return True
        return False

    def run_until(self, end_time: float) -> None:
        """Run all events with time <= *end_time*, then advance the clock."""
        while self._heap:
            time, _seq, handle = self._heap[0]
            if time > end_time:
                break
            self.step()
        self._now = max(self._now, end_time)

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the event queue (optionally at most *max_events* events)."""
        executed = 0
        while self.step():
            executed += 1
            if max_events is not None and executed >= max_events:
                break
        return executed
