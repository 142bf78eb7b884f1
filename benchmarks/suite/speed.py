"""How fast the box is right now, sampled while the program runs.

The benchmark box is a few cores of a shared host.  Its speed moves between
regimes up to 1.7x apart that last from seconds to minutes, so two wall-clock
readings of one call differ by 10 to 50% depending on when they were taken,
and longer runs do not average that out.  A reading is therefore corrected by
the speed of the box *during that reading*: a 25 Hz interval timer interrupts
the main thread and times a fixed 0.7 ms kernel, about 2% of the run.
``speed`` is the reference kernel time over the mean sampled kernel time; wall
seconds times ``speed`` are "reference seconds", which is what the end-to-end
timings report.

What the kernel does decides how well it follows the program.  The box slows
down when neighbours on the host push the guest's lines out of the shared
last-level cache (steal time stays at zero, and a busy second vCPU inside the
guest changes nothing), so a kernel that lives in registers or in the L2 cache
sees a fraction of what the program sees.  The kernel here visits, in random
order, 1000 of 30 000 small Python dicts (about 12 MB: larger than L2, smaller
than L3), which is what the simulator's driver code and the asyncio runtime do
between their numpy and socket calls.  README.md has the measurements that
chose it over a bytecode loop, a JSON round trip, numpy gathers in L2 and L3
and a socketpair round trip.

Per-layer span times stay raw wall seconds; ``harness.box_speed`` and
``harness.run_wall_s`` of the traced run tell how to convert.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from typing import Iterator, List

import numpy as np

#: Mean kernel time inside a running workload on the seed commit's box while
#: it was quiet.  It fixes the unit only: every reference second scales with it.
REFERENCE_KERNEL_S = 0.58e-3
INTERVAL_S = 0.04
HEAP_OBJECTS = 30000
VISITS = 1000


class SpeedProbe:
    def __init__(self) -> None:
        self._heap = [{"k": i, "v": [i, i + 1, str(i)]} for i in range(HEAP_OBJECTS)]
        self._order = [int(i) for i in np.random.default_rng(0).permutation(HEAP_OBJECTS)]
        self._at = 0
        self._samples: List[float] = []

    def _kernel(self, *_signal_args: object) -> None:
        start = time.perf_counter()
        heap, at, total = self._heap, self._at, 0
        for i in self._order[at:at + VISITS]:
            total += heap[i]["v"][1]
        self._at = (at + VISITS) % HEAP_OBJECTS
        self._samples.append(time.perf_counter() - start)

    @contextmanager
    def sampling(self) -> Iterator[List[float]]:
        """Sample the kernel while the block runs; yields the list being filled.

        At least one sample is taken, at the end, so that a block shorter
        than the timer interval still has a speed.
        """
        samples: List[float] = []
        self._samples = samples
        previous = signal.signal(signal.SIGALRM, self._kernel)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield samples
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self._kernel()


def speed(samples: List[float]) -> float:
    """1.0 on the reference box when quiet; below 1.0 when the box is slower.

    The slowest twentieth of the samples is left out of the mean: a sample
    that met a page fault reads ten times the others and says nothing about
    the seconds around it.
    """
    kept = sorted(samples)[: max(1, len(samples) - len(samples) // 20)]
    return REFERENCE_KERNEL_S / statistics.fmean(kept)
