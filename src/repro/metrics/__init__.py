"""Performance metrics (paper Section 4.2).

Traffic cost, search scope and response time come straight out of
:class:`~repro.search.flooding.QueryResult`; this package adds the
bookkeeping around them: optimization-rate analysis and windowed series
collection for the dynamic experiments.  The engine-level
performance counters (Dijkstra runs, cache hit rates, queries/sec — see
:mod:`repro.perf` and ``docs/PERFORMANCE.md``) are re-exported here as
:data:`perf_counters` so metric consumers can read simulation throughput
alongside the paper's metrics.
"""

from ..perf import PerfCounters, counters as perf_counters
from .collector import SeriesCollector, Summary, summarize
from .optimization import (
    OptimizationTradeoff,
    minimal_depth_for_gain,
    optimization_rate,
)

__all__ = [
    "SeriesCollector",
    "Summary",
    "summarize",
    "OptimizationTradeoff",
    "optimization_rate",
    "minimal_depth_for_gain",
    "PerfCounters",
    "perf_counters",
]
