"""Performance metrics (paper Section 4.2).

Traffic cost, search scope and response time come straight out of
:class:`~repro.search.batch.QueryStats`; this package adds the
bookkeeping around them: optimization-rate analysis
(:mod:`~repro.metrics.optimization`) and windowed series collection for
the dynamic experiments (:mod:`~repro.metrics.collector`).  The
engine-level performance counters (Dijkstra runs, cache hit rates,
queries/sec) live in :mod:`repro.perf`; see ``docs/PERFORMANCE.md``.
"""
