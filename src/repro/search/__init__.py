"""Search mechanisms over the overlay.

* :mod:`~repro.search.flooding` — the blind-flooding baseline and the shared
  query-propagation engine.
* :mod:`~repro.search.tree_routing` — ACE multicast-tree query routing.
* :mod:`~repro.search.caching` — the response index caching extension.
* :mod:`~repro.search.batch` — compiled forwarding graphs and the
  vectorized multi-source propagation kernel.
"""

from .batch import (
    BatchPropagation,
    CompiledGraph,
    QueryStats,
    RingPropagator,
    compile_strategy,
    propagate_many,
    propagate_single,
    run_queries,
)
from .caching import IndexCache, IndexCacheStore, cached_query
from .expanding_ring import (
    DEFAULT_TTL_SCHEDULE,
    RingResult,
    expanding_ring_query,
)
from .random_walk import WalkResult, random_walk_query
from .flooding import (
    GNUTELLA_TTL,
    ForwardingStrategy,
    QueryPropagation,
    QueryResult,
    blind_flooding_strategy,
    propagate,
    run_query,
)
from .tree_routing import ace_propagate, ace_query, ace_strategy

__all__ = [
    "GNUTELLA_TTL",
    "ForwardingStrategy",
    "QueryPropagation",
    "QueryResult",
    "propagate",
    "run_query",
    "blind_flooding_strategy",
    "ace_strategy",
    "ace_propagate",
    "ace_query",
    "IndexCache",
    "IndexCacheStore",
    "cached_query",
    "WalkResult",
    "random_walk_query",
    "RingResult",
    "expanding_ring_query",
    "DEFAULT_TTL_SCHEDULE",
    "BatchPropagation",
    "CompiledGraph",
    "QueryStats",
    "RingPropagator",
    "compile_strategy",
    "propagate_many",
    "propagate_single",
    "run_queries",
]
