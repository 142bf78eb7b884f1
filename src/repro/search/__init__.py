"""Search mechanisms over the overlay.

* :mod:`~repro.search.flooding` — the blind-flooding baseline and the shared
  query-propagation engine.
* :mod:`~repro.search.tree_routing` — ACE multicast-tree query routing.
* :mod:`~repro.search.caching` — the response index caching extension.
* :mod:`~repro.search.batch` — compiled forwarding graphs and the
  vectorized multi-source propagation kernel.
"""

from .batch import run_queries
from .flooding import blind_flooding_strategy
from .tree_routing import ace_strategy

__all__ = ["blind_flooding_strategy", "ace_strategy", "run_queries"]
