"""The query entry points on the heap engine: the kernel's reference.

Production answers every query on the compiled kernel
(:mod:`repro.search.batch`), which lowers only an ``ArrayOverlay``.  Here
are the same entry points over :func:`repro.search.flooding.propagate`, on
either overlay class: :func:`run_query` / :func:`run_queries` return the
production :class:`~repro.search.batch.QueryStats`, :func:`graph_by_rows`
builds a ``CompiledGraph`` from a forwarding table, and
:func:`reference_queries` swaps the heap engine into the experiment
drivers.
"""

from __future__ import annotations

import contextlib
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np
import pytest

from repro.experiments import dynamic_env, static_env
from repro.search.batch import CompiledGraph, QueryStats
from repro.search.flooding import (
    GNUTELLA_TTL,
    ForwardingStrategy,
    QueryPropagation,
    propagate,
)
from tests.reference.overlay import Overlay

from . import caching

__all__ = [
    "graph_by_rows",
    "query_stats",
    "reference_queries",
    "run_queries",
    "run_query",
]


def query_stats(prop: QueryPropagation, holders: Iterable[int]) -> QueryStats:
    """Evaluate a propagation against an object's holders.

    A holder other than the source reached at time *t* responds at ``2 t``.
    """
    reached = [h for h in holders if h in prop.arrival_time and h != prop.source]
    return QueryStats(
        source=prop.source,
        traffic_cost=prop.traffic_cost,
        search_scope=prop.search_scope,
        holders_reached=tuple(sorted(reached)),
        first_response_time=min(
            (2.0 * prop.arrival_time[h] for h in reached), default=None
        ),
    )


def run_query(
    overlay: Overlay,
    source: int,
    strategy: ForwardingStrategy,
    holders: Iterable[int],
    ttl: Optional[int] = GNUTELLA_TTL,
) -> QueryStats:
    """One query on the heap engine."""
    return query_stats(propagate(overlay, source, strategy, ttl=ttl), holders)


def run_queries(
    overlay: Overlay,
    strategy: ForwardingStrategy,
    queries: Sequence[Tuple[int, Iterable[int]]],
    ttl: Optional[int] = GNUTELLA_TTL,
) -> List[QueryStats]:
    """:func:`repro.search.batch.run_queries`, one heap query at a time."""
    return [run_query(overlay, s, strategy, holders, ttl=ttl) for s, holders in queries]


def graph_by_rows(
    overlay: Overlay,
    rows: Mapping[int, Sequence[int]],
    kind: str = "ace",
    directed: bool = True,
) -> CompiledGraph:
    """The ``CompiledGraph`` of a forwarding table, each row in table order."""
    peers = overlay.peers()
    index = {p: i for i, p in enumerate(peers)}
    lengths = [len(rows[p]) for p in peers]
    return CompiledGraph(
        kind=kind,
        peer_ids=np.array(peers, dtype=np.int64),
        indptr=np.concatenate(([0], np.cumsum(lengths))).astype(np.int64),
        targets=np.array([index[t] for p in peers for t in rows[p]], dtype=np.int64),
        costs=np.array([overlay.cost(p, t) for p in peers for t in rows[p]], dtype=np.float64),
        index=index,
        directed=directed,
    )


@contextlib.contextmanager
def reference_queries():
    """Answer the drivers' queries on the heap engine."""
    with pytest.MonkeyPatch.context() as patch:
        for module in (static_env, dynamic_env):
            patch.setattr(module, "run_queries", run_queries)
        patch.setattr(dynamic_env, "cached_query", caching.cached_query)
        yield
