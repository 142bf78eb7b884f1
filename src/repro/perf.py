"""Process-wide performance counters for the delay/cost hot path.

Every metric in the paper's evaluation reduces to underlay shortest-path
delays, so simulation throughput is dominated by how often the delay engine
has to fall back to a real Dijkstra run.  This module provides cheap global
counters that the engine layers increment as they work:

* :class:`PhysicalTopology <repro.topology.physical.PhysicalTopology>` counts
  Dijkstra invocations (``dijkstra_runs``), how many single-source solves
  those invocations performed in total (``dijkstra_sources``, > runs when the
  batched path is used), and hits/misses of the per-source distance LRU.
* :class:`Overlay <repro.topology.overlay.Overlay>` counts hits/misses of the
  persistent logical edge-cost cache that ``propagate()`` reads in its inner
  loop.
* :func:`propagate <repro.search.flooding.propagate>` counts queries and
  accumulates wall-clock time, so ``queries_per_second`` reports end-to-end
  simulation throughput.

Counters are plain module-global state: increments are cheap and each
process owns its own bag.  Use :func:`reset_counters` (or
``counters.reset()``) at the start of a measurement region and
:meth:`PerfCounters.snapshot` / ``counters - before`` style deltas at the
end.

Snapshots are **mergeable**: a worker process measures its trial with
``before = counters.copy()`` / ``counters.delta(before)`` and ships the
delta dict home with its result, and the parent folds it in with
:meth:`PerfCounters.merge`.  Accumulators add, the ``largest_batch``
high-water mark maxes, and derived rates are recomputed — so ``--perf``
and the budget gates report fleet-wide totals instead of silently dropping
worker-side Dijkstra counts (see
:func:`repro.experiments.parallel.run_trials`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Mapping, Union

__all__ = ["PerfCounters", "counters", "get_counters", "reset_counters"]


@dataclass
class PerfCounters:
    """Mutable bag of hot-path counters (see module docstring)."""

    #: Number of scipy ``dijkstra`` invocations (one per batch or single run).
    dijkstra_runs: int = 0
    #: Total single-source solves performed across all invocations.
    dijkstra_sources: int = 0
    #: Largest number of sources solved by one batched invocation.
    largest_batch: int = 0
    #: Distance-vector LRU hits (a ``delays_from``/``delay`` served cached).
    delay_cache_hits: int = 0
    #: Distance-vector LRU misses (a lookup that forced a Dijkstra run).
    delay_cache_misses: int = 0
    #: Logical edge costs served from the per-overlay edge-cost cache.
    edge_cost_hits: int = 0
    #: Logical edge costs that had to be computed (then memoized).
    edge_cost_misses: int = 0
    #: Completed :func:`~repro.search.flooding.propagate` simulations.
    queries: int = 0
    #: Wall-clock seconds spent inside ``propagate``.
    query_seconds: float = 0.0
    #: Underlay graphs built by running a generator from the seeded config.
    underlay_builds: int = 0
    #: Underlay graphs attached zero-copy from shared memory instead.
    underlay_attaches: int = 0
    #: Delay answers served from an approximate oracle's embedding.
    oracle_estimates: int = 0
    #: Approximate-oracle queries that spent exact-fallback budget instead.
    oracle_exact_fallbacks: int = 0
    #: Single-source solves spent building landmark embeddings.
    landmark_embed_sources: int = 0
    #: Forwarding strategies lowered to a CSR graph (cache misses only).
    compiled_strategies: int = 0
    #: Queries answered by the vectorized multi-source kernel.
    batched_queries: int = 0
    #: Fringe peers re-settled by the query kernel's TTL gate.
    frontier_rounds: int = 0
    #: CSR re-packs performed by the struct-of-arrays overlay engine.
    soa_compactions: int = 0
    #: Compactions that had buffered edits/tombstones to fold in.
    soa_edit_buffer_flushes: int = 0
    #: Flat ACE-state store re-packs of the membership snapshot arrays.
    array_state_syncs: int = 0
    #: Optimization steps executed by the batched ACE kernel.
    ace_batched_steps: int = 0
    #: Peer closures extracted by shared CSR frontier sweeps (kernel blocks).
    closure_batch_peers: int = 0
    #: Overlay mutations folded into batch-handled churn events.
    churn_batch_mutations: int = 0
    #: Closure extractions avoided by the ``(epoch, depth)`` reuse cache
    #: (scalar refresh/recompute sharing) or the kernel's rebuild shortcut.
    closure_reuses: int = 0
    #: Outbound socket connections opened by the live network runtime.
    net_connections: int = 0
    #: Frames transmitted by the live runtime (control + data planes).
    net_messages_sent: int = 0
    #: Bytes put on the wire by the live runtime (framed, encoded size).
    net_bytes_sent: int = 0
    #: Reconnect/RPC retry attempts made by the live runtime.
    net_retries: int = 0

    # ------------------------------------------------------------------

    @property
    def queries_per_second(self) -> float:
        """End-to-end propagation throughput (0 when nothing ran)."""
        if self.query_seconds <= 0.0:
            return 0.0
        return self.queries / self.query_seconds

    def reset(self) -> None:
        """Zero every counter in place."""
        for f in dataclasses.fields(self):
            setattr(self, f.name, f.default)

    def snapshot(self) -> Dict[str, Union[int, float]]:
        """Immutable copy of the current values (plus derived throughput)."""
        out: Dict[str, Union[int, float]] = dataclasses.asdict(self)
        out["queries_per_second"] = self.queries_per_second
        return out

    def delta(self, before: "PerfCounters") -> Dict[str, Union[int, float]]:
        """Field-wise difference ``self - before`` (for measurement regions).

        ``largest_batch`` is reported as the current value, not a difference
        (it is a high-water mark, not an accumulator).
        """
        out: Dict[str, Union[int, float]] = {}
        for f in dataclasses.fields(self):
            if f.name == "largest_batch":
                out[f.name] = getattr(self, f.name)
            else:
                out[f.name] = getattr(self, f.name) - getattr(before, f.name)
        return out

    def copy(self) -> "PerfCounters":
        """Independent copy of the current values."""
        return dataclasses.replace(self)

    def merge(self, snapshot: Mapping[str, Union[int, float]]) -> None:
        """Fold another process's snapshot/delta into this bag, in place.

        Accumulators add; ``largest_batch`` (a high-water mark) takes the
        max; derived keys like ``queries_per_second`` are ignored and
        recomputed from the merged totals.  Unknown keys are ignored so
        snapshots from newer/older workers stay compatible.
        """
        for f in dataclasses.fields(self):
            value = snapshot.get(f.name)
            if value is None:
                continue
            if f.name == "largest_batch":
                self.largest_batch = max(self.largest_batch, int(value))
            else:
                setattr(self, f.name, getattr(self, f.name) + value)

    def format(self) -> str:
        """Human-readable multi-line rendering for CLI/bench output."""
        lines = ["perf counters:"]
        lines.append(
            f"  dijkstra: {self.dijkstra_runs} runs, "
            f"{self.dijkstra_sources} sources solved "
            f"(largest batch {self.largest_batch})"
        )
        lines.append(
            f"  delay LRU: {self.delay_cache_hits} hits / "
            f"{self.delay_cache_misses} misses"
        )
        lines.append(
            f"  edge-cost cache: {self.edge_cost_hits} hits / "
            f"{self.edge_cost_misses} misses"
        )
        lines.append(
            f"  queries: {self.queries} in {self.query_seconds:.3f}s "
            f"({self.queries_per_second:.0f}/s)"
        )
        lines.append(
            f"  underlays: {self.underlay_builds} built, "
            f"{self.underlay_attaches} attached from shared memory"
        )
        lines.append(
            f"  oracle: {self.oracle_estimates} estimates, "
            f"{self.oracle_exact_fallbacks} exact fallbacks, "
            f"{self.landmark_embed_sources} landmark embed sources"
        )
        lines.append(
            f"  batched search: {self.batched_queries} queries, "
            f"{self.compiled_strategies} strategies compiled, "
            f"{self.frontier_rounds} frontier rounds"
        )
        lines.append(
            f"  array engine: {self.soa_compactions} compactions "
            f"({self.soa_edit_buffer_flushes} with buffered edits), "
            f"{self.array_state_syncs} state syncs"
        )
        lines.append(
            f"  ace kernel: {self.ace_batched_steps} batched steps, "
            f"{self.closure_batch_peers} closures batch-extracted, "
            f"{self.closure_reuses} closure reuses, "
            f"{self.churn_batch_mutations} churn mutations batched"
        )
        lines.append(
            f"  net: {self.net_connections} connections, "
            f"{self.net_messages_sent} frames / {self.net_bytes_sent} bytes "
            f"sent, {self.net_retries} retries"
        )
        return "\n".join(lines)


#: The process-wide counter instance every engine layer increments.
counters = PerfCounters()


def get_counters() -> PerfCounters:
    """The process-wide :data:`counters` instance."""
    return counters


def reset_counters() -> None:
    """Zero the process-wide counters."""
    counters.reset()
