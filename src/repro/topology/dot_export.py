"""Graphviz DOT export for overlays and underlays.

For inspecting small worlds by eye: exports the logical overlay (optionally
colored by autonomous system and annotated with link costs) or the physical
underlay in plain DOT, renderable with ``dot -Tsvg`` or any Graphviz
viewer.  No Graphviz dependency — the writer emits the text format.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .overlay import Overlay
from .physical import PhysicalTopology

__all__ = ["overlay_to_dot", "physical_to_dot", "write_dot"]

# A categorical palette cycled over AS ids.
_PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b5", "#59a14f",
    "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
)


def _quote(value: object) -> str:
    return '"' + str(value).replace('"', r"\"") + '"'


def overlay_to_dot(
    overlay: Overlay,
    name: str = "overlay",
    as_labels: Optional[np.ndarray] = None,
    show_costs: bool = True,
    highlight_edges: Optional[Sequence] = None,
) -> str:
    """Render the logical overlay as a DOT graph.

    Parameters
    ----------
    as_labels:
        Optional per-host AS ids (e.g. from
        :func:`~repro.topology.autonomous_systems.transit_stub`); peers are
        then filled with one color per AS.
    show_costs:
        Annotate each logical link with its measured cost.
    highlight_edges:
        Edges (as ``(u, v)`` pairs) drawn bold red — e.g. a spanning tree.
    """
    highlight = {
        (min(u, v), max(u, v)) for u, v in (highlight_edges or ())
    }
    lines = [f"graph {_quote(name)} {{"]
    lines.append("  node [shape=circle, style=filled, fillcolor=white];")
    for peer in overlay.peers():
        attrs = [f"label={_quote(peer)}"]
        if as_labels is not None:
            as_id = int(as_labels[overlay.host_of(peer)])
            color = _PALETTE[as_id % len(_PALETTE)]
            attrs.append(f"fillcolor={_quote(color)}")
            attrs.append(f"tooltip={_quote(f'AS {as_id}')}")
        lines.append(f"  {peer} [{', '.join(attrs)}];")
    if show_costs:
        # One batched underlay solve for every edge label, then dict probes.
        overlay.warm_edge_costs()
    edge_costs = (
        {(u, v): overlay.cost(u, v) for u, v in overlay.edges()}
        if show_costs
        else {}
    )
    for u, v in sorted(overlay.edges()):
        attrs = []
        if show_costs:
            attrs.append(f"label={_quote(round(edge_costs[(u, v)], 1))}")
        if (u, v) in highlight:
            attrs.append("color=red")
            attrs.append("penwidth=2.5")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {u} -- {v}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def physical_to_dot(
    physical: PhysicalTopology,
    name: str = "underlay",
    max_nodes: int = 400,
) -> str:
    """Render the physical underlay as a DOT graph.

    Refuses graphs beyond *max_nodes* (DOT layouts of 20,000-node underlays
    are neither useful nor tractable); raise the cap explicitly if needed.
    """
    if physical.num_nodes > max_nodes:
        raise ValueError(
            f"underlay has {physical.num_nodes} nodes > max_nodes={max_nodes}; "
            "export a subgraph or raise the cap"
        )
    lines = [f"graph {_quote(name)} {{"]
    lines.append("  node [shape=point];")
    coords = physical.coordinates
    for node in physical.nodes():
        if coords is not None:
            x, y = coords[node]
            lines.append(
                f"  {node} [pos={_quote(f'{x / 72:.3f},{y / 72:.3f}!')}];"
            )
        else:
            lines.append(f"  {node};")
    for u, v, delay in sorted(physical.edges()):
        lines.append(f"  {u} -- {v} [label={_quote(round(delay, 1))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_dot(text: str, path: Union[str, Path]) -> Path:
    """Write DOT text to a file; returns the path."""
    path = Path(path)
    path.write_text(text, encoding="utf-8")
    return path
