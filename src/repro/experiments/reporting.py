"""Plain-text reporting for experiment results.

The benchmark harness regenerates the paper's tables and figures as aligned
text tables and series listings printed to stdout (and captured in
``bench_output.txt``), so "who wins, by how much, where the crossover falls"
can be read directly off the run.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence, Union

__all__ = ["format_table", "format_series", "format_percent"]

Cell = Union[str, int, float, None]


def _render(cell: Cell, precision: int) -> str:
    if cell is None:
        return "-"
    if isinstance(cell, bool):
        return str(cell)
    if isinstance(cell, int):
        return str(cell)
    if isinstance(cell, float):
        return f"{cell:.{precision}f}"
    return str(cell)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    precision: int = 2,
    title: Optional[str] = None,
) -> str:
    """Render an aligned ASCII table."""
    rendered = [[_render(c, precision) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(
    x_label: str,
    x_values: Sequence[Cell],
    series: Mapping[str, Sequence[Cell]],
    precision: int = 2,
    title: Optional[str] = None,
) -> str:
    """Render several aligned series sharing one x-axis (a figure as text)."""
    headers = [x_label] + list(series)
    rows = []
    for i, x in enumerate(x_values):
        row: List[Cell] = [x]
        for label in series:
            values = series[label]
            row.append(values[i] if i < len(values) else None)
        rows.append(row)
    return format_table(headers, rows, precision=precision, title=title)


def format_percent(value: float, precision: int = 1) -> str:
    """Render a fraction or percent value as ``'12.3%'``."""
    return f"{value:.{precision}f}%"
