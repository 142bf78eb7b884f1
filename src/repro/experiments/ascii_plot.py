"""Terminal plotting: sparklines and multi-series line charts in text.

The benches and examples print their series as tables; for eyeballing the
*shape* of a convergence curve or a sweep, a picture helps.  These helpers
render series with plain Unicode so figure shapes are visible directly in
``bench_output.txt`` and CLI output, with no plotting dependency.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

__all__ = ["sparkline", "line_chart"]

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: Optional[int] = None) -> str:
    """Render a numeric series as a one-line sparkline.

    Values are min-max normalized over the series; ``width`` (optional)
    downsamples long series by averaging buckets.
    """
    vals = [float(v) for v in values]
    if not vals:
        return ""
    if width is not None and width > 0 and len(vals) > width:
        bucket = len(vals) / width
        vals = [
            sum(vals[int(i * bucket): max(int(i * bucket) + 1, int((i + 1) * bucket))])
            / max(1, len(vals[int(i * bucket): max(int(i * bucket) + 1, int((i + 1) * bucket))]))
            for i in range(width)
        ]
    lo, hi = min(vals), max(vals)
    if hi == lo:
        return _SPARK_LEVELS[0] * len(vals)
    scale = (len(_SPARK_LEVELS) - 1) / (hi - lo)
    return "".join(_SPARK_LEVELS[int(round((v - lo) * scale))] for v in vals)


def line_chart(
    series: Mapping[str, Sequence[float]],
    height: int = 10,
    width: Optional[int] = None,
    y_label_width: int = 10,
) -> str:
    """Render one or more series as a text line chart.

    All series share the y-axis (global min/max).  Each series gets a
    distinct marker; a legend line follows the chart.  ``width`` truncates
    or pads the x-axis to a fixed number of columns (defaults to the
    longest series).
    """
    if height < 2:
        raise ValueError("height must be >= 2")
    if not series:
        return ""
    markers = "*o+x#@%&"
    lengths = [len(v) for v in series.values()]
    n = width or max(lengths)
    if n == 0:
        return ""

    all_values = [float(v) for vs in series.values() for v in vs]
    lo, hi = min(all_values), max(all_values)
    span = hi - lo

    grid: List[List[str]] = [[" "] * n for _ in range(height)]
    for idx, (_name, vs) in enumerate(series.items()):
        marker = markers[idx % len(markers)]
        for x, v in enumerate(list(vs)[:n]):
            if span == 0:
                row = height - 1
            else:
                frac = (float(v) - lo) / span
                row = height - 1 - int(round(frac * (height - 1)))
            grid[row][x] = marker

    lines: List[str] = []
    for r, row in enumerate(grid):
        if r == 0:
            label = f"{hi:.3g}".rjust(y_label_width)
        elif r == height - 1:
            label = f"{lo:.3g}".rjust(y_label_width)
        else:
            label = " " * y_label_width
        lines.append(f"{label} |{''.join(row)}")
    lines.append(" " * y_label_width + "+" + "-" * n)
    legend = "  ".join(
        f"{markers[i % len(markers)]}={name}" for i, name in enumerate(series)
    )
    lines.append(" " * (y_label_width + 1) + legend)
    return "\n".join(lines)
