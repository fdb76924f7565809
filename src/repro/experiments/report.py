"""Plain-text rendering of experiment results.

The benchmark harness is terminal-first: each figure's regeneration
prints the same rows/series the paper plots, as an aligned text table,
plus the scalar findings and one verdict line per paper claim.  (We
deliberately do not depend on matplotlib: the library targets offline
CI environments.)
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.experiments.results import FigureResult
from repro.metrics.collectors import TimeSeries

__all__ = ["format_table", "render_result", "ascii_chart"]


def format_table(rows: Sequence[Sequence[str]]) -> str:
    """Align a header+body list-of-rows into a fixed-width table."""
    if not rows:
        return ""
    widths = [0] * max(len(row) for row in rows)
    for row in rows:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(str(cell)))
    lines: List[str] = []
    for index, row in enumerate(rows):
        padded = [str(cell).rjust(widths[col]) for col, cell in enumerate(row)]
        lines.append("  ".join(padded))
        if index == 0:
            lines.append("  ".join("-" * widths[col] for col in range(len(row))))
    return "\n".join(lines)


def ascii_chart(
    series_list: Sequence[TimeSeries],
    width: int = 64,
    height: int = 14,
    log_scale: bool = True,
) -> str:
    """Render one or more time series as an ASCII chart.

    Each series gets a distinct marker (``*``, ``o``, ``+``, ``x``,
    ...).  ``log_scale`` plots log10 of positive values — the natural
    view for the paper's SDM/GDM curves, which span orders of
    magnitude.  Intended for terminal-first figure regeneration; not a
    substitute for real plotting, but enough to *see* the shapes.
    """
    markers = "*o+x#@%&"
    points = []
    for index, series in enumerate(series_list):
        marker = markers[index % len(markers)]
        for time, value in series:
            points.append((time, value, marker))
    if not points:
        return "(no data)"

    def transform(value: float) -> Optional[float]:
        if not log_scale:
            return value
        if value <= 0:
            return None
        return math.log10(value)

    times = [p[0] for p in points]
    values = [transform(p[1]) for p in points]
    finite = [v for v in values if v is not None]
    if not finite:
        return "(no positive data for log scale)"
    t_low, t_high = min(times), max(times)
    v_low, v_high = min(finite), max(finite)
    t_span = (t_high - t_low) or 1.0
    v_span = (v_high - v_low) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for (time, raw, marker), value in zip(points, values):
        if value is None:
            continue
        column = int((time - t_low) / t_span * (width - 1))
        row = int((value - v_low) / v_span * (height - 1))
        grid[height - 1 - row][column] = marker

    scale = "log10" if log_scale else "linear"
    lines = [f"{v_high:10.3g} |" + "".join(grid[0])]
    for row in grid[1:-1]:
        lines.append(" " * 10 + " |" + "".join(row))
    lines.append(f"{v_low:10.3g} |" + "".join(grid[-1]))
    lines.append(" " * 12 + "-" * width)
    lines.append(
        " " * 12 + f"{t_low:<10g}{'time':^{max(width - 20, 4)}}{t_high:>10g}"
    )
    legend = "  ".join(
        f"{markers[i % len(markers)]}={series.name}"
        for i, series in enumerate(series_list)
    )
    lines.append(f"[{scale}]  {legend}")
    return "\n".join(lines)


def render_result(result: FigureResult, max_rows: int = 20) -> str:
    """Human-readable report for one regenerated figure."""
    lines: List[str] = []
    lines.append("=" * 72)
    lines.append(f"{result.figure}: {result.title}")
    lines.append("=" * 72)
    if result.params:
        params = ", ".join(f"{k}={v}" for k, v in result.params.items())
        lines.append(f"params: {params}")
        lines.append("")
    if result.series:
        lines.append(format_table(result.rows(max_rows)))
        lines.append("")
    if result.scalars:
        lines.append("findings:")
        for name, value in result.scalars.items():
            if isinstance(value, float):
                lines.append(f"  {name} = {value:.6g}")
            else:
                lines.append(f"  {name} = {value}")
        lines.append("")
    for claim, holds in result.verdicts:
        verdict = "holds" if holds else "FAILS"
        lines.append(f"{verdict}: {claim.name} ({claim.section}) {claim.statement}")
    for note in result.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)
