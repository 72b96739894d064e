"""Terminal line charts for benchmark series.

The CLI renders reproduced figures as text plots so the curve *shapes*
(knees, crossovers, saturation) are visible without a plotting stack.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Mark characters cycled across series.
MARKS = "ox+*#"
#: Plot area in characters.
WIDTH = 60
HEIGHT = 16


def ascii_chart(
    series: dict[str, Sequence[tuple[float, float]]],
    log_x: bool = False,
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render one or more (x, y) series as a monospace chart.

    Parameters
    ----------
    series:
        Mapping of legend label to points; each series gets its own mark.
    log_x:
        Plot x on a log scale (message-size sweeps).
    """
    if not series or all(len(pts) == 0 for pts in series.values()):
        raise ValueError("ascii_chart needs at least one non-empty series")
    points = [(x, y) for pts in series.values() for x, y in pts]
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    if log_x and min(xs) <= 0:
        raise ValueError("log_x requires strictly positive x values")

    def tx(x: float) -> float:
        return math.log2(x) if log_x else x

    x_lo, x_hi = tx(min(xs)), tx(max(xs))
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    grid = [[" "] * WIDTH for _ in range(HEIGHT)]
    for mark, (label, pts) in zip(MARKS * 5, series.items()):
        for x, y in pts:
            col = round((tx(x) - x_lo) / x_span * (WIDTH - 1))
            row = HEIGHT - 1 - round((y - y_lo) / y_span * (HEIGHT - 1))
            grid[row][col] = mark

    lines = []
    if y_label:
        lines.append(y_label)
    for i, row in enumerate(grid):
        tick = y_hi - i * y_span / (HEIGHT - 1)
        lines.append(f"{tick:>10.3g} |" + "".join(row))
    lines.append(" " * 11 + "+" + "-" * WIDTH)
    left = f"{min(xs):g}"
    right = f"{max(xs):g}"
    pad = " " * max(1, WIDTH - len(left) - len(right))
    lines.append(" " * 12 + left + pad + right + ("  " + x_label if x_label else ""))
    legend = "   ".join(
        f"{mark}={label}" for mark, label in zip(MARKS * 5, series)
    )
    lines.append(" " * 12 + legend)
    return "\n".join(lines)
