"""Text Gantt rendering: a view over the spans of an obs-on job.

``render_timeline(intervals(job.obs.spans))`` turns the spans that carry
a ``timeline`` label into a per-rank timeline, making schedules visible
— e.g. how default-mode counter waits pile up behind rank 0's compute
while the async-thread schedule stays dense.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple


class Interval(NamedTuple):
    """One activity interval on a timeline lane."""

    lane: str
    label: str
    start: float
    end: float


def intervals(spans) -> list[Interval]:
    """The Gantt rows of a span list: every closed, non-empty span with a
    ``timeline`` label, on its rank's lane, in span order."""
    return [
        Interval(f"r{s.rank}", s.timeline, s.start, s.end)
        for s in spans
        if s.timeline is not None and s.end is not None and s.end > s.start
    ]


#: Default label -> glyph mapping; unknown labels use their first letter.
GLYPHS = {
    "compute": "#",
    "counter": "c",
    "get": "g",
    "put": "p",
    "acc": "a",
    "fence": "f",
    "barrier": "|",
}


def render_timeline(
    intervals: Iterable[Interval],
    width: int = 80,
    t0: float | None = None,
    t1: float | None = None,
) -> str:
    """Render intervals as one text row per lane.

    Later intervals overwrite earlier ones within a character cell; idle
    time shows as ``.``.
    """
    items = sorted(intervals, key=lambda iv: (iv.lane, iv.start))
    if not items:
        return "(no intervals recorded)"
    lo = t0 if t0 is not None else min(iv.start for iv in items)
    hi = t1 if t1 is not None else max(iv.end for iv in items)
    span = hi - lo
    if span <= 0:
        raise ValueError(f"empty time window [{lo}, {hi}]")

    lanes: dict[str, list[str]] = {}
    for iv in items:
        row = lanes.setdefault(iv.lane, ["."] * width)
        c0 = max(0, min(width - 1, int((iv.start - lo) / span * width)))
        c1 = max(c0 + 1, min(width, int((iv.end - lo) / span * width) + 1))
        glyph = GLYPHS.get(iv.label, iv.label[:1] or "?")
        for col in range(c0, c1):
            row[col] = glyph

    name_width = max(len(name) for name in lanes)
    lines = [
        f"{name:>{name_width}} " + "".join(row)
        for name, row in sorted(lanes.items())
    ]
    scale = f"{'':>{name_width}} t = {lo * 1e6:.1f} .. {hi * 1e6:.1f} us"
    legend = "  ".join(f"{g}={label}" for label, g in GLYPHS.items())
    return "\n".join(lines + [scale, f"{'':>{name_width}} {legend}  .=idle"])
