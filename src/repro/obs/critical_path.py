"""Critical-path analysis over a finished span DAG.

Walks simulated time *backwards* from the end of the run and attributes
every instant of the makespan window to a category: at each instant the
innermost ``main``-lane span covering it on the current rank wins (a
backoff sleep inside a retried get attributes to ``backoff``, not
``op``); instants covered by no span are ``idle``. When the covering
span is a barrier dwell with a wait-for edge to another rank's barrier
span (the last arriver — :meth:`repro.obs.span.Obs.barrier_exit`
records exactly that edge), the walk jumps ranks: time before the jump
point belongs to whichever rank held the barrier back, which is how the
path threads through the whole job instead of staying on one rank.

Wait spans deliberately attribute *in place*: a ``counter_wait`` stays
``counter_wait`` rather than recursing into the remote ``amo_service``
span that ended it. That is the paper's accounting — Figs. 9/11 charge
the *initiator's* dwell on the load-balance counter, and the
default-vs-async-thread comparison is precisely "how much of the
makespan is counter_wait" under each mode. The wait-for edges are still
in the DAG (exported as Perfetto flow events, checked by the fuzz
tests); the walker just uses them for barrier hops, where following the
edge is what makes the attribution correct.

Because the walk partitions the window exactly (every segment disjoint,
time strictly decreasing), ``sum(attribution) == t_end - t_start`` by
construction — the ISSUE's ">= 99% of the makespan" criterion holds
with equality.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from .span import Span

_EPS = 1e-15

#: Service-side work excluded from the application-thread sweep. In AT
#: mode these live on the ``async`` lane anyway; in D mode the *same*
#: thread drains them mid-wait, and letting them override the enclosing
#: ``counter_wait`` would hide exactly the dwell Figs. 9/11 charge to
#: the initiator. They stay in the DAG and the Perfetto export.
_SERVICE_CATEGORIES = frozenset({"progress", "am_service", "amo_service"})


@dataclass
class CriticalSegment:
    """One attributed stretch of the critical path."""

    start: float
    end: float
    rank: int
    category: str
    span_id: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class CriticalPathReport:
    """Attribution of a makespan window along the critical path."""

    t_start: float
    t_end: float
    segments: list[CriticalSegment] = field(default_factory=list)
    attribution: dict[str, float] = field(default_factory=dict)

    @property
    def window(self) -> float:
        return self.t_end - self.t_start

    @property
    def coverage(self) -> float:
        """Attributed time / window (1.0 by construction)."""
        if self.window <= 0:
            return 1.0
        return sum(self.attribution.values()) / self.window

    def top_categories(self, n: int = 5) -> list[tuple[str, float]]:
        """The n largest categories, largest first (ties by name)."""
        return sorted(
            self.attribution.items(), key=lambda kv: (-kv[1], kv[0])
        )[:n]


def _elementary_segments(spans: list[Span]) -> list[tuple[float, float, Span | None]]:
    """Split one rank's timeline into (lo, hi, innermost-span) pieces.

    Spans from one rank's main lane are almost always properly nested
    (they come from a sequential generator plus atomic handler pushes);
    the sweep tolerates stray overlap by letting the latest-started
    (then highest-id) active span win.
    """
    points = sorted({s.start for s in spans} | {s.end for s in spans})
    by_start = sorted(spans, key=lambda s: (s.start, s.span_id))
    active: list[Span] = []
    out: list[tuple[float, float, Span | None]] = []
    i = 0
    for lo, hi in zip(points, points[1:]):
        while i < len(by_start) and by_start[i].start <= lo + _EPS:
            active.append(by_start[i])
            i += 1
        active = [s for s in active if s.end > lo + _EPS]
        innermost = (
            max(active, key=lambda s: (s.start, s.span_id)) if active else None
        )
        out.append((lo, hi, innermost))
    return out


def critical_path(
    spans: list[Span],
    edges: list[tuple[int, int]],
    start_rank: int | None = None,
) -> CriticalPathReport:
    """Attribute the extent of the finished main-lane spans along the
    critical path.

    ``start_rank`` defaults to the rank whose main-lane activity ends
    last (the rank that finished the job).
    """
    spans = list(spans)  # an ``Obs`` view builds its records on every pass
    main = [
        s
        for s in spans
        if s.end is not None
        and s.lane == "main"
        and s.category not in _SERVICE_CATEGORIES
    ]
    if not main:
        return CriticalPathReport(0.0, 0.0)
    t_end = max(s.end for s in main)
    t_start = min(s.start for s in main)
    if start_rank is None:
        start_rank = max(main, key=lambda s: (s.end, s.span_id)).rank

    by_id = {s.span_id: s for s in spans}
    # waiter span -> its latest-starting cause span (barrier hops only
    # ever have one, but be deterministic if several were recorded).
    cause_of: dict[int, Span] = {}
    for cause_id, waiter_id in edges:
        cause = by_id.get(cause_id)
        if cause is None or cause.end is None:
            continue
        prev = cause_of.get(waiter_id)
        if prev is None or (cause.start, cause.span_id) > (prev.start, prev.span_id):
            cause_of[waiter_id] = cause

    per_rank: dict[int, list[Span]] = {}
    for s in main:
        per_rank.setdefault(s.rank, []).append(s)
    seg_cache: dict[int, list[tuple[float, float, Span | None]]] = {}
    lo_cache: dict[int, list[float]] = {}

    def segments_for(rank: int):
        segs = seg_cache.get(rank)
        if segs is None:
            segs = seg_cache[rank] = _elementary_segments(per_rank.get(rank, []))
            lo_cache[rank] = [lo for lo, _hi, _s in segs]
        return segs, lo_cache[rank]

    report = CriticalPathReport(t_start, t_end)

    def attribute(lo: float, hi: float, rank: int, category: str, span_id):
        if hi - lo <= _EPS:
            return
        report.segments.append(CriticalSegment(lo, hi, rank, category, span_id))
        report.attribution[category] = (
            report.attribution.get(category, 0.0) + (hi - lo)
        )

    rank = start_rank
    t = t_end
    guard = 4 * len(spans) + 16 * (len(per_rank) + 1)
    while t > t_start + _EPS and guard > 0:
        guard -= 1
        segs, los = segments_for(rank)
        idx = bisect_right(los, t - _EPS) - 1
        if idx < 0:
            attribute(t_start, t, rank, "idle", None)
            break
        lo, hi, span = segs[idx]
        hi = min(hi, t)
        if hi < t:
            # Gap above this rank's last activity: idle.
            attribute(max(hi, t_start), t, rank, "idle", None)
            t = hi
            continue
        if span is None:
            attribute(max(lo, t_start), t, rank, "idle", None)
            t = max(lo, t_start)
            continue
        if span.category == "barrier":
            cause = cause_of.get(span.span_id)
            if (
                cause is not None
                and cause.rank != rank
                and t_start + _EPS < cause.start < t - _EPS
            ):
                # The barrier was held back by `cause.rank`; everything
                # from its arrival to here is barrier dwell, then hop.
                attribute(cause.start, t, rank, "barrier", span.span_id)
                t = cause.start
                rank = cause.rank
                continue
        attribute(max(lo, t_start), t, rank, span.category, span.span_id)
        t = max(lo, t_start)
    if t > t_start + _EPS:
        # Guard tripped (pathological input): account the remainder.
        attribute(t_start, t, rank, "idle", None)
    report.segments.reverse()
    return report


def attribution_rows(report: CriticalPathReport, top: int = 0) -> list[list[str]]:
    """Render-ready rows: category, seconds, percent of window."""
    items = report.top_categories(top) if top else sorted(
        report.attribution.items(), key=lambda kv: (-kv[1], kv[0])
    )
    window = report.window or 1.0
    return [
        [cat, f"{secs * 1e3:.3f} ms", f"{100.0 * secs / window:.1f}%"]
        for cat, secs in items
    ]
