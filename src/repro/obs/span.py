"""Causal spans over the simulated PGAS stack.

A :class:`Span` is one interval of simulated time on a ``(rank, lane)``
track, linked to the span that caused it. Parent links survive the
asynchronous handoffs the communication subsystem is made of: an ARMCI
``get_strided`` span parents the RDMA ops it posts, the AM request it
sends, the *remote* progress-engine service span (the span id rides in
the AM header, the same metadata path the reply cookies already use),
and the reply. Retries, backoff sleeps, credit waits, and region-cache
miss service are child spans, so a slow op is explainable at a glance.

Span taxonomy (the ``category`` field; see DESIGN.md §12):

========================  ====================================================
category                  meaning
========================  ====================================================
``op``                    a top-level blocking ARMCI call (put/get/puts/...)
``compute``               application compute block (``rt.compute``)
``rdma``                  RDMA wire time (net lane, Eq. 7 paths)
``am``                    AM wire time (net lane, Eq. 8 / fall-back paths)
``am_service``            target-side AM handler execution
``amo_service``           target-side RmwItem service (counter fetch-and-add)
``progress``              a progress-engine drain busy period
``rdma_wait`` /           handle wait whose registered causes are RDMA / AM
``am_wait`` /             events (``handle_wait`` when mixed or unknown)
``handle_wait``
``counter_wait``          blocking wait for an RMW reply (the Fig. 9/11 story)
``fence``                 fence wait for outstanding-write acks
``barrier``               barrier dwell (arrive → release)
``backoff``               retry backoff sleep
``credit_wait``           sender-side backpressure (FIFO credit) wait
``region_miss``           remote memory-region query round trip (cache miss)
``lock_wait``             distributed mutex acquire dwell
``task_draw``             taskpool ``next_range`` draw (wraps counter_wait)
========================  ====================================================

Lanes: ``main`` (the rank's application/comm thread), ``async`` (the
dedicated async-progress context, AT mode), ``net`` (wire time).

Wait-for edges (``Obs.add_edge``) record *why a wait ended*: handle
waits point at the registered cause span of each completed event,
counter waits at the remote ``amo_service`` span, and barrier exits at
the last-arriving rank's barrier span. ``critical_path`` walks them.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field
from math import isnan, nan
from typing import Any

from .metrics import MetricsRegistry

#: Lane display order (and Perfetto tid assignment).
LANES = ("main", "async", "net")

_AMBIENT = object()
#: The producer categories that refine a handle wait (see :meth:`Obs.end`).
_RDMA, _AM = frozenset({"rdma"}), frozenset({"am", "am_service"})


@dataclass(frozen=True)
class ObsConfig:
    """Observability switches (field of ``ArmciConfig``).

    Parameters
    ----------
    enabled:
        Master switch. Off (default), no ``Obs`` object is created:
        ``rt.span(...)`` hands every blocking call the shared no-op
        :data:`NO_SPAN`, and the wire-level sites (PAMI ``record``
        one-liners, ``Handle.wait``) reduce to one ``obs is None`` test.
    """

    enabled: bool = False


@dataclass(slots=True)
class Span:
    """One interval of simulated time on a ``(rank, lane)`` track.

    :class:`Obs` stores spans as columns and builds these records when
    they are read: a record is a copy, and changing it changes nothing.
    """

    span_id: int
    parent_id: int | None
    rank: int
    lane: str
    category: str
    name: str
    start: float
    end: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)
    #: Gantt glyph label: ``util.timeline.intervals`` shows the span
    #: under it (``None`` = not part of the text timeline).
    timeline: str | None = None


class _Kinds(dict):
    """Interned span kinds: ``(lane, category, name, timeline, *attr
    keys)`` -> a small code, with ``kinds[code]`` the tuple back. A new
    kind gets the next code; a known one is a plain dict hit."""

    __slots__ = ("kinds",)

    def __init__(self) -> None:
        super().__init__()
        self.kinds: list[tuple] = []

    def __missing__(self, kind: tuple) -> int:
        code = self[kind] = len(self.kinds)
        self.kinds.append(kind)
        return code


class Spans(Sequence):
    """A read-only sequence of :class:`Span` records in id order, each
    built from :class:`Obs`'s columns when it is read."""

    __slots__ = ("_obs", "_rows")

    def __init__(self, obs: "Obs", rows) -> None:
        self._obs = obs
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._obs._record(row) for row in self._rows[index]]
        return self._obs._record(self._rows[index])

    def __iter__(self):
        record = self._obs._record
        for row in self._rows:
            yield record(row)


class Obs:
    """Span recorder shared by every rank of one simulated job.

    A span is one row of a few columns (DESIGN §12): its id is the row
    + 1; ``start`` and ``end`` are floats (``end`` NaN while open), the
    parent id (0 = none) and the rank machine integers, and the lane,
    category, name, timeline label and attribute keys one interned
    *kind* code, which leaves a tuple of the attribute values per span.
    All write methods are O(1); ids come from the row count, so exports
    are byte-stable across same-seed runs. One per-rank stack tracks
    the ambient (innermost open) span — pushes and pops happen
    atomically inside engine callbacks, so the LIFO discipline holds
    even while AM handlers interleave with blocked application spans.

    A closing span appends its row to a close-order buffer; the
    registry folds that buffer into the ``obs.span.<category>``
    histograms when one is read (:meth:`_fold`).
    """

    def __init__(self, engine, metrics: MetricsRegistry) -> None:
        self.engine = engine
        self.edges: list[tuple[int, int]] = []  # (cause span, waiter span)
        #: The job's registry; span durations land in ``obs.span.*``.
        self.metrics = metrics
        #: Dispatch-id -> name map for AM service span names (installed
        #: by ArmciJob; obs itself must not import the armci layer).
        self.dispatch_names: dict[int, str] = {}
        self.truncated_spans = 0
        self._start = array("d")
        self._end = array("d")
        self._parent = array("I")
        self._rank = array("i")
        self._kind = array("I")
        self._values: list[tuple] = []
        self._kinds = _Kinds()
        #: Rows closed since the last fold, in close order, and how many
        #: closed before it.
        self._closes = array("I")
        self._folded = 0
        self._stacks: defaultdict[int, list[int]] = defaultdict(list)
        self._barriers: dict[int, dict[str, Any]] = {}
        metrics.defer(self._fold)

    # ------------------------------------------------------------ spans

    def begin(
        self,
        rank: int,
        lane: str,
        category: str,
        name: str,
        *,
        parent_id=_AMBIENT,
        start: float | None = None,
        timeline: str | None = None,
        **attrs,
    ) -> int:
        """Open a span and make it the rank's ambient parent."""
        stack = self._stacks[rank]
        if parent_id is _AMBIENT:
            parent_id = stack[-1] if stack else 0
        # One row, written here and in ``record`` alike (the write path
        # is one call per span: DESIGN §12).
        starts = self._start
        starts.append(self.engine.now if start is None else start)
        self._end.append(nan)
        self._parent.append(parent_id or 0)
        self._rank.append(rank)
        self._kind.append(self._kinds[lane, category, name, timeline, *attrs])
        self._values.append((*attrs.values(),))
        sid = len(starts)
        stack.append(sid)
        return sid

    def end(
        self, span_id: int, *, category: str | None = None, caused_by=(), **attrs
    ) -> None:
        """Close a span at the current simulated time, re-filed under
        ``category`` and with ``attrs`` added when given.

        ``caused_by`` holds the events whose completion ended the span (a
        handle wait's): a wait-for edge runs from each one's registered
        producer, and when the producers agree the span is re-filed —
        ``rdma_wait`` when all are RDMA wire time, ``am_wait`` when all
        are AM wire or service (they read better in the critical-path
        attribution than the generic ``handle_wait``).
        """
        if caused_by:
            kinds, codes, causes = self._kinds.kinds, self._kind, set()
            for event in caused_by:
                cause = event._obs_span
                if cause is not None:
                    if cause != span_id:
                        self.edges.append((cause, span_id))
                    causes.add(kinds[codes[cause - 1]][1])
            if causes == _RDMA:
                category = "rdma_wait"
            elif causes and causes <= _AM:
                category = "am_wait"
        row = span_id - 1
        ends = self._end
        if row < 0 or row >= len(ends) or not isnan(ends[row]):
            return
        ends[row] = self.engine.now
        if attrs or category is not None:
            kinds, codes = self._kinds, self._kind
            kind = kinds.kinds[codes[row]]
            if attrs:  # merge into the row's attributes: a new kind
                merged = dict(zip(kind[4:], self._values[row]))
                merged.update(attrs)
                kind = (*kind[:4], *merged)
                self._values[row] = (*merged.values(),)
            if category is not None:  # same lane, name, timeline, attributes
                kind = (kind[0], category, *kind[2:])
            codes[row] = kinds[kind]
        stack = self._stacks[self._rank[row]]
        if stack:
            if stack[-1] == span_id:
                stack.pop()
            else:
                # An out-of-order close must not corrupt the ambient chain.
                for i in range(len(stack) - 2, -1, -1):
                    if stack[i] == span_id:
                        del stack[i]
                        break
        self._closes.append(row)

    def record(
        self,
        rank: int,
        lane: str,
        category: str,
        name: str,
        start: float,
        end: float,
        *,
        parent_id=_AMBIENT,
        timeline: str | None = None,
        produces=(),
        **attrs,
    ) -> int:
        """Record an already-finished span (no stack interaction), named
        the producer of each event in ``produces`` (see
        :meth:`register_event`)."""
        if parent_id is _AMBIENT:
            stack = self._stacks[rank]
            parent_id = stack[-1] if stack else 0
        starts = self._start
        starts.append(start)
        self._end.append(end)
        self._parent.append(parent_id or 0)
        self._rank.append(rank)
        self._kind.append(self._kinds[lane, category, name, timeline, *attrs])
        self._values.append((*attrs.values(),))
        sid = len(starts)
        self._closes.append(sid - 1)
        for event in produces:
            if event is not None:
                event._obs_span = sid
        return sid

    def current(self, rank: int) -> int | None:
        """The rank's innermost open span id (ambient parent), if any."""
        stack = self._stacks.get(rank)
        return stack[-1] if stack else None

    @property
    def spans(self) -> Spans:
        """Every span so far, open or closed, in id order."""
        return Spans(self, range(len(self._start)))

    def get(self, span_id: int | None) -> Span | None:
        """A copy of span ``span_id``, or ``None`` if there is none."""
        if span_id is None or not 0 < span_id <= len(self._start):
            return None
        return self._record(span_id - 1)

    def category(self, span_id: int) -> str:
        """Span ``span_id``'s category, without building its record."""
        return self._kinds.kinds[self._kind[span_id - 1]][1]

    def finished(self) -> Spans:
        """All closed spans, in id order. Once every span is closed (a
        finished job) this is a view of all rows: O(1) to take and to
        measure."""
        rows = range(len(self._end))
        if self._folded + len(self._closes) < len(rows):
            ends = self._end
            rows = array("I", (row for row in rows if not isnan(ends[row])))
        return Spans(self, rows)

    # ------------------------------------------------------- the columns

    def _record(self, row: int) -> Span:
        lane, category, name, timeline, *keys = self._kinds.kinds[self._kind[row]]
        end = self._end[row]
        return Span(
            row + 1,
            self._parent[row] or None,
            self._rank[row],
            lane,
            category,
            name,
            self._start[row],
            None if isnan(end) else end,
            dict(zip(keys, self._values[row])),
            timeline,
        )

    def _fold(self) -> None:
        """Record the duration of every span closed since the last fold
        into ``obs.span.<category>`` and its per-rank histogram, in close
        order — bitwise what one ``record`` per close gives — and release
        the buffer."""
        closes = self._closes
        if not closes:
            return
        self._closes = array("I")
        self._folded += len(closes)
        starts, ends, ranks, kinds = self._start, self._end, self._rank, self._kind
        histograms: dict[int, Any] = {}
        for row in closes:
            code = kinds[row]
            histogram = histograms.get(code)
            if histogram is None:
                histogram = histograms[code] = self.metrics.histogram(
                    "obs.span." + self._kinds.kinds[code][1]
                )
            histogram.record(ends[row] - starts[row], rank=ranks[row])

    # ------------------------------------------------- causality plumbing

    def add_edge(self, cause_id: int | None, waiter_id: int | None) -> None:
        """Record a wait-for edge: ``waiter`` ended because ``cause`` did."""
        if cause_id is None or waiter_id is None or cause_id == waiter_id:
            return
        self.edges.append((cause_id, waiter_id))

    def register_event(self, event, span_id: int | None) -> None:
        """Name ``span_id`` as the producer of ``event``'s completion.

        The id lives on the event itself (``Event._obs_span``): a side
        table keyed by ``id(event)`` would alias whenever the allocator
        reuses a collected event's address, making edge sets — and thus
        the "byte-stable" exports — vary run to run.
        """
        if event is not None and span_id is not None:
            event._obs_span = span_id

    def span_for_event(self, event) -> int | None:
        """The registered producer span of ``event``, if known."""
        return getattr(event, "_obs_span", None)

    # ---------------------------------------------------------- barriers

    def barrier_arrive(self, key: int, rank: int, span_id: int) -> None:
        """Note one rank's arrival at a barrier round.

        Rounds are matched per rank by arrival count, so bookkeeping is
        correct even when a fast rank re-arrives at round *n+1* before a
        slow rank has observed its release of round *n*.
        """
        st = self._barriers.get(key)
        if st is None:
            st = self._barriers[key] = {"rounds": [], "in": {}, "out": {}}
        i = st["in"].get(rank, 0)
        st["in"][rank] = i + 1
        rounds = st["rounds"]
        while len(rounds) <= i:
            rounds.append([])
        rounds[i].append((self.engine.now, rank, span_id))

    def barrier_exit(self, key: int, rank: int, span_id: int) -> None:
        """Note a release: edge from the last arriver's span to ours."""
        st = self._barriers.get(key)
        if st is None:
            return
        i = st["out"].get(rank, 0)
        st["out"][rank] = i + 1
        if i >= len(st["rounds"]):
            return
        last = max(st["rounds"][i], key=lambda e: (e[0], e[1]))
        if last[1] != rank:
            self.add_edge(last[2], span_id)

    # ---------------------------------------------------------- lifecycle

    def finalize(self) -> None:
        """Close any still-open spans (marked ``truncated``) now."""
        ends = self._end
        for stack in self._stacks.values():
            while stack:
                sid = stack[-1]
                row = sid - 1
                if isnan(ends[row]):
                    self.end(sid, truncated=True)  # pops it
                    ends[row] = max(ends[row], self._start[row])
                    self.truncated_spans += 1
                else:
                    stack.pop()


class OpenSpan:
    """The ``with`` bracket of one span: building it opens the span
    (:meth:`Obs.begin` with ``kwargs``), leaving the block ends it.

    The block may ``yield``: the span stays open across a simulation
    generator's suspensions and closes when the block is left — by
    return, by exception, or by the generator being closed because its
    rank was killed (the span then ends at the crash time).
    """

    __slots__ = ("obs", "sid", "_notes")

    def __init__(
        self, obs: Obs, rank: int, lane: str, category: str, name: str,
        kwargs: dict[str, Any],
    ) -> None:
        self.obs = obs
        self.sid = obs.begin(rank, lane, category, name, **kwargs)
        self._notes: dict[str, Any] | None = None

    def note(self, **attrs) -> None:
        """Attributes known only once the work ran; set at close."""
        if self._notes is None:
            self._notes = attrs
        else:
            self._notes.update(attrs)

    def caused_by(self, event) -> None:
        """Wait-for edge from ``event``'s producer span to this one."""
        self.obs.add_edge(self.obs.span_for_event(event), self.sid)

    def __enter__(self) -> "OpenSpan":
        return self

    def __exit__(self, *exc) -> bool:
        notes = self._notes
        if notes is None:
            self.obs.end(self.sid)
        else:
            self.obs.end(self.sid, **notes)
        return False


class _NoSpan:
    """What ``rt.span(...)`` returns with obs off: every method a no-op."""

    __slots__ = ()
    sid = None

    def note(self, **attrs) -> None:
        pass

    def caused_by(self, event) -> None:
        pass

    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


#: The one shared no-op span (obs off constructs nothing per call).
NO_SPAN = _NoSpan()
