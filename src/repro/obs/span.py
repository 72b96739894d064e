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
#: The producer categories that refine a handle wait, and the category
#: each refines it to when all its producers agree (see :meth:`Obs.end`).
_WAITS = {"rdma": "rdma_wait", "am": "am_wait", "am_service": "am_wait"}


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


#: The kinds interned in this process: ``KINDS[code]`` is the kind
#: ``(lane, category, name, timeline, *attribute keys)`` of ``code``.
KINDS: list[tuple] = []
_CODES: dict[tuple, int] = {}


def kind(
    lane: str, category: str, name: str, timeline: str | None = None, keys=()
) -> int:
    """The code of a span kind, interned once per process: a call site
    asks once and keeps the code (:class:`Kinds` when its name varies)."""
    entry = (lane, category, name, timeline, *keys)
    code = _CODES.get(entry)
    if code is None:
        code = _CODES[entry] = len(KINDS)
        KINDS.append(entry)
    return code


class Kinds(dict):
    """The codes of a call site whose kind varies with what it serves (a
    handle's kind, a dispatch id, an AMO op, a lane): ``kinds[key]`` is
    ``kind(*describe(key))``, interned on first use and a plain dict hit
    after."""

    __slots__ = ("describe",)

    def __init__(self, describe) -> None:
        super().__init__()
        self.describe = describe

    def __missing__(self, key) -> int:
        code = self[key] = kind(*self.describe(key))
        return code


def _refiled(key: tuple[int, str]) -> tuple:
    lane, _category, name, timeline, *keys = KINDS[key[0]]
    return lane, key[1], name, timeline, keys


#: ``(code, category) -> code``: the kind ``end(category=...)`` re-files
#: a row under (same lane, name, timeline and attribute keys).
_REFILED = Kinds(_refiled)
#: Rows staged before they are compacted into the columns.
STAGE = 128
#: A staged row's ``end`` while the span is open.
_OPEN = nan


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

    A span is one row (DESIGN §12): its id is the row + 1; ``start`` and
    ``end`` are floats (``end`` NaN while open), the parent id (0 = none)
    and the rank machine integers, and the lane, category, name,
    timeline label and attribute keys one interned *kind* code
    (:func:`kind`), which leaves a tuple of the attribute values per
    span. The write calls take the code and the values positionally and
    stage the row as one list; every ``STAGE`` rows, and before any
    read, the staged rows are compacted into typed columns. All write
    methods are O(1); ids come from the row count, so exports are
    byte-stable across same-seed runs. One per-rank stack tracks the
    ambient (innermost open) span — pushes and pops happen atomically
    inside engine callbacks, so the LIFO discipline holds even while AM
    handlers interleave with blocked application spans.

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
        #: ``(lane, dispatch id) -> code`` of the AM service spans.
        self.services = Kinds(self._service)
        self.truncated_spans = 0
        self._start = array("d")
        self._end = array("d")
        self._parent = array("I")
        self._rank = array("i")
        self._kind = array("I")
        self._values: list[tuple] = []
        #: Rows written since the last compaction, each
        #: ``[start, end, parent, rank, code, values]``, after the
        #: ``_base`` rows the columns hold.
        self._staged: list[list] = []
        self._base = 0
        #: Rows closed since the last fold, in close order (the latest
        #: in a list until the next compaction), and how many closed
        #: before it.
        self._closes = array("I")
        self._closing: list[int] = []
        self._folded = 0
        self._stacks: defaultdict[int, list[int]] = defaultdict(list)
        self._barriers: dict[int, dict[str, Any]] = {}
        metrics.defer(self._fold)

    def _service(self, key: tuple[str, int]) -> tuple:
        lane, dispatch_id = key
        name = self.dispatch_names.get(dispatch_id, f"am.{dispatch_id}")
        return lane, "am_service", name, None, ("src",)

    # ------------------------------------------------------------ spans

    def begin(
        self, rank: int, code: int, values: tuple = (), parent=_AMBIENT,
        start: float | None = None,
    ) -> int:
        """Open a span of kind ``code`` with attribute ``values`` (in the
        kind's key order) and make it the rank's ambient parent.
        ``parent`` is a span id, or 0 or ``None`` for a root span;
        ``start`` back-dates it."""
        stack = self._stacks[rank]
        if parent is _AMBIENT:
            parent = stack[-1] if stack else 0
        elif parent is None:
            parent = 0
        staged = self._staged
        staged.append([
            self.engine.now if start is None else start, _OPEN, parent, rank,
            code, values,
        ])
        n = len(staged)
        sid = self._base + n
        stack.append(sid)
        if n >= STAGE:
            self._compact()
        return sid

    def end(
        self, span_id: int, category: str | None = None, caused_by=(),
        attrs: dict[str, Any] | None = None,
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
        base, staged = self._base, self._staged
        if caused_by:
            codes, agreed = self._kind, None
            for event in caused_by:
                cause = event._obs_span
                if cause is not None:
                    if cause != span_id:
                        self.edges.append((cause, span_id))
                    i = cause - 1 - base
                    code = staged[i][4] if i >= 0 else codes[cause - 1]
                    wait = _WAITS.get(KINDS[code][1], "")
                    agreed = wait if agreed is None or agreed == wait else ""
            if agreed:
                category = agreed
        row = span_id - 1
        i = row - base
        if i >= 0:
            try:
                r = staged[i]
            except IndexError:
                return
        elif row >= 0:  # compacted already: written back below
            r = [
                self._start[row], self._end[row], self._parent[row],
                self._rank[row], self._kind[row], self._values[row],
            ]
        else:
            return
        if r[1] == r[1]:  # not NaN: closed already
            return
        r[1] = self.engine.now
        if attrs:  # merge into the row's attributes: a new kind
            lane, category_was, name, timeline, *keys = KINDS[r[4]]
            merged = dict(zip(keys, r[5]))
            merged.update(attrs)
            r[4] = kind(lane, category_was, name, timeline, merged)
            r[5] = (*merged.values(),)
        if category is not None:
            r[4] = _REFILED[r[4], category]
        if i < 0:
            self._end[row], self._kind[row], self._values[row] = r[1], r[4], r[5]
        stack = self._stacks[r[3]]
        if stack:
            if stack[-1] == span_id:
                stack.pop()
            else:
                # An out-of-order close must not corrupt the ambient chain.
                for i in range(len(stack) - 2, -1, -1):
                    if stack[i] == span_id:
                        del stack[i]
                        break
        self._closing.append(row)

    def record(
        self, rank: int, code: int, values: tuple, start: float, end: float,
        produces=(), parent=_AMBIENT,
    ) -> int:
        """Record an already-finished span (no stack interaction), named
        the producer of each event in ``produces`` (see
        :meth:`register_event`); ``parent`` as for :meth:`begin`."""
        if parent is _AMBIENT:
            stack = self._stacks[rank]
            parent = stack[-1] if stack else 0
        elif parent is None:
            parent = 0
        staged = self._staged
        staged.append([start, end, parent, rank, code, values])
        n = len(staged)
        sid = self._base + n
        self._closing.append(sid - 1)
        for event in produces:
            if event is not None:
                event._obs_span = sid
        if n >= STAGE:
            self._compact()
        return sid

    def current(self, rank: int) -> int | None:
        """The rank's innermost open span id (ambient parent), if any."""
        stack = self._stacks.get(rank)
        return stack[-1] if stack else None

    @property
    def spans(self) -> Spans:
        """Every span so far, open or closed, in id order."""
        self._compact()
        return Spans(self, range(self._base))

    def get(self, span_id: int | None) -> Span | None:
        """A copy of span ``span_id``, or ``None`` if there is none."""
        self._compact()
        if span_id is None or not 0 < span_id <= self._base:
            return None
        return self._record(span_id - 1)

    def category(self, span_id: int) -> str:
        """Span ``span_id``'s category, without building its record."""
        self._compact()
        return KINDS[self._kind[span_id - 1]][1]

    def finished(self) -> Spans:
        """All closed spans, in id order. Once every span is closed (a
        finished job) this is a view of all rows: O(1) to take and to
        measure."""
        self._compact()
        rows = range(self._base)
        if self._folded + len(self._closes) < len(rows):
            ends = self._end
            rows = array("I", (row for row in rows if not isnan(ends[row])))
        return Spans(self, rows)

    # ------------------------------------------------------- the columns

    def _compact(self) -> None:
        """Move the staged rows into the columns, and the staged closes
        into the close-order buffer."""
        staged = self._staged
        if staged:
            self._staged = []
            self._base += len(staged)
            starts, ends, parents, ranks, codes, values = zip(*staged)
            self._start.extend(starts)
            self._end.extend(ends)
            self._parent.extend(parents)
            self._rank.extend(ranks)
            self._kind.extend(codes)
            self._values.extend(values)
        closing = self._closing
        if closing:
            self._closing = []
            self._closes.extend(closing)

    def _record(self, row: int) -> Span:
        lane, category, name, timeline, *keys = KINDS[self._kind[row]]
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
        self._compact()
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
                    "obs.span." + KINDS[code][1]
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
        """Close any still-open spans (marked ``truncated``) now, and
        compact every row into the columns."""
        self._compact()
        ends = self._end
        for stack in self._stacks.values():
            while stack:
                sid = stack[-1]
                row = sid - 1
                if isnan(ends[row]):
                    self.end(sid, attrs={"truncated": True})  # pops it
                    ends[row] = max(ends[row], self._start[row])
                    self.truncated_spans += 1
                else:
                    stack.pop()
        self._compact()


class OpenSpan:
    """The ``with`` bracket of one span: building it opens the span
    (:meth:`Obs.begin`), leaving the block ends it.

    The block may ``yield``: the span stays open across a simulation
    generator's suspensions and closes when the block is left — by
    return, by exception, or by the generator being closed because its
    rank was killed (the span then ends at the crash time).
    """

    __slots__ = ("obs", "sid", "_notes")

    def __init__(self, obs: Obs, rank: int, code: int, values: tuple) -> None:
        self.obs = obs
        self.sid = obs.begin(rank, code, values)
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
        self.obs.end(self.sid, None, (), self._notes)
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
