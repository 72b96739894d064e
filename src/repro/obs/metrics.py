"""The metrics registry: counters, durations, gauges, log-bucket histograms.

One :class:`MetricsRegistry` per simulated job is the only telemetry
sink: protocol layers increment counters (messages sent, fences issued,
cache misses) and accumulate dwell times (time blocked on the
load-balance counter) in it, ``repro.obs`` records span durations into
it, and benchmarks and tests read them back to check behaviour, not
just timing.

A :class:`Histogram` holds a fixed array of bucket counts instead of
every observation, so memory is O(1) in run length. The bucket scheme
is documented and fixed:

    bucket *i* counts values in ``(2**(i-1), 2**i] * 1 ns``

i.e. power-of-two boundaries anchored at one nanosecond, 96 buckets
(covering ~1 ns to ~7.9e19 s), plus an underflow bucket for values
<= 1 ns (index 0 catches them: values below the anchor land there).
Values are simulated *seconds*; the anchor matches the simulator's
finest meaningful timescale.

Percentiles: with ``keep_raw=True`` (opt-in, for tests that assert
exact values) ``percentile`` is exact over the retained observations;
otherwise it returns the upper edge of the bucket containing the rank —
a deterministic upper bound, never an interpolation that could drift
between runs.

Per-rank views: ``record``/``incr`` accept ``rank=`` and maintain both
the job-wide aggregate and a lazily-created per-rank instrument;
``snapshot(per_rank=True)`` includes them. Snapshots are plain dicts
with sorted keys — safe to ``json.dumps`` deterministically.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Callable

import numpy as np

#: Number of log2 buckets (fixed; part of the documented scheme).
NUM_BUCKETS = 96
#: Anchor of the bucket ladder: one simulated nanosecond.
BUCKET_ANCHOR = 1e-9


def bucket_index(value: float) -> int:
    """O(1) bucket index for ``value`` seconds (clamped to the ladder).

    ``inf``, and a value whose ratio to the anchor overflows to ``inf``,
    lands in the top bucket (``frexp(inf)`` has exponent 0).
    """
    if value <= BUCKET_ANCHOR:
        return 0
    ratio = value / BUCKET_ANCHOR
    if ratio == math.inf:
        return NUM_BUCKETS - 1
    # frexp: ratio = m * 2**e with m in [0.5, 1) -> ceil(log2) = e
    m, e = math.frexp(ratio)
    idx = e if m > 0.5 else e - 1
    return min(max(idx, 0), NUM_BUCKETS - 1)


def bucket_upper_edge(index: int) -> float:
    """Upper boundary (seconds) of bucket ``index``."""
    return BUCKET_ANCHOR * (2.0**index)


class Counter:
    """Handle on one named counter of a :class:`MetricsRegistry`.

    The total lives in the registry's flat ``counters`` store (the one
    per-operation sites add to directly); the handle adds the optional
    per-rank breakdown.
    """

    __slots__ = ("_registry", "_name")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name

    @property
    def total(self) -> int:
        return self._registry.counters.get(self._name, 0)

    @property
    def per_rank(self) -> dict[int, int]:
        return self._registry.rank_counters.get(self._name, {})

    def incr(self, amount: int = 1, rank: int | None = None) -> None:
        registry = self._registry
        registry.counters[self._name] += amount
        if rank is not None:
            by_rank = registry.rank_counters.setdefault(self._name, {})
            by_rank[rank] = by_rank.get(rank, 0) + amount


class Gauge:
    """Last-value gauge with optional per-rank breakdown."""

    __slots__ = ("value", "per_rank")

    def __init__(self) -> None:
        self.value: float = 0.0
        self.per_rank: dict[int, float] = {}

    def set(self, value: float, rank: int | None = None) -> None:
        self.value = value
        if rank is not None:
            self.per_rank[rank] = value

    def merge(self, other: "Gauge") -> None:
        """Fold another gauge in, keeping the maximum observed value.

        Gauges from disjoint shards have no meaningful "last" ordering,
        so the merge is the conservative high-water mark; per-rank
        entries are disjoint across shards and copy straight over.
        """
        self.value = max(self.value, other.value)
        for rank, v in other.per_rank.items():
            cur = self.per_rank.get(rank)
            self.per_rank[rank] = v if cur is None else max(cur, v)


class Histogram:
    """Fixed log2-bucket histogram (see module docstring for the scheme)."""

    __slots__ = ("counts", "count", "total", "min", "max", "_raw", "_per_rank")

    def __init__(self, keep_raw: bool = False) -> None:
        self.counts = [0] * NUM_BUCKETS
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._raw: list[float] | None = [] if keep_raw else None
        self._per_rank: dict[int, "Histogram"] | None = None

    @property
    def keep_raw(self) -> bool:
        return self._raw is not None

    @property
    def raw(self) -> list[float]:
        """Retained observations (only with ``keep_raw=True``)."""
        return [] if self._raw is None else list(self._raw)

    def record(self, value: float, rank: int | None = None) -> None:
        """O(1) record of one observation (simulated seconds)."""
        self.counts[bucket_index(value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if self._raw is not None:
            self._raw.append(value)
        if rank is not None:
            if self._per_rank is None:
                self._per_rank = {}
            sub = self._per_rank.get(rank)
            if sub is None:
                sub = self._per_rank[rank] = Histogram(keep_raw=self.keep_raw)
            sub.record(value)

    def record_many(self, values, rank: int | None = None) -> None:
        """:meth:`record` of a whole array of observations.

        The serving workload records one small latency array per
        delivered batch, so the cost here is per value, not per numpy
        call: each value is bucketed once with :func:`bucket_index`, for
        this histogram and its per-rank sub-histogram alike. The total
        adds ``float(arr.sum())``, one pairwise sum per call.
        """
        arr = np.asarray(values, dtype=np.float64)
        vals = arr.tolist()
        if not vals:
            return
        total = float(arr.sum())
        lo, hi = min(vals), max(vals)
        idx = [bucket_index(v) for v in vals]
        targets = [self]
        if rank is not None:
            if self._per_rank is None:
                self._per_rank = {}
            sub = self._per_rank.get(rank)
            if sub is None:
                sub = self._per_rank[rank] = Histogram(keep_raw=self.keep_raw)
            targets.append(sub)
        for h in targets:
            counts = h.counts
            for i in idx:
                counts[i] += 1
            h.count += len(vals)
            h.total += total
            if h.min is None or lo < h.min:
                h.min = lo
            if h.max is None or hi > h.max:
                h.max = hi
            if h._raw is not None:
                h._raw.extend(vals)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """p-th percentile (p in [0, 100]).

        Exact over the raw observations when ``keep_raw``; otherwise the
        upper edge of the bucket holding the rank (deterministic bound).
        """
        if self.count == 0:
            return 0.0
        if self._raw is not None:
            data = sorted(self._raw)
            k = max(0, min(len(data) - 1, math.ceil(p / 100.0 * len(data)) - 1))
            return data[k]
        target = max(1, math.ceil(p / 100.0 * self.count))
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= target:
                return bucket_upper_edge(i)
        return bucket_upper_edge(NUM_BUCKETS - 1)

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s aggregate observations into this histogram."""
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        if self._raw is not None:
            if other._raw is not None:
                self._raw.extend(other._raw)
            elif other.count > 0:
                # Raw-keeping histogram folded with a bucket-only one:
                # exact percentiles over a *subset* of observations would
                # silently drift from the bucket truth (the cross-shard
                # folding bug the dashboards depend on avoiding), so
                # degrade to deterministic bucket percentiles instead.
                self._raw = None
        if other._per_rank:
            if self._per_rank is None:
                self._per_rank = {}
            for rank, sub in other._per_rank.items():
                mine = self._per_rank.get(rank)
                if mine is None:
                    mine = self._per_rank[rank] = Histogram(keep_raw=sub.keep_raw)
                mine.merge(sub)

    def per_rank(self) -> dict[int, "Histogram"]:
        """Per-rank sub-histograms (empty if ``rank=`` was never used)."""
        return dict(self._per_rank or {})

    def summary(self) -> dict:
        """Deterministic plain-dict summary (sorted, JSON-safe)."""
        return {
            "count": self.count,
            "max": self.max,
            "mean": self.mean,
            "min": self.min,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "p999": self.percentile(99.9),
            "sum": self.total,
        }


class MetricsRegistry:
    """The one telemetry sink of a simulated job.

    Four kinds of instrument, each keyed by a dotted name:

    - *counters* — event counts (messages sent, fences issued, cache
      misses), a flat ``defaultdict(int)``; ``incr``/``count`` are the
      named accessors and :meth:`counter` a handle that also keeps a
      per-rank breakdown;
    - *durations* — accumulated simulated seconds (time blocked on the
      load-balance counter), a flat ``defaultdict(float)``;
    - *gauges* — last-set values;
    - *histograms* — distributions in fixed log2 buckets.

    A writer that buffers observations (``repro.obs.Obs`` keeps the
    spans it closed, in close order) registers a fold with :meth:`defer`;
    every histogram read — :meth:`histogram`, :attr:`histograms`,
    :meth:`snapshot`, :meth:`merge` — runs the folds first, so readers
    see exactly what recording at write time would have given.

    Snapshots are deterministic plain dicts.
    """

    def __init__(self) -> None:
        self.counters: defaultdict[str, int] = defaultdict(int)
        #: Per-rank breakdown of the counters bumped with ``rank=``.
        self.rank_counters: dict[str, dict[int, int]] = {}
        self.durations: defaultdict[str, float] = defaultdict(float)
        self.gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._folds: list[Callable[[], None]] = []

    def defer(self, fold: Callable[[], None]) -> None:
        """Run ``fold()`` before every histogram read (see class doc)."""
        self._folds.append(fold)

    @property
    def histograms(self) -> dict[str, Histogram]:
        """Every histogram by name, deferred observations folded in."""
        for fold in self._folds:
            fold()
        return self._histograms

    def incr(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (per-operation call sites
        add to :attr:`counters` directly and skip this call)."""
        self.counters[name] += amount

    def count(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self.counters.get(name, 0)

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` into duration ``name``."""
        self.durations[name] += seconds

    def time(self, name: str) -> float:
        """Accumulated duration ``name`` in seconds (0.0 if never recorded)."""
        return self.durations.get(name, 0.0)

    def counter(self, name: str) -> Counter:
        return Counter(self, name)

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge()
        return g

    def histogram(self, name: str, keep_raw: bool = False) -> Histogram:
        histograms = self.histograms
        h = histograms.get(name)
        if h is None:
            h = histograms[name] = Histogram(keep_raw=keep_raw)
        return h

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's instruments in, matched by name.

        The per-shard metrics merge of the parallel PDES runtime: each
        shard records into its own registry (no cross-process sharing);
        the runner merges them into one job-wide view. Counters and
        durations add, gauges keep the high-water mark, histograms
        combine buckets. Both sides fold their deferred observations
        first (reading ``other.histograms``, then ``self.histogram``).
        """
        for name, v in other.counters.items():
            self.counters[name] += v
        for name, by_rank in other.rank_counters.items():
            mine = self.rank_counters.setdefault(name, {})
            for rank, v in by_rank.items():
                mine[rank] = mine.get(rank, 0) + v
        for name, seconds in other.durations.items():
            self.durations[name] += seconds
        for name, g in other.gauges.items():
            self.gauge(name).merge(g)
        for name, h in other.histograms.items():
            self.histogram(name, keep_raw=h.keep_raw).merge(h)

    def snapshot(self, per_rank: bool = False) -> dict:
        """Point-in-time plain-dict view, keys sorted for stable JSON."""
        out: dict = {
            "counters": dict(sorted(self.counters.items())),
            "durations": dict(sorted(self.durations.items())),
            "gauges": {
                name: g.value for name, g in sorted(self.gauges.items())
            },
            "histograms": {
                name: h.summary()
                for name, h in sorted(self.histograms.items())
            },
        }
        if per_rank:
            out["per_rank"] = {
                "counters": {
                    name: {str(r): v for r, v in sorted(by_rank.items())}
                    for name, by_rank in sorted(self.rank_counters.items())
                },
                "histograms": {
                    name: {
                        str(r): h.summary()
                        for r, h in sorted(sub.items())
                    }
                    for name, sub in sorted(
                        (n, h.per_rank())
                        for n, h in self.histograms.items()
                    )
                    if sub
                },
            }
        return out
