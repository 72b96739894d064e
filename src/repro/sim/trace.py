"""Lightweight instrumentation: named counters and duration accumulators.

Protocol layers increment counters (messages sent, fences issued, cache
misses...) and record dwell times (time blocked on the load-balance counter).
Benchmarks and tests read them back to check behaviour, not just timing.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Trace:
    """Counter and timer sink shared across a simulated job."""

    counters: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    durations: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    #: Per-series sample histograms (:class:`repro.obs.metrics.Histogram`,
    #: fixed log2 buckets anchored at 1 ns — O(1) memory per series,
    #: unlike the raw lists this replaced).
    histograms: dict = field(default_factory=dict)
    #: Retain every raw observation alongside the buckets (opt-in: this
    #: restores the unbounded-growth behaviour; tests asserting exact
    #: values and exact-percentile readers enable it).
    keep_raw_samples: bool = False

    def incr(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (per-operation call sites
        add to :attr:`counters` directly and skip this call)."""
        self.counters[name] += amount

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` into duration bucket ``name``."""
        self.durations[name] += seconds

    def sample(self, name: str, value: float) -> None:
        """Record one observation into sample series ``name``.

        Observations land in a fixed-bucket log-scale histogram; the raw
        value is retained only under ``keep_raw_samples``.
        """
        h = self.histograms.get(name)
        if h is None:
            from ..obs.metrics import Histogram

            h = self.histograms[name] = Histogram(keep_raw=self.keep_raw_samples)
        h.record(value)

    @property
    def samples(self) -> dict[str, list[float]]:
        """Raw observations per series (empty unless ``keep_raw_samples``)."""
        return {
            name: h.raw
            for name, h in self.histograms.items()
            if h.keep_raw and h.count
        }

    def sample_summary(self, name: str) -> dict:
        """Deterministic summary (count/mean/min/max/p50/p95/p99) of a
        series; empty dict if the series was never sampled."""
        h = self.histograms.get(name)
        return h.summary() if h is not None else {}

    def count(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self.counters.get(name, 0)

    def time(self, name: str) -> float:
        """Accumulated duration ``name`` in seconds (0.0 if never recorded)."""
        return self.durations.get(name, 0.0)

    def snapshot(self) -> dict[str, int]:
        """Point-in-time copy of all counters (for before/after deltas)."""
        return dict(self.counters)

    def clear(self) -> None:
        """Reset all counters, durations, and samples."""
        self.counters.clear()
        self.durations.clear()
        self.histograms.clear()
