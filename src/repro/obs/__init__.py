"""repro.obs — causal span tracing, metrics, export, critical path.

The observability layer the paper's argument needs: *where does the
time go*? Flat counters can say how many fences were issued; only
causally-linked spans can show that a strided get stalled because the
target's progress engine was busy computing (the default-mode story) or
that the async thread serviced it immediately (the AT story, Section
III-D).

Sub-modules:

- :mod:`repro.obs.span` — :class:`Span` / :class:`Obs`: causal spans
  with parent links that survive the AM request/reply handoff, wait-for
  edges, and per-rank lane bookkeeping.
- :mod:`repro.obs.metrics` — the job's one :class:`MetricsRegistry`:
  counters, durations, gauges, and fixed-bucket log-scale histograms
  with deterministic snapshots; every layer records into it.
- :mod:`repro.obs.export` — Chrome/Perfetto ``trace_event`` JSON,
  flat JSONL span dumps, metrics snapshots; all byte-stable.
- :mod:`repro.obs.critical_path` — walk the finished span DAG and
  attribute the full simulated makespan to categories.

The last two are extensions: import them from their modules (this
package does not load them).

The whole subsystem is gated by :class:`ObsConfig`: with
``enabled=False`` (the default) nothing is allocated — blocking calls
are bracketed by the shared no-op :data:`~repro.obs.span.NO_SPAN` and
every wire-level check is a single ``x.obs is None`` test.
"""

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .span import Obs, ObsConfig, Span

__all__ = [
    "Obs",
    "ObsConfig",
    "Span",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]
