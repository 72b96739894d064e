"""Deterministic exporters for obs spans and metrics.

Two formats:

- :func:`write_perfetto` — Chrome/Perfetto ``trace_event`` JSON, one
  track per ``rank x lane`` (pid = rank, tid = lane), complete (``X``)
  events for spans and ``s``/``f`` flow events for wait-for edges.
  Loads directly in ``ui.perfetto.dev`` / ``chrome://tracing``.
- :func:`write_metrics_json` — a :class:`~repro.obs.metrics.MetricsRegistry`
  snapshot.

All output is deterministic: span ids come from a monotonic counter,
events are emitted in sorted order, and every ``json.dumps`` uses
``sort_keys=True`` with fixed separators — two same-seed runs produce
byte-identical files (a CI-diffable golden).

``python -m repro.obs.export FILE ...`` validates trace files against
the ``trace_event`` schema (the CI ``obs`` suite uses this).
"""

from __future__ import annotations

import json
from typing import Iterable

from .metrics import MetricsRegistry
from .span import LANES, Span

#: Simulated seconds -> trace_event microseconds.
_US = 1e6

_LANE_TID = {lane: i for i, lane in enumerate(LANES)}


def _ts(seconds: float) -> float:
    # Round to sub-nanosecond so float noise can't destabilize goldens.
    return round(seconds * _US, 6)


def to_trace_events(
    spans: Iterable[Span], edges: Iterable[tuple[int, int]] = ()
) -> list[dict]:
    """Spans (+ optional wait-for edges) as ``trace_event`` dicts."""
    spans = [s for s in spans if s.end is not None]
    events: list[dict] = []
    tracks = sorted({(s.rank, s.lane) for s in spans})
    for rank in sorted({r for r, _l in tracks}):
        events.append(
            {
                "args": {"name": f"rank {rank}"},
                "name": "process_name",
                "ph": "M",
                "pid": rank,
                "tid": 0,
            }
        )
    for rank, lane in tracks:
        events.append(
            {
                "args": {"name": lane},
                "name": "thread_name",
                "ph": "M",
                "pid": rank,
                "tid": _LANE_TID.get(lane, len(LANES)),
            }
        )
    by_id = {s.span_id: s for s in spans}
    for s in sorted(spans, key=lambda s: (_ts(s.start), s.span_id)):
        args = {"span_id": s.span_id}
        if s.parent_id is not None:
            args["parent_id"] = s.parent_id
        for key in sorted(s.attrs):
            args[key] = s.attrs[key]
        events.append(
            {
                "args": args,
                "cat": s.category,
                "dur": _ts(s.end) - _ts(s.start),
                "name": s.name,
                "ph": "X",
                "pid": s.rank,
                "tid": _LANE_TID.get(s.lane, len(LANES)),
                "ts": _ts(s.start),
            }
        )
    for i, (cause_id, waiter_id) in enumerate(sorted(edges)):
        cause = by_id.get(cause_id)
        waiter = by_id.get(waiter_id)
        if cause is None or waiter is None:
            continue
        flow = {"cat": "wait_for", "id": i, "name": "wait_for"}
        events.append(
            {
                **flow,
                "ph": "s",
                "pid": cause.rank,
                "tid": _LANE_TID.get(cause.lane, len(LANES)),
                "ts": _ts(cause.end),
            }
        )
        events.append(
            {
                **flow,
                "bp": "e",
                "ph": "f",
                "pid": waiter.rank,
                "tid": _LANE_TID.get(waiter.lane, len(LANES)),
                "ts": _ts(waiter.end),
            }
        )
    return events


def perfetto_payload(
    spans: Iterable[Span], edges: Iterable[tuple[int, int]] = ()
) -> dict:
    """The full JSON-object form of a Perfetto trace."""
    return {
        "displayTimeUnit": "ns",
        "traceEvents": to_trace_events(spans, edges),
    }


def dumps_perfetto(
    spans: Iterable[Span], edges: Iterable[tuple[int, int]] = ()
) -> str:
    """Byte-stable serialized Perfetto trace."""
    return json.dumps(
        perfetto_payload(spans, edges), sort_keys=True, separators=(",", ":")
    )


def write_perfetto(path, spans, edges=()) -> None:
    """Write a Perfetto ``trace_event`` JSON file."""
    with open(path, "w") as fh:
        fh.write(dumps_perfetto(spans, edges))
        fh.write("\n")


def write_metrics_json(path, metrics: MetricsRegistry, per_rank: bool = False) -> None:
    """Write a deterministic metrics snapshot."""
    with open(path, "w") as fh:
        fh.write(
            json.dumps(
                metrics.snapshot(per_rank=per_rank),
                sort_keys=True,
                separators=(",", ":"),
                indent=None,
            )
        )
        fh.write("\n")


# ------------------------------------------------------------- validation


def validate_trace_events(payload) -> list[str]:
    """Check a Perfetto payload against the ``trace_event`` schema.

    Returns a list of problems (empty = valid). Covers the subset of the
    schema this exporter emits: the JSON-object form with a
    ``traceEvents`` array of ``M``/``X``/``s``/``f`` events.
    """
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"payload must be a JSON object, got {type(payload).__name__}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["payload.traceEvents must be an array"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("M", "X", "B", "E", "s", "t", "f", "i", "C"):
            problems.append(f"{where}: unknown ph {ph!r}")
            continue
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                problems.append(f"{where}: {key} must be an integer")
        if ph == "M":
            if ev.get("name") not in ("process_name", "thread_name"):
                problems.append(f"{where}: metadata name {ev.get('name')!r}")
            args = ev.get("args")
            if not isinstance(args, dict) or not isinstance(
                args.get("name"), str
            ):
                problems.append(f"{where}: metadata needs args.name string")
            continue
        if not isinstance(ev.get("ts"), (int, float)):
            problems.append(f"{where}: ts must be a number")
        if ph == "X":
            if not isinstance(ev.get("name"), str):
                problems.append(f"{where}: X event needs a name")
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: X event needs dur >= 0")
        if ph in ("s", "t", "f") and "id" not in ev:
            problems.append(f"{where}: flow event needs an id")
    return problems


def main(argv: list[str] | None = None) -> int:
    """Validate trace files: ``python -m repro.obs.export FILE ...``"""
    import sys

    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print("usage: python -m repro.obs.export TRACE.json [...]")
        return 2
    status = 0
    for path in argv:
        with open(path) as fh:
            payload = json.load(fh)
        problems = validate_trace_events(payload)
        if problems:
            status = 1
            print(f"{path}: INVALID")
            for p in problems[:20]:
                print(f"  - {p}")
        else:
            n = sum(
                1 for e in payload["traceEvents"] if e.get("ph") == "X"
            )
            print(f"{path}: ok ({n} spans)")
    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
