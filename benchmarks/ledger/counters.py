"""Tolerant access to the program's own counters.

Every counter the ledger reads from the program — ``job.trace.count``,
``job.serve_metrics``, ``engine.events_executed``, ``job.obs`` — goes
through :class:`CounterReader`. A sink, attribute or method that is
absent reads as ``None`` and its name lands in ``missing`` instead of
raising, so a telemetry or wire-path refactor under ``src/`` (which may
not edit this directory) cannot break the benchmark. Only per-layer
metrics depend on these counters; end-to-end metrics use nothing but the
public surface listed in README.md.
"""

from __future__ import annotations

from typing import Any

#: ``job.trace`` counters read before and after every timed run.
TRACE_COUNTERS = (
    "pami.rdma_puts", "pami.rdma_gets", "pami.am_sent", "pami.rmw_posted",
    "pami.items_serviced",
    "armci.put_rdma", "armci.put_fallback", "armci.get_rdma",
    "armci.get_fallback", "armci.rmws", "armci.accs",
    "armci.puts_strided_zero_copy", "armci.puts_strided_typed",
    "armci.puts_strided_pack", "armci.gets_strided_zero_copy",
    "armci.gets_strided_typed", "armci.gets_strided_pack",
    "armci.putv_zero_copy", "armci.putv_typed", "armci.putv_pack",
    "armci.getv_zero_copy", "armci.getv_pack",
    "armci.strided_rdma_ops", "armci.fences", "armci.fences_avoided",
    "armci.region_cache_hits", "armci.region_cache_misses",
    "armci.aggregate_flushes", "armci.transient_retries",
    "armci.integrity.retransmits",
    "gax.counter_draws", "gax.gets", "gax.puts", "gax.accs",
    "serve.wire_flushes", "serve.backpressure_deferrals",
    "net.put.messages", "net.get.messages", "net.am.messages",
    "net.control.messages", "net.put.bytes", "net.get.bytes", "net.am.bytes",
    "chaos.drops", "chaos.duplicates", "chaos.jittered", "chaos.corruptions",
)

_ABSENT = (AttributeError, KeyError, TypeError)


class CounterReader:
    """Reads program counters; absent ones become ``None`` and are listed."""

    def __init__(self) -> None:
        self.missing: list[str] = []

    def _absent(self, name: str) -> None:
        if name not in self.missing:
            self.missing.append(name)
        return None

    def events(self, engine: Any) -> int | None:
        """``engine.events_executed``."""
        try:
            return int(engine.events_executed)
        except _ABSENT:
            return self._absent("engine.events_executed")

    def trace(self, job: Any, name: str) -> int | None:
        """``job.trace.count(name)`` (0 when never incremented)."""
        try:
            return int(job.trace.count(name))
        except _ABSENT:
            return self._absent(name)

    def serve(self, job: Any, name: str) -> int | None:
        """``job.serve_metrics.counter(name).total``; 0 on a job that
        never built the serving tier."""
        try:
            registry = job.serve_metrics
            return 0 if registry is None else int(registry.counter(name).total)
        except _ABSENT:
            return self._absent(name)

    def spans(self, job: Any) -> int | None:
        """Finished obs spans; 0 when obs is off."""
        try:
            return 0 if job.obs is None else len(job.obs.finished())
        except _ABSENT:
            return self._absent("obs.spans")

    def snapshot(self, job: Any, engine: Any) -> dict[str, int | None]:
        """Every counter of one job at this instant.

        ``job`` is ``None`` for the bare-engine workload: its ARMCI-side
        counters read 0 (no work), not missing.
        """
        snap: dict[str, int | None] = {"sim.events": self.events(engine)}
        for name in TRACE_COUNTERS:
            snap[name] = 0 if job is None else self.trace(job, name)
        snap["serve.requests"] = 0 if job is None else self.serve(job, "serve.requests")
        snap["obs.spans"] = 0 if job is None else self.spans(job)
        return snap


def total(*values: int | float | None) -> int | float | None:
    """Sum that is ``None`` as soon as one term is."""
    return None if any(v is None for v in values) else sum(values)


def ratio(num: int | float | None, den: int | float | None) -> float | None:
    """``num / den``; ``None`` when either is missing or nothing was done."""
    if num is None or den is None or den == 0:
        return None
    return num / den


def derive(c: dict[str, int | None], ops: int) -> dict[str, int | float | None]:
    """The untraced per-layer metrics that are functions of exact counts.

    ``c`` holds the after-minus-before deltas of :meth:`snapshot` summed
    over a repetition's timed runs; ``ops`` is the workload's fixed
    operation count.
    """
    armci_ops = total(*(c[n] for n in TRACE_COUNTERS if n.startswith((
        "armci.put_", "armci.get_", "armci.puts_", "armci.gets_",
        "armci.putv_", "armci.getv_", "armci.rmws", "armci.accs",
    ))))
    strided_ops = total(*(c[n] for n in TRACE_COUNTERS if n.startswith((
        "armci.puts_strided", "armci.gets_strided",
    ))))
    wire_ops = total(
        c["pami.rdma_puts"], c["pami.rdma_gets"], c["pami.am_sent"],
        c["pami.rmw_posted"],
    )
    lookups = total(c["armci.region_cache_hits"], c["armci.region_cache_misses"])
    requests = c["serve.requests"]
    return {
        "sim.events": c["sim.events"],
        "sim.events_per_op": ratio(c["sim.events"], ops),
        "pami.wire_ops": wire_ops,
        "pami.items_serviced": c["pami.items_serviced"],
        "pami.wire_ops_per_op": ratio(wire_ops, ops),
        "armci.ops": armci_ops,
        "armci.fences": c["armci.fences"],
        "armci.fences_avoided": c["armci.fences_avoided"],
        "armci.region_cache_hit_share": ratio(c["armci.region_cache_hits"], lookups),
        "armci.rdma_per_strided_op": ratio(c["armci.strided_rdma_ops"], strided_ops),
        "armci.aggregate_flushes": c["armci.aggregate_flushes"],
        "armci.transient_retries": c["armci.transient_retries"],
        "armci.retry_share": ratio(c["armci.transient_retries"], armci_ops),
        "armci.integrity_retransmits": c["armci.integrity.retransmits"],
        "gax.counter_draws": c["gax.counter_draws"],
        "gax.patch_ops": total(c["gax.gets"], c["gax.puts"], c["gax.accs"]),
        "serve.requests": requests,
        "serve.wire_flushes": c["serve.wire_flushes"],
        "serve.flushes_per_request": ratio(c["serve.wire_flushes"], requests),
        "serve.events_per_request": ratio(c["sim.events"], requests),
        "serve.backpressure_deferrals": c["serve.backpressure_deferrals"],
        "machine.net_messages": total(
            c["net.put.messages"], c["net.get.messages"],
            c["net.am.messages"], c["net.control.messages"],
        ),
        "machine.net_bytes": total(
            c["net.put.bytes"], c["net.get.bytes"], c["net.am.bytes"]
        ),
        "chaos.injected": total(
            c["chaos.drops"], c["chaos.duplicates"], c["chaos.jittered"],
            c["chaos.corruptions"],
        ),
        "obs.spans": c["obs.spans"],
    }
