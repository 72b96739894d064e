"""Names of the ledger: workloads, metrics, layers, and how they interact.

``/BENCHMARK.json`` is the single source for workload names and reasons
and for every metric's unit, direction and bound; this module loads it
and adds what that file's fixed schema cannot hold: which layer a
per-layer metric belongs to, and which end-to-end metric it should move
on which workload (written down before measuring — README.md carries the
same table in prose).
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: The packages under ``src/repro/`` the cProfile fold attributes host
#: time to; ``other`` is numpy, the stdlib, the rest of ``repro`` and
#: the harness itself.
LAYERS = (
    "sim", "pami", "transport", "armci", "gax", "serve", "apps",
    "machine", "topology", "obs", "chaos", "recover", "other",
)

#: End-to-end metrics of the ledger that the driver cannot gate, because
#: its ``end_to_end`` list needs, on every workload, a non-zero number
#: whose spread over ten seeds stays inside a bound of at most 25 %. The
#: 99th percentile moves more than that with the seed alone on the KV
#: workloads; the other three are ``null`` or zero on most workloads.
#: ``BENCHMARK.json`` files the four under ``per_layer``; ``compare.py``
#: still gates them, exactly, on equal seeds.
UNGATED = ("sim_p99_us", "sim_at_gain_pct", "paper_err_pct", "failed_share")

#: End-to-end metrics that are a pure function of (code, seed): two runs
#: with the same seed must agree exactly, whatever bound the file gives
#: for comparing medians taken over different seeds.
EXACT = (
    "sim_makespan_us", "sim_p50_us", "sim_p99_us",
    "sim_at_gain_pct", "paper_err_pct", "failed_share",
)

#: Layer self time shows on the workload that layer dominates.
_SELF_SHOWS_ON = {
    "sim": "sim_storm", "pami": "rma_small", "transport": "rma_small",
    "armci": "rma_small", "gax": "scf_d_at", "serve": "kv_busy",
    "apps": "scf_d_at", "machine": "fanout_1k", "topology": "fanout_1k",
    "obs": "rma_guarded", "chaos": "rma_guarded", "recover": None,
    "other": "strided_patch",
}

#: per-layer metric -> (end-to-end metric it should move, workload that
#: shows it, workload predicted unchanged). ``<layer>.self_s`` and
#: ``<layer>.calls`` are filled in from ``_SELF_SHOWS_ON`` below.
INTERACTIONS: dict[str, tuple[str | None, str | None, str | None]] = {
    "sim.self_ns_per_event": ("wall_s", "sim_storm", None),
    "pami.self_ns_per_wire_op": ("host_ops_per_s", "rma_small", "sim_storm"),
    "transport.self_ns_per_wire_op": ("host_ops_per_s", "rma_small", "sim_storm"),
    "armci.self_ns_per_op": ("host_ops_per_s", "rma_small", "strided_patch"),
    "gax.self_us_per_task": ("wall_s", "scf_d_at", "rma_small"),
    "serve.self_us_per_request": ("wall_s", "kv_busy", "rma_small"),
    "machine.self_ns_per_message": ("wall_s", "fanout_1k", "sim_storm"),
    "trace.overhead_x": (None, None, None),
    "sim.events": ("wall_s", "kv_idle", "kv_busy"),
    "sim.events_per_op": ("wall_s", "kv_idle", "rma_small"),
    "sim.host_ns_per_event": ("wall_s", "sim_storm", None),
    "pami.wire_ops": ("wall_s", "strided_patch", "sim_storm"),
    "pami.items_serviced": ("sim_makespan_us", "scf_d_at", "sim_storm"),
    "pami.wire_ops_per_op": ("host_ops_per_s", "rma_small", "sim_storm"),
    "transport.mpi3_wall_ratio": (None, "rma_small", None),
    "transport.mpi3_sim_ratio": (None, "rma_small", None),
    "armci.ops": (None, None, None),
    "armci.fences": ("sim_makespan_us", "strided_patch", "sim_storm"),
    "armci.fences_avoided": ("sim_makespan_us", "strided_patch", "sim_storm"),
    "armci.region_cache_hit_share": ("sim_p50_us", "fanout_1k", "sim_storm"),
    "armci.rdma_per_strided_op": ("wall_s", "strided_patch", "rma_small"),
    "armci.aggregate_flushes": ("wall_s", "kv_busy", "rma_small"),
    "armci.transient_retries": ("wall_s", "rma_guarded", "rma_small"),
    "armci.retry_share": ("wall_s", "rma_guarded", "rma_small"),
    "armci.integrity_retransmits": ("wall_s", "rma_guarded", "rma_small"),
    "armci.job_build_s": ("setup_s", "fanout_1k", "sim_storm"),
    "armci.rss_per_rank_kb": ("peak_rss_mb", "fanout_1k", "sim_storm"),
    "gax.counter_draws": ("wall_s", "scf_d_at", "rma_small"),
    "gax.patch_ops": ("wall_s", "scf_d_at", "rma_small"),
    "serve.requests": (None, None, None),
    "serve.wire_flushes": ("wall_s", "kv_busy", "rma_small"),
    "serve.flushes_per_request": ("wall_s", "kv_busy", "rma_small"),
    "serve.events_per_request": ("wall_s", "kv_idle", "kv_busy"),
    "serve.backpressure_deferrals": ("sim_p99_us", "kv_busy", "kv_idle"),
    "machine.net_messages": ("wall_s", "fanout_1k", "sim_storm"),
    "machine.net_bytes": ("wall_s", "strided_patch", "sim_storm"),
    "chaos.injected": ("wall_s", "rma_guarded", "rma_small"),
    "obs.spans": ("wall_s", "rma_guarded", "rma_small"),
    "repro.import_s": ("setup_s", "sim_storm", None),
}
for _layer, _shows in _SELF_SHOWS_ON.items():
    _flat = "sim_storm" if _layer not in ("sim", "other") else None
    INTERACTIONS[f"{_layer}.self_s"] = ("wall_s", _shows, _flat)
    INTERACTIONS[f"{_layer}.calls"] = ("wall_s", _shows, _flat)


def load() -> dict:
    """The parsed ``/BENCHMARK.json``."""
    with open(BENCHMARK_JSON, encoding="utf-8") as f:
        return json.load(f)


class Catalog:
    """Metric and workload definitions, indexed by name."""

    def __init__(self, doc: dict | None = None) -> None:
        doc = doc if doc is not None else load()
        self.doc = doc
        self.workloads = {w["name"]: w["why"] for w in doc["workloads"]}
        #: The end-to-end metrics the driver gates (a number on every workload).
        self.driver_end_to_end = {m["name"]: m for m in doc["end_to_end"]}
        listed = {m["name"]: m for m in doc["per_layer"]}
        #: The ledger's ten end-to-end metrics: the driver's, then the
        #: ungated four (which have no cross-seed bound).
        self.end_to_end = dict(self.driver_end_to_end)
        for name in UNGATED:
            self.end_to_end[name] = {**listed[name], "bound": None}
        #: Everything ``--trace 1`` must print, the ungated four included.
        self.driver_per_layer = listed
        self.per_layer = {n: m for n, m in listed.items() if n not in UNGATED}

    def bound(self, metric: str, same_seed: bool) -> float | None:
        """Share of the base by which ``metric`` may worsen; ``None``
        when two records cannot be compared on it.

        Exact metrics compared on one seed may not worsen at all; across
        seeds only the metrics the driver gates have a bound.
        """
        if same_seed and metric in EXACT:
            return 0.0
        return self.end_to_end[metric]["bound"]
