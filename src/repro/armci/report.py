"""Human-readable runtime reports from a job's trace.

``job.report()`` summarizes what the communication subsystem actually did
— protocol selections, cache behaviour, progress-engine work, fences —
grouped the way the paper discusses them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..util.formatting import render_table
from ..util.units import us

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import ArmciJob

#: (section, counter key, human label) rows; zero-valued rows are elided.
_COUNTER_LAYOUT: tuple[tuple[str, str, str], ...] = (
    ("protocols", "armci.put_rdma", "RDMA puts"),
    ("protocols", "armci.get_rdma", "RDMA gets"),
    ("protocols", "armci.put_fallback", "fall-back puts (AM)"),
    ("protocols", "armci.get_fallback", "fall-back gets (AM)"),
    ("protocols", "armci.puts_strided_zero_copy", "strided puts (zero-copy)"),
    ("protocols", "armci.gets_strided_zero_copy", "strided gets (zero-copy)"),
    ("protocols", "armci.puts_strided_typed", "strided puts (typed)"),
    ("protocols", "armci.gets_strided_typed", "strided gets (typed)"),
    ("protocols", "armci.puts_strided_pack", "strided puts (pack)"),
    ("protocols", "armci.gets_strided_pack", "strided gets (pack)"),
    ("protocols", "armci.putv_zero_copy", "vector puts (zero-copy)"),
    ("protocols", "armci.getv_zero_copy", "vector gets (zero-copy)"),
    ("protocols", "armci.putv_typed", "vector puts (typed/aggregated)"),
    ("protocols", "armci.putv_pack", "vector puts (pack)"),
    ("protocols", "armci.getv_pack", "vector gets (pack)"),
    ("protocols", "armci.accs", "accumulates"),
    ("protocols", "armci.rmws", "read-modify-writes"),
    ("datapath", "transport.am_emulations", "active messages emulated (two-sided)"),
    ("datapath", "transport.win_attach", "window attaches (registration)"),
    ("datapath", "transport.amo_native", "AMOs completed natively (NIC)"),
    ("datapath", "armci.strided_rdma_ops", "strided RDMA ops posted"),
    ("datapath", "armci.vector_rdma_ops", "vector RDMA ops posted"),
    ("datapath", "armci.strided_chunks_coalesced", "strided chunks merged into runs"),
    ("datapath", "armci.vector_segments_coalesced", "vector segments merged into runs"),
    ("aggregation", "armci.aggregate_buffer_regrows", "staging buffer regrows"),
    ("aggregation", "armci.aggregate_staged", "fragments staged"),
    ("aggregation", "armci.aggregate_flushes", "aggregate flushes"),
    ("caches", "armci.endpoints_created", "endpoints created"),
    ("caches", "armci.endpoint_cache_hits", "endpoint cache hits"),
    ("caches", "armci.region_cache_hits", "region cache hits"),
    ("caches", "armci.region_cache_misses", "region cache misses"),
    ("caches", "armci.region_cache_evictions", "region cache evictions"),
    ("synchronization", "transport.flush_syncs", "flush round-trips (completion)"),
    ("synchronization", "armci.fences", "fences"),
    ("synchronization", "armci.fences_forced", "fences forced by reads"),
    ("synchronization", "armci.fences_avoided", "fences avoided (cs_mr)"),
    ("synchronization", "armci.barriers", "barriers"),
    ("resilience", "transport.amo_software_fallbacks", "AMOs emulated in software"),
    ("resilience", "armci.transient_retries", "transient faults retried"),
    ("resilience", "armci.retry_successes", "retries that succeeded"),
    ("resilience", "recover.failures_detected", "rank failures detected"),
    ("resilience", "pami.ranks_respawned", "ranks respawned"),
    ("resilience", "pami.stale_deliveries_dropped", "stale deliveries dropped"),
    ("resilience", "recover.regions_protected", "regions protected"),
    ("resilience", "recover.epochs_committed", "checkpoint epochs committed"),
    ("resilience", "recover.bytes_replicated", "bytes replicated"),
    ("resilience", "recover.recoveries_completed", "recoveries completed"),
    ("resilience", "recover.epochs_replayed", "epochs replayed"),
    ("resilience", "recover.bytes_restored", "bytes restored"),
    ("resilience", "recover.bytes_rereplicated", "bytes re-replicated"),
    ("resilience", "gax.pool_shards_failed_over", "task-pool shards failed over"),
    ("resilience", "gax.watermarks_merged", "standby watermarks merged"),
    ("serving", "serve.actors_registered", "actors registered"),
    ("serving", "serve.records_posted", "actor records posted"),
    ("serving", "serve.records_sent", "actor records sent (wire)"),
    ("serving", "serve.records_delivered", "actor records delivered"),
    ("serving", "serve.local_deliveries", "loopback deliveries"),
    ("serving", "serve.wire_flushes", "aggregated mailbox flushes"),
    ("serving", "serve.head_refreshes", "ring head refreshes (AMO)"),
    ("serving", "serve.backpressure_deferrals", "sends deferred (ring full)"),
    ("serving", "serve.guard_deferrals", "inbox polls deferred (guard)"),
    ("serving", "serve.waves_coordinated", "termination waves coordinated"),
    ("serving", "serve.wave_contributions", "termination wave contributions"),
    ("serving", "serve.termination_failovers", "termination coordinator failovers"),
    ("serving", "serve.peer_deaths", "actor peers discovered dead"),
    ("serving", "serve.records_dropped_dead", "records dropped (dead peer)"),
    ("serving", "kv.requests_applied", "KV requests applied"),
    ("serving", "kv.responses_sent", "KV responses sent"),
    ("serving", "kv.responses_received", "KV responses received"),
    ("serving", "kv.responses_late", "KV responses past deadline"),
    ("serving", "kv.deadline_misses", "KV requests served late"),
    ("serving", "kv.ctl_messages", "KV control messages"),
    ("serving", "kv.shard_failovers", "KV shard failovers"),
    ("progress", "pami.items_serviced", "progress items serviced"),
    ("progress", "armci.async_thread_serviced", "items by async threads"),
    ("progress", "pami.rmw_serviced", "AMOs serviced"),
    ("network", "net.put.messages", "put messages"),
    ("network", "net.get.messages", "get messages"),
    ("network", "net.am.messages", "active messages"),
    ("network", "net.control.messages", "control packets"),
    ("network", "chaos.link_kills", "links killed"),
    ("network", "chaos.link_revives", "links revived (plan)"),
    ("network", "chaos.link_degrades", "links degraded"),
    ("network", "net.reroutes", "routes detoured off dim-order"),
    ("network", "net.route_recomputes", "route recomputations"),
    ("network", "net.reroute_extra_hops", "extra hops from detours"),
    ("network", "net.link_drops", "transfers lost on links"),
    ("network", "net.payload_corruptions", "payloads corrupted in flight"),
    ("network", "net.retransmits", "link-loss retransmits"),
    ("network", "net.health_probes", "link health probes"),
    ("network", "net.links_suspected", "links marked suspect"),
    ("network", "net.links_dead", "links declared dead"),
    ("network", "net.links_revived", "links recovered (observed)"),
    ("network", "net.ranks_unreachable", "ranks escalated (unreachable)"),
    ("network", "pami.silent_corruptions", "corruptions landed silently"),
    ("network", "armci.integrity.protected", "transfers checksummed"),
    ("network", "armci.integrity.checksum_failures", "checksum failures caught"),
    ("network", "armci.integrity.retransmits", "integrity retransmits"),
    ("network", "armci.integrity.retransmit_bytes", "integrity retransmit bytes"),
    ("network", "armci.integrity.duplicates_discarded", "duplicate deliveries discarded"),
    ("network", "armci.integrity.aborted", "deliveries given up (budget spent / no path)"),
)


def runtime_report(job: "ArmciJob") -> str:
    """Render the job's counters grouped by subsystem."""
    trace = job.trace
    caps = job.transport.capabilities
    rows = [
        [
            "datapath",
            "communication backend",
            f"{caps.name} ({caps.completion} completion)",
        ]
    ]
    for section, key, label in _COUNTER_LAYOUT:
        value = trace.count(key)
        if value:
            rows.append([section, label, value])
    bytes_moved = (
        trace.count("net.put.bytes")
        + trace.count("net.get.bytes")
        + trace.count("net.am.bytes")
    )
    rows.append(["network", "payload bytes moved", bytes_moved])
    rows.append(
        ["time", "rmw wait (all ranks)", f"{us(trace.time('armci.rmw_wait_time')):.1f} us"]
    )
    rows.append(
        ["time", "compute (all ranks)", f"{us(trace.time('armci.compute_time')):.1f} us"]
    )
    if trace.count("recover.recoveries_completed"):
        mttr = trace.time("recover.mttr") / trace.count(
            "recover.recoveries_completed"
        )
        rows.append(["time", "mean time to recovery", f"{us(mttr):.1f} us"])
    rows.append(
        ["time", "simulated clock", f"{us(job.engine.now):.1f} us"]
    )
    # Plain dict reads: asking the registry for an instrument creates
    # it, and a job that never served must not grow ``serve.*`` ones.
    lat = job.serve_metrics.histograms.get("serve.latency")
    if lat is not None and lat.count:
        for label, p in (("p50", 50), ("p99", 99), ("p999", 99.9)):
            rows.append(
                [
                    "serving",
                    f"request latency {label}",
                    f"{us(lat.percentile(p)):.1f} us",
                ]
            )
        duration = job.serve_metrics.gauges.get("serve.duration")
        seconds = duration.value if duration is not None else job.engine.now
        if seconds > 0:
            rows.append(
                [
                    "serving",
                    "response throughput",
                    f"{lat.count / seconds:.0f} req/s",
                ]
            )
    obs = job.obs
    if obs is not None:
        rows.append(["observability", "spans recorded", len(obs.spans)])
        if obs.truncated_spans:
            rows.append(
                ["observability", "spans truncated at finalize", obs.truncated_spans]
            )
        from ..obs.critical_path import critical_path

        report = critical_path(obs.finished(), obs.edges)
        for category, seconds in report.top_categories(5):
            share = 100.0 * seconds / report.window if report.window else 0.0
            rows.append(
                [
                    "critical path",
                    category,
                    f"{us(seconds):.1f} us ({share:.1f}%)",
                ]
            )
    return render_table(
        ["subsystem", "metric", "value"],
        rows,
        title=f"ARMCI runtime report: {job.num_procs} procs, "
        f"{'AT' if job.config.async_thread else 'D'} mode",
    )
