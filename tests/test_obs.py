"""Unit tests for the repro.obs subsystem: spans, metrics, exporters,
and critical-path analysis."""

import dataclasses
import gc
import hashlib
import importlib.util
import json
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.nwchem import ScfConfig, run_scf
from repro.armci import ArmciConfig, ArmciJob, ObsConfig
from repro.armci import config as armci_config
from repro.armci.config import RetryPolicy
from repro.obs.critical_path import attribution_rows, critical_path
from repro.obs.export import (
    dumps_perfetto,
    perfetto_payload,
    to_trace_events,
    validate_trace_events,
    write_metrics_json,
)
from repro.obs.metrics import (
    BUCKET_ANCHOR,
    NUM_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bucket_index,
    bucket_upper_edge,
)
from repro.chaos import ChaosConfig, FaultPlan
from repro.obs.span import NO_SPAN, Obs, OpenSpan, Span
from repro.pami.world import PamiWorld
from repro.sim.engine import Engine
from repro.util.timeline import intervals

from .conftest import create_contexts

REPO = Path(__file__).resolve().parent.parent


class FakeEngine:
    """Just enough engine for Obs: a settable clock."""

    def __init__(self):
        self.now = 0.0


@pytest.fixture
def obs():
    return Obs(FakeEngine(), MetricsRegistry())


class TestSpans:
    def test_begin_end_and_ambient_stack(self, obs):
        outer = obs.begin(0, "main", "op", "put")
        assert obs.current(0) == outer
        obs.engine.now = 1.0
        inner = obs.begin(0, "main", "backoff", "retry_sleep")
        assert obs.current(0) == inner
        obs.engine.now = 2.0
        obs.end(inner)
        assert obs.current(0) == outer
        obs.end(outer)
        assert obs.current(0) is None
        spans = obs.finished()
        assert [s.name for s in spans] == ["put", "retry_sleep"]
        assert obs.get(inner).parent_id == outer
        assert obs.get(outer).parent_id is None
        assert obs.get(inner).end - obs.get(inner).start == pytest.approx(1.0)

    def test_per_rank_stacks_are_independent(self, obs):
        a = obs.begin(0, "main", "op", "put")
        b = obs.begin(1, "main", "op", "get")
        assert obs.current(0) == a
        assert obs.current(1) == b

    def test_explicit_parent_and_root(self, obs):
        ambient = obs.begin(0, "main", "op", "put")
        root = obs.begin(0, "main", "op", "detached", parent_id=None)
        child = obs.begin(0, "main", "op", "linked", parent_id=ambient)
        assert obs.get(root).parent_id is None
        assert obs.get(child).parent_id == ambient

    def test_record_skips_the_stack(self, obs):
        ambient = obs.begin(0, "main", "op", "put")
        sid = obs.record(0, "net", "rdma", "rdma_put", 0.5, 1.5, nbytes=64)
        assert obs.current(0) == ambient  # no push
        span = obs.get(sid)
        assert span.end == 1.5
        assert span.parent_id == ambient
        assert span.attrs["nbytes"] == 64

    def test_retroactive_start_and_attrs_on_end(self, obs):
        obs.engine.now = 3.0
        sid = obs.begin(0, "main", "am_service", "svc", start=2.0, src=1)
        obs.engine.now = 4.0
        obs.end(sid, category="amo_service", queue_wait=0.5)
        span = obs.get(sid)
        assert span.start == 2.0 and span.end == 4.0
        assert span.category == "amo_service"
        assert span.attrs == {"src": 1, "queue_wait": 0.5}

    def test_double_end_is_idempotent(self, obs):
        sid = obs.begin(0, "main", "op", "put")
        obs.engine.now = 1.0
        obs.end(sid)
        obs.engine.now = 2.0
        obs.end(sid)
        assert obs.get(sid).end == 1.0

    def test_out_of_order_close_keeps_stack_sane(self, obs):
        outer = obs.begin(0, "main", "op", "outer")
        inner = obs.begin(0, "main", "op", "inner")
        obs.end(outer)  # not the top: removed from mid-stack
        assert obs.current(0) == inner
        obs.end(inner)
        assert obs.current(0) is None

    def test_context_manager(self, obs):
        with OpenSpan(obs, 0, "main", "op", "block", {}) as span:
            assert obs.current(0) == span.sid
            span.note(items=3)
        assert obs.current(0) is None
        assert obs.get(span.sid).end is not None
        assert obs.get(span.sid).attrs == {"items": 3}

    def test_span_stays_open_across_a_yield(self, obs):
        def body():
            with OpenSpan(obs, 0, "main", "compute", "compute", {}):
                yield

        gen = body()
        next(gen)
        obs.engine.now = 3.0
        assert obs.spans[0].end is None
        gen.close()  # what killing the rank's process does
        assert obs.spans[0].end == 3.0

    def test_no_span_is_inert(self):
        with NO_SPAN as span:
            span.note(items=3)
            span.caused_by(object())
        assert span is NO_SPAN and span.sid is None

    def test_finalize_truncates_open_spans(self, obs):
        done = obs.begin(0, "main", "op", "done")
        obs.end(done)
        obs.begin(0, "main", "op", "hung")
        obs.engine.now = 5.0
        obs.finalize()
        assert obs.truncated_spans == 1
        hung = [s for s in obs.spans if s.name == "hung"][0]
        assert hung.end == 5.0
        assert hung.attrs["truncated"] is True
        assert obs.current(0) is None

    def test_timeline_labels_emit_trace_intervals(self, obs):
        sid = obs.begin(0, "main", "op", "put", timeline="put")
        plain = obs.begin(0, "main", "op", "untagged")
        obs.begin(0, "main", "op", "get", timeline="get")  # left open
        obs.engine.now = 1.0
        obs.end(sid)
        obs.end(plain)
        obs.record(1, "main", "fence", "fence", 1.0, 1.0, timeline="fence")
        # The Gantt is a view: closed, non-empty, labelled spans only.
        assert intervals(obs.spans) == [("r0", "put", 0.0, 1.0)]

    def test_span_durations_feed_metrics(self, obs):
        sid = obs.begin(0, "main", "fence", "fence")
        obs.engine.now = 2e-6
        obs.end(sid)
        h = obs.metrics.histogram("obs.span.fence")
        assert h.count == 1
        assert h.total == pytest.approx(2e-6)


class TestCausality:
    def test_event_registration(self, obs):
        engine = Engine()
        ev = engine.event("done")
        sid = obs.record(0, "net", "rdma", "rdma_put", 0.0, 1.0)
        assert obs.span_for_event(ev) is None
        obs.register_event(ev, sid)
        assert obs.span_for_event(ev) == sid
        # Unregistered objects (and None ids) stay invisible.
        obs.register_event(engine.event("other"), None)
        assert obs.span_for_event(engine.event("third")) is None

    def test_add_edge_rejects_degenerate(self, obs):
        a = obs.record(0, "net", "rdma", "x", 0.0, 1.0)
        b = obs.record(1, "main", "rdma_wait", "y", 0.0, 1.0)
        obs.add_edge(a, b)
        obs.add_edge(None, b)
        obs.add_edge(a, None)
        obs.add_edge(a, a)
        assert obs.edges == [(a, b)]

    def test_barrier_edge_from_last_arriver(self, obs):
        key = 7
        obs.engine.now = 1.0
        s0 = obs.begin(0, "main", "barrier", "barrier")
        obs.barrier_arrive(key, 0, s0)
        obs.engine.now = 3.0
        s1 = obs.begin(1, "main", "barrier", "barrier")
        obs.barrier_arrive(key, 1, s1)
        obs.engine.now = 3.1
        obs.end(s0)
        obs.barrier_exit(key, 0, s0)
        obs.end(s1)
        obs.barrier_exit(key, 1, s1)
        # Rank 0 waited on rank 1 (the last arriver); rank 1 waited on
        # nobody, so no self-edge is recorded.
        assert obs.edges == [(s1, s0)]

    def test_barrier_rounds_match_by_arrival_count(self, obs):
        key = 7
        sids = {}
        for rnd in range(2):
            for rank in (0, 1):
                obs.engine.now = rnd * 10.0 + rank
                sid = obs.begin(rank, "main", "barrier", "barrier")
                sids[(rnd, rank)] = sid
                obs.barrier_arrive(key, rank, sid)
            for rank in (0, 1):
                obs.end(sids[(rnd, rank)])
                obs.barrier_exit(key, rank, sids[(rnd, rank)])
        assert obs.edges == [
            (sids[(0, 1)], sids[(0, 0)]),
            (sids[(1, 1)], sids[(1, 0)]),
        ]


class TestContextLane:
    def test_lane_assignment(self):
        """The last of several contexts is the async lane; a new one
        moves it."""
        world = PamiWorld(num_procs=1, procs_per_node=1)
        client = world.clients[0]
        lanes = []
        for _ in range(3):
            create_contexts(world, rho=1)
            lanes.append([ctx.lane for ctx in client.contexts])
        assert lanes == [
            ["main"], ["main", "async"], ["main", "main", "async"]
        ]


class TestMetrics:
    def test_bucket_scheme(self):
        assert bucket_index(0.0) == 0
        assert bucket_index(BUCKET_ANCHOR) == 0
        assert bucket_index(1.5e-9) == 1
        assert bucket_index(2e-9) == 1  # (1, 2] ns
        assert bucket_index(2.1e-9) == 2
        assert bucket_index(1e30) == NUM_BUCKETS - 1
        assert bucket_index(float("inf")) == NUM_BUCKETS - 1
        assert bucket_upper_edge(0) == BUCKET_ANCHOR
        assert bucket_upper_edge(10) == pytest.approx(1024e-9)
        # Every value lands in the bucket whose upper edge bounds it.
        for v in (3e-9, 1e-6, 0.5, 7.0):
            i = bucket_index(v)
            assert v <= bucket_upper_edge(i)
            assert v > bucket_upper_edge(i - 1)

    def test_counter_and_gauge_per_rank(self):
        reg = MetricsRegistry()
        c = reg.counter("ops")
        assert isinstance(c, Counter) and c.total == 0 and c.per_rank == {}
        assert "ops" not in reg.counters  # a handle alone creates nothing
        c.incr()
        c.incr(4, rank=2)
        reg.incr("ops", 2)  # the flat store and the handle are one counter
        reg.counters["ops"] += 1
        assert c.total == reg.count("ops") == 8
        assert c.per_rank == {2: 4}
        g = Gauge()
        g.set(1.5, rank=0)
        g.set(2.5)
        assert g.value == 2.5
        assert g.per_rank == {0: 1.5}

    def test_histogram_summary_and_bucket_percentiles(self):
        h = Histogram()
        for v in (1e-6, 2e-6, 3e-6, 100e-6):
            h.record(v)
        s = h.summary()
        assert s["count"] == 4
        assert s["min"] == 1e-6 and s["max"] == 100e-6
        assert s["mean"] == pytest.approx(26.5e-6)
        # Bucketed percentiles are deterministic upper edges.
        assert s["p50"] == bucket_upper_edge(bucket_index(2e-6))
        assert s["p99"] == bucket_upper_edge(bucket_index(100e-6))
        assert h.raw == []  # nothing retained by default

    def test_exact_percentiles_with_keep_raw(self):
        h = Histogram(keep_raw=True)
        for v in range(1, 101):
            h.record(v * 1e-6)
        assert h.percentile(50) == pytest.approx(50e-6)
        assert h.percentile(95) == pytest.approx(95e-6)
        assert h.raw[:3] == [1e-6, 2e-6, 3e-6]

    def test_counts_and_durations_read_zero_until_recorded(self):
        reg = MetricsRegistry()
        assert reg.count("armci.fences") == 0
        assert reg.time("armci.rmw_wait_time") == 0.0
        assert not reg.counters and not reg.durations  # reads create nothing
        reg.incr("armci.fences")
        reg.incr("net.put.bytes", 64)
        reg.add_time("armci.rmw_wait_time", 1.5e-6)
        reg.add_time("armci.rmw_wait_time", 0.5e-6)
        assert reg.count("armci.fences") == 1
        assert reg.count("net.put.bytes") == 64
        assert reg.time("armci.rmw_wait_time") == pytest.approx(2e-6)

    def test_registry_histogram_series(self):
        # Default: buckets only (O(1) memory), no raw retention.
        reg = MetricsRegistry()
        reg.histogram("lat").record(1.0)
        reg.histogram("lat").record(2.0)
        assert reg.histogram("lat").raw == []
        summary = reg.snapshot()["histograms"]["lat"]
        assert summary["count"] == 2
        assert summary["min"] == 1.0 and summary["max"] == 2.0
        assert summary["sum"] == pytest.approx(3.0)
        # Raw retention is per histogram, chosen by whoever creates it.
        reg.histogram("exact", keep_raw=True).record(1.0)
        reg.histogram("exact").record(2.0)
        assert reg.histogram("exact").raw == [1.0, 2.0]

    def test_registry_snapshot_is_json_stable(self):
        reg = MetricsRegistry()
        reg.counter("b").incr(2, rank=1)
        reg.counter("a").incr()
        reg.gauge("depth").set(3.0)
        reg.add_time("wait", 2e-6)
        reg.histogram("lat").record(5e-6, rank=1)
        snap = reg.snapshot(per_rank=True)
        assert list(snap["counters"]) == ["a", "b"]
        assert snap["durations"] == {"wait": 2e-6}
        assert snap["per_rank"]["counters"]["b"] == {"1": 2}
        assert snap["per_rank"]["histograms"]["lat"]["1"]["count"] == 1
        text = json.dumps(snap, sort_keys=True)
        assert json.dumps(reg.snapshot(per_rank=True), sort_keys=True) == text


class TestHistogramShardMerge:
    """Batch recording — the serving tier records one latency array per
    delivered batch and quotes p50/p99/p999 off the result, so
    ``record_many`` must agree with a ``record`` per observation."""

    @given(
        st.lists(
            st.one_of(
                st.sampled_from([
                    0.0, -0.0, -1e-6, BUCKET_ANCHOR, 2e-9, 2.0000001e-9,
                    1024e-9, 0.5, 1e30, 1e300, float("inf"),
                ]),
                st.floats(min_value=-1e-3, max_value=1e3, allow_nan=False),
            ),
            max_size=300,
        ),
        st.sampled_from([None, 0, 3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_record_many_equals_record_loop(self, values, rank):
        one = Histogram(keep_raw=True)
        many = Histogram(keep_raw=True)
        for h in (one, many):
            h.record(5e-6, rank=rank)  # an earlier observation to fold into
        for v in values:
            one.record(v, rank=rank)
        many.record_many(values, rank=rank)
        assert one.per_rank().keys() == many.per_rank().keys()
        pairs = [(one, many)] + [(one.per_rank()[r], many.per_rank()[r])
                                 for r in one.per_rank()]
        for a, b in pairs:
            assert b.counts == a.counts
            assert b.count == a.count
            assert b.min == a.min and b.max == a.max
            assert b.raw == a.raw
            # Pairwise against in-order summation: exact totals are item 9(b).
            assert b.total == pytest.approx(a.total)

    def test_record_many_hits_exact_bucket_edges(self):
        # Edge values must land in the same bucket whether recorded
        # scalar or vectorized (the frexp half-open boundary case), and
        # inf or an anchor ratio that overflows lands in the top bucket.
        edges = [BUCKET_ANCHOR, 2e-9, 2.0000001e-9, 1024e-9, 0.5, 1e30, 0.0,
                 1e300, float("inf")]
        scalar = Histogram()
        vector = Histogram()
        for v in edges:
            scalar.record(v)
        vector.record_many(edges)
        assert vector.counts == scalar.counts
        assert scalar.counts[NUM_BUCKETS - 1] == 3
        only_inf = Histogram()
        only_inf.record(float("inf"))
        assert only_inf.percentile(50) == bucket_upper_edge(NUM_BUCKETS - 1)

    def test_summary_includes_p999(self):
        h = Histogram(keep_raw=True)
        h.record_many([float(i) * 1e-6 for i in range(1, 1001)])
        s = h.summary()
        assert s["p999"] == pytest.approx(1000e-6)
        assert s["p999"] >= s["p99"] >= s["p95"] >= s["p50"]


def _sample_spans():
    return [
        Span(1, None, 0, "main", "op", "put", 0.0, 3.0),
        Span(2, 1, 0, "net", "rdma", "rdma_put", 0.5, 2.0, {"nbytes": 8}),
        Span(3, 1, 1, "async", "progress", "drain", 1.0, 1.5),
    ]


class TestExport:
    def test_tracks_and_events(self):
        events = to_trace_events(_sample_spans(), [(2, 1)])
        meta = [e for e in events if e["ph"] == "M"]
        # One process per rank + one thread per (rank, lane) pair.
        assert {(e["name"], e["pid"]) for e in meta} == {
            ("process_name", 0),
            ("process_name", 1),
            ("thread_name", 0),
            ("thread_name", 1),
        }
        lanes = {
            (e["pid"], e["args"]["name"])
            for e in meta
            if e["name"] == "thread_name"
        }
        assert lanes == {(0, "main"), (0, "net"), (1, "async")}
        xs = [e for e in events if e["ph"] == "X"]
        assert [e["name"] for e in xs] == ["put", "rdma_put", "drain"]
        assert xs[0]["ts"] == 0.0 and xs[0]["dur"] == pytest.approx(3e6)
        assert xs[1]["args"] == {"span_id": 2, "parent_id": 1, "nbytes": 8}
        flows = [e for e in events if e["ph"] in ("s", "f")]
        assert len(flows) == 2
        assert flows[0]["id"] == flows[1]["id"]

    def test_payload_validates_and_is_byte_stable(self):
        spans = _sample_spans()
        payload = perfetto_payload(spans, [(2, 1)])
        assert validate_trace_events(payload) == []
        assert dumps_perfetto(spans, [(2, 1)]) == dumps_perfetto(
            list(spans), [(2, 1)]
        )

    def test_open_spans_are_dropped(self):
        spans = _sample_spans() + [Span(4, None, 0, "main", "op", "open", 9.0)]
        names = [e["name"] for e in to_trace_events(spans) if e["ph"] == "X"]
        assert "open" not in names

    def test_validator_flags_bad_events(self):
        assert validate_trace_events([]) != []
        assert validate_trace_events({"traceEvents": 3}) != []
        bad = {
            "traceEvents": [
                {"ph": "Z", "pid": 0, "tid": 0},
                {"ph": "X", "pid": 0, "tid": 0, "ts": 1.0, "dur": -2.0,
                 "name": "x"},
                {"ph": "s", "pid": 0, "tid": 0, "ts": 1.0},
            ]
        }
        problems = validate_trace_events(bad)
        assert len(problems) == 3

    def test_file_writers(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("ops").incr(3)
        mpath = tmp_path / "metrics.json"
        write_metrics_json(mpath, reg)
        assert json.loads(mpath.read_text())["counters"]["ops"] == 3


class TestCriticalPath:
    def test_coverage_is_exact_and_waits_attribute_in_place(self):
        spans = [
            Span(1, None, 0, "main", "op", "get", 0.0, 10.0),
            Span(2, 1, 0, "main", "counter_wait", "rmw.wait", 2.0, 8.0),
            # Remote service work: stays out of the sweep.
            Span(3, None, 1, "main", "amo_service", "rmw", 7.0, 8.0),
        ]
        report = critical_path(spans, [(3, 2)])
        assert report.window == pytest.approx(10.0)
        assert report.coverage == pytest.approx(1.0)
        assert report.attribution["counter_wait"] == pytest.approx(6.0)
        assert report.attribution["op"] == pytest.approx(4.0)
        assert "amo_service" not in report.attribution

    def test_barrier_hop_crosses_ranks(self):
        spans = [
            # Rank 0 computes 1s then dwells at the barrier until t=9.
            Span(1, None, 0, "main", "compute", "work", 0.0, 1.0),
            Span(2, None, 0, "main", "barrier", "barrier", 1.0, 9.0),
            # Rank 1 computes until t=8.9 and sails through the barrier.
            Span(3, None, 1, "main", "compute", "work", 0.0, 8.9),
            Span(4, None, 1, "main", "barrier", "barrier", 8.9, 9.0),
        ]
        report = critical_path(spans, [(4, 2)], start_rank=0)
        # The path hops to rank 1 at its barrier arrival: the window is
        # rank 1's compute plus a sliver of true barrier dwell — not
        # rank 0's full 8-second dwell.
        assert report.coverage == pytest.approx(1.0)
        assert report.attribution["compute"] == pytest.approx(8.9)
        assert report.attribution["barrier"] == pytest.approx(0.1)
        ranks = {seg.rank for seg in report.segments}
        assert ranks == {0, 1}

    def test_idle_gaps_are_attributed(self):
        spans = [
            Span(1, None, 0, "main", "op", "a", 0.0, 2.0),
            Span(2, None, 0, "main", "op", "b", 5.0, 6.0),
        ]
        report = critical_path(spans, [])
        assert report.attribution["idle"] == pytest.approx(3.0)
        assert report.coverage == pytest.approx(1.0)

    def test_attribution_rows_render(self):
        spans = [Span(1, None, 0, "main", "op", "a", 0.0, 2.0)]
        rows = attribution_rows(critical_path(spans, []))
        assert rows == [["op", "2000.000 ms", "100.0%"]]

    def test_empty_input(self):
        report = critical_path([], [])
        assert report.segments == []
        assert report.coverage == pytest.approx(1.0)


class TestJobIntegration:
    def _body(self, rt):
        alloc = yield from rt.malloc(64)
        if rt.rank == 0:
            src = rt.world.space(0).allocate(64)
            yield from rt.put(1, src, alloc.addr(1), 64)
            yield from rt.fence(1)
            yield from rt.rmw(1, alloc.addr(1), "fetch_add", 1)
        yield from rt.barrier()

    def test_disabled_by_default(self, monkeypatch):
        job = ArmciJob(2, procs_per_node=2, config=ArmciConfig())
        job.init()
        assert job.obs is None
        job.run(self._body)

        # Obs is a pure observer: one seeded body (chaos retries, a
        # compute block, every blocking-call bracket) runs the same
        # schedule with it on or off, and off it builds no span object.
        built = []
        init = OpenSpan.__init__

        def counting_init(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(OpenSpan, "__init__", counting_init)

        def body(rt):
            for _ in range(4):
                yield from self._body(rt)
            yield from rt.compute(5e-6)
            yield from rt.barrier()

        for mode in (ArmciConfig.default_mode, ArmciConfig.async_thread_mode):
            runs = []
            for enabled in (False, True):
                job = ArmciJob(
                    2, procs_per_node=1,
                    config=mode(obs=ObsConfig(enabled=enabled)),
                    chaos=ChaosConfig(drop_prob=0.2, seed=11),
                    engine=Engine(record_schedule=True),
                )
                job.init()
                job.run(body)
                assert job.trace.count("armci.transient_retries") > 0
                runs.append((job.engine.now, job.engine.schedule_digest))
                assert bool(built) == enabled
            assert runs[0] == runs[1]
            built.clear()

    def test_killed_rank_closes_compute_and_backoff_at_the_crash(self, monkeypatch):
        """A rank a FaultPlan kills inside ``rt.compute`` or a retry
        backoff leaves that span closed at the crash time, like every
        other bracket — not open until job end and stamped truncated."""
        monkeypatch.setattr(armci_config, "RETRY_BASE_DELAY", 1e-3)
        config = ArmciConfig(
            obs=ObsConfig(enabled=True),
            retry=RetryPolicy(max_delay=1e-3),
        )
        job = ArmciJob(
            4, procs_per_node=1, config=config,
            chaos=ChaosConfig(drop_prob=1.0, seed=3, links=frozenset({(1, 2)})),
            fault_plan=FaultPlan().crash(0, at=200e-6).crash(1, at=300e-6),
        )
        job.init()
        start = job.engine.now

        def body(rt):
            alloc = yield from rt.malloc(64)
            if rt.rank == 0:
                yield from rt.compute(1e-3)
            elif rt.rank == 1:
                src = rt.world.space(1).allocate(64)
                yield from rt.put(2, src, alloc.addr(2), 64)
            # Ranks 2 and 3 just leave: no collective after the deaths.

        job.run(body)
        assert job.obs.truncated_spans == 0
        ends = {
            s.category: s.end - start
            for s in job.obs.spans
            if s.rank in (0, 1) and s.category in ("compute", "backoff")
        }
        assert ends == pytest.approx({"compute": 200e-6, "backoff": 300e-6})

    def test_enabled_records_clean_span_tree(self):
        config = ArmciConfig(obs=ObsConfig(enabled=True))
        job = ArmciJob(2, procs_per_node=2, config=config)
        job.init()
        assert job.obs is not None
        job.run(self._body)
        obs = job.obs
        assert obs.truncated_spans == 0
        spans = obs.finished()
        assert len(spans) == len(obs.spans)  # everything closed
        cats = {s.category for s in spans}
        assert {"op", "rdma", "fence", "barrier", "counter_wait"} <= cats
        assert validate_trace_events(perfetto_payload(spans, obs.edges)) == []
        report = job.report()
        assert "spans recorded" in report
        assert "critical path" in report

    def test_same_seed_runs_export_identical_bytes(self):
        payloads = []
        for _ in range(2):
            config = ArmciConfig(obs=ObsConfig(enabled=True))
            job = ArmciJob(2, procs_per_node=2, config=config)
            job.init()
            job.run(self._body)
            payloads.append(
                dumps_perfetto(job.obs.finished(), job.obs.edges)
            )
        assert payloads[0] == payloads[1]


def _retained_obs_bytes(fn):
    """``(result, bytes)``: what ``fn()`` allocated in ``repro/obs``
    frames and still holds once it returned (``tracemalloc``)."""
    only_obs = [tracemalloc.Filter(True, "*/repro/obs/*")]
    gc.collect()
    tracemalloc.start(1)
    try:
        before = tracemalloc.take_snapshot().filter_traces(only_obs)
        result = fn()
        gc.collect()
        after = tracemalloc.take_snapshot().filter_traces(only_obs)
    finally:
        tracemalloc.stop()
    return result, sum(d.size_diff for d in after.compare_to(before, "filename"))


def _md5(text: str) -> str:
    return hashlib.md5(text.encode()).hexdigest()


class TestColumnStore:
    """``Obs`` keeps a span as one row of columns and builds ``Span``
    records on read; every output built from it is what the
    object-per-span store gave, byte for byte."""

    #: The CI ``obs`` entry's traced SCF (benchmarks/bench_paper.py).
    TRACE_SCF = ScfConfig(nblocks=10, task_time=5e-4, iterations=1)
    #: md5 of (Perfetto payload, ``snapshot(per_rank=True)``, critical
    #: path attribution rows, critical path segments, timeline
    #: intervals), captured from the object-per-span store.
    DIGESTS = {
        "D": (
            "b9dece20b455cf76ea5f495a928a7bb1",
            "1e3f75d0dc15558fbf92917e0d994cb2",
            "821a7496bf9aa8122b2b61ab3d02e45d",
            "e4bcecb646af1226f04808b8881f7d80",
            "fc4fc0af2b8d72e2315b8224735f18d0",
        ),
        "AT": (
            "4c6dd74597b85005aa18442e784fb682",
            "65a52eed99c0d04ef0d5d0a5d1d08d5a",
            "e9e16b4b25be569980bdf87551ae9f82",
            "39aa65d237585fbbfb6e1351c1868f5e",
            "638897c49b0ced5b2ae355464ee01f1e",
        ),
    }

    def test_records_are_read_only_copies(self, obs):
        sid = obs.begin(0, "main", "op", "put", nbytes=8)
        record = obs.get(sid)
        record.end = 5.0
        record.attrs["nbytes"] = 9
        assert obs.get(sid).end is None and obs.get(sid).attrs == {"nbytes": 8}
        assert obs.get(sid) == Span(
            sid, None, 0, "main", "op", "put", 0.0, None, {"nbytes": 8}
        )
        with pytest.raises(TypeError):
            obs.spans[0] = record
        assert not hasattr(obs.finished(), "append")
        assert obs.get(0) is None and obs.get(sid + 1) is None

    def test_category_is_read_without_a_record(self, obs, monkeypatch):
        sid = obs.begin(0, "main", "handle_wait", "get.wait")
        obs.end(sid, category="rdma_wait")
        monkeypatch.setattr(Obs, "_record", None)
        assert obs.category(sid) == "rdma_wait"

    def test_sequences_are_in_id_order(self, obs):
        a = obs.begin(0, "main", "op", "a")
        b = obs.record(1, "net", "rdma", "b", 0.0, 1.0)
        c = obs.begin(0, "main", "op", "c")
        obs.end(c)
        assert [s.span_id for s in obs.spans] == [a, b, c]
        assert [s.span_id for s in obs.finished()] == [b, c]
        assert [s.name for s in obs.finished()[::-1]] == ["c", "b"]
        obs.end(a)
        assert [s.span_id for s in obs.finished()] == [a, b, c]

    def test_finished_len_does_not_build_records(self, obs, monkeypatch):
        for i in range(20_000):
            obs.record(i % 8, "net", "rdma", "rdma_put", 0.0, 1.0, nbytes=i)
        monkeypatch.setattr(Obs, "_record", None)
        n, retained = _retained_obs_bytes(lambda: len(obs.finished()))
        assert n == 20_000
        assert retained < 512
        peak = []

        def lengths():
            tracemalloc.reset_peak()
            for _ in range(100):
                len(obs.finished())
            peak.append(tracemalloc.get_traced_memory()[1])

        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            lengths()
        finally:
            tracemalloc.stop()
        assert peak[0] - base < 4096

    def test_finished_job_retains_at_most_180_bytes_per_span(self):
        steps = 500

        def run():
            config = ArmciConfig(obs=ObsConfig(enabled=True))
            job = ArmciJob(4, procs_per_node=2, config=config)
            job.init()

            def body(rt):
                alloc = yield from rt.malloc(64 * steps + 8)
                if rt.rank == 0:
                    buf = rt.world.space(0).allocate(64)
                    for i in range(steps):
                        d, off = 1 + i % 3, alloc.addr(1 + i % 3) + 64 * i
                        yield from rt.put(d, buf, off, 32)
                        yield from rt.get(d, buf, off, 32)
                        if i % 4 == 3:
                            yield from rt.rmw(
                                d, alloc.addr(d) + 64 * steps, "fetch_add", 1
                            )
                    yield from rt.fence_all()
                yield from rt.barrier()

            job.run(body)
            return job

        job, retained = _retained_obs_bytes(run)
        spans = len(job.obs.finished())
        assert spans > 5000
        # The object-per-span store held 323 B per span here.
        assert retained / spans <= 180, retained / spans

    @pytest.mark.parametrize("mode", ["D", "AT"])
    def test_traced_scf_outputs_match_the_object_store(self, mode):
        base = {
            "D": ArmciConfig.default_mode(), "AT": ArmciConfig.async_thread_mode()
        }[mode]
        config = dataclasses.replace(base, obs=ObsConfig(enabled=True))
        captured = {}
        run_scf(16, config, self.TRACE_SCF, label=mode,
                on_job=lambda job: captured.update(job=job))
        job = captured["job"]
        spans, edges = job.obs.finished(), job.obs.edges
        report = critical_path(spans, edges)
        segments = [
            (s.start, s.end, s.rank, s.category, s.span_id) for s in report.segments
        ]
        got = (
            _md5(dumps_perfetto(spans, edges)),
            _md5(json.dumps(job.trace.snapshot(per_rank=True), sort_keys=True)),
            _md5(repr(attribution_rows(report))),
            _md5(repr((segments, report.coverage))),
            _md5(repr(intervals(job.obs.spans))),
        )
        assert got == self.DIGESTS[mode]


class TestSpanHistogramFold:
    """Span durations reach ``obs.span.<category>`` when a histogram is
    read, folded in close order: bitwise what one ``record`` per close
    gives, per rank too."""

    @given(
        closes=st.lists(
            st.tuples(
                st.sampled_from(["op", "rdma", "fence", "progress"]),
                st.integers(0, 3),
                st.floats(0.0, 1e-3, allow_subnormal=False),
                st.booleans(),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_fold_equals_a_record_per_close(self, closes):
        obs = Obs(FakeEngine(), MetricsRegistry())
        want = MetricsRegistry()
        for category, rank, start, read in closes:
            if read:  # an open span closed later, and a read in between
                sid = obs.begin(rank, "main", category, "x", start=start)
                obs.engine.now = start * 3.0
                obs.end(sid)
                obs.metrics.snapshot()
            else:
                obs.record(rank, "net", category, "x", start, start * 1.5)
            span = obs.get(len(obs.spans))
            want.histogram(f"obs.span.{category}").record(
                span.end - span.start, rank=rank
            )
        got = obs.metrics.snapshot(per_rank=True)
        assert got == want.snapshot(per_rank=True)
        assert len(obs._closes) == 0  # each fold releases its buffer

class TestOneTelemetrySink:
    """Regrowth guard: a job has one metrics registry and every fact in
    it is counted once, under one name."""

    SRC = REPO / "src" / "repro"

    def test_trace_module_is_gone(self):
        import repro.sim

        assert not (self.SRC / "sim" / "trace.py").exists()
        assert not hasattr(repro.sim, "Trace")
        stale = re.compile(
            r"^\s*(class Trace\b|(from|import)\s.*(\bTrace\b|\bsim\.trace\b))", re.M
        )
        for tree in ("src", "tests", "benchmarks", "examples", "tools"):
            for path in (REPO / tree).rglob("*.py"):
                assert not stale.search(path.read_text()), path

    def test_registries_are_built_in_one_place(self):
        # Where a job's world is built — a layer that builds its own is
        # a second sink.
        builders = sorted(
            str(path.relative_to(self.SRC))
            for path in self.SRC.rglob("*.py")
            if "MetricsRegistry(" in path.read_text()
        )
        assert builders == ["pami/world.py"]

    def test_obs_and_serving_record_into_the_jobs_registry(self):
        config = ArmciConfig.async_thread_mode(obs=ObsConfig(enabled=True))
        job = ArmciJob(2, procs_per_node=2, config=config)
        assert job.obs.metrics is job.trace is job.world.trace
        assert job.world.network.trace is job.trace
        assert job.serve_metrics is job.trace
        job.init()
        job.run(TestJobIntegration()._body)
        snap = job.trace.snapshot(per_rank=True)
        # One snapshot holds every layer: wire counters, dwell times and
        # the span histograms obs used to keep to itself.
        assert snap["counters"]["pami.rdma_puts"] == 1
        assert snap["durations"]["armci.rmw_wait_time"] > 0
        assert snap["histograms"]["obs.span.fence"]["count"] >= 1
        # AT mode: one name for the async thread's work, broken down by
        # rank; the obs.* twin is gone.
        serviced = snap["per_rank"]["counters"]["armci.async_thread_serviced"]
        assert sum(serviced.values()) > 0
        assert sum(serviced.values()) == snap["counters"]["armci.async_thread_serviced"]
        assert not [n for n in snap["counters"] if n.startswith("obs.")]


def _ledger_counters():
    """``benchmarks/ledger/counters.py``, imported read-only by path."""
    path = REPO / "benchmarks" / "ledger" / "counters.py"
    spec = importlib.util.spec_from_file_location("ledger_counters", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestLedgerReads:
    """The reads ``benchmarks/ledger/`` makes of a job's telemetry.

    The ledger may not be edited and tier-1 does not collect it, so a
    telemetry change that turns its per-layer metrics to ``null`` (a
    name in ``missing``) or fails every ``kv_*`` operation has to be
    caught here.
    """

    def test_rma_job_leaves_nothing_missing(self):
        job = ArmciJob(2, procs_per_node=2, config=ArmciConfig())
        job.init()

        def body(rt):
            alloc = yield from rt.malloc(64)
            if rt.rank == 0:
                buf = rt.world.space(0).allocate(64)
                yield from rt.put(1, buf, alloc.addr(1), 64)
                yield from rt.get(1, buf, alloc.addr(1), 64)
                yield from rt.rmw(1, alloc.addr(1), "fetch_add", 1)
            yield from rt.barrier()

        job.run(body)
        reader = _ledger_counters().CounterReader()
        snap = reader.snapshot(job, job.engine)
        assert reader.missing == []
        assert snap["armci.put_rdma"] == snap["armci.get_rdma"] == 1
        assert snap["armci.rmws"] == 1
        assert snap["sim.events"] > 0
        assert snap["serve.requests"] == 0 and snap["obs.spans"] == 0

    def test_kv_fills_the_registry_installed_in_on_job(self):
        from repro.serve import ClientLoadConfig, KvConfig, run_kv

        jobs = []

        def on_job(job):
            # What benchmarks/ledger/workloads.py::_kv does.
            job.serve_metrics = MetricsRegistry()
            job.serve_metrics.histogram("serve.latency", keep_raw=True)
            jobs.append(job)

        load = ClientLoadConfig(
            num_clients=64, requests_per_client=2, rate=8e6,
            arrival="poisson", seed=3,
        )
        result = run_kv(
            6, load=load, kv_config=KvConfig(num_shards=2),
            procs_per_node=3, on_job=on_job,
        )
        (job,) = jobs
        installed = job.serve_metrics
        assert result.responses == result.requests == 128
        assert len(installed.histogram("serve.latency").raw) == result.responses
        assert installed.counter("serve.requests").total == result.requests
        reader = _ledger_counters().CounterReader()
        snap = reader.snapshot(job, job.engine)
        assert reader.missing == []
        assert snap["serve.requests"] == result.requests
        assert snap["serve.wire_flushes"] > 0
