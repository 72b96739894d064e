"""Tests for the text Gantt: a view over obs spans, and its rendering."""

import pytest

from repro.armci import ArmciConfig, ArmciJob, ObsConfig
from repro.obs.span import Span
from repro.util import intervals, render_timeline
from repro.util.timeline import Interval


class TestTraceIntervals:
    def test_disabled_by_default(self):
        # Spans are Gantt rows only when tagged with a timeline label.
        assert intervals([Span(1, None, 0, "main", "op", "puts", 0.0, 1.0)]) == []

    def test_enabled_records(self):
        spans = [
            Span(1, None, 0, "main", "compute", "compute", 0.0, 1.0,
                 timeline="compute"),
            Span(2, None, 0, "main", "fence", "fence", 1.0, 1.0,
                 timeline="fence"),  # zero-length dropped
            Span(3, None, 1, "main", "op", "get", 1.0, None, timeline="get"),
        ]
        assert intervals(spans) == [Interval("r0", "compute", 0.0, 1.0)]


class TestRenderTimeline:
    def test_basic_lanes_and_glyphs(self):
        intervals = [
            Interval("r0", "compute", 0.0, 5.0),
            Interval("r1", "counter", 2.0, 4.0),
            Interval("r1", "barrier", 4.0, 5.0),
        ]
        out = render_timeline(intervals, width=20)
        lines = out.splitlines()
        assert lines[0].startswith("r0 ")
        assert "#" in lines[0]
        assert "c" in lines[1] and "|" in lines[1]
        assert ".=idle" in lines[-1]

    def test_empty_renders_placeholder(self):
        # An empty interval list is a normal state (intervals are opt-in),
        # not a caller error.
        assert render_timeline([]) == "(no intervals recorded)"

    def test_zero_span_rejected(self):
        with pytest.raises(ValueError):
            render_timeline([Interval("r0", "x", 1.0, 2.0)], t0=5.0, t1=5.0)

    def test_armci_job_records_when_enabled(self):
        config = ArmciConfig(obs=ObsConfig(enabled=True))
        job = ArmciJob(2, procs_per_node=1, config=config)
        job.init()

        def body(rt):
            alloc = yield from rt.malloc(64)
            if rt.rank == 0:
                src = rt.world.space(0).allocate(64)
                yield from rt.put(1, src, alloc.addr(1), 64)
                # A non-blocking put leaves its ack outstanding so the
                # fence actually waits (a zero-length fence records no
                # interval).
                yield from rt.nbput(1, src, alloc.addr(1), 64)
                yield from rt.fence(1)
                yield from rt.compute(10e-6)
                yield from rt.rmw(1, alloc.addr(1), "fetch_add", 1)
            yield from rt.barrier()

        job.run(body)
        rows = intervals(job.obs.spans)
        assert {"put", "fence", "compute", "counter", "barrier"} <= {
            iv.label for iv in rows
        }
        out = render_timeline(rows)
        assert "r0" in out and "r1" in out

    def test_no_overhead_when_disabled(self):
        job = ArmciJob(2, procs_per_node=1, config=ArmciConfig())
        job.init()

        def body(rt):
            yield from rt.compute(1e-6)
            yield from rt.barrier()

        job.run(body)
        assert job.obs is None


class TestRuntimeReport:
    def test_report_reflects_activity(self):
        job = ArmciJob(2, procs_per_node=1, config=ArmciConfig())
        job.init()

        def body(rt):
            alloc = yield from rt.malloc(64)
            if rt.rank == 0:
                src = rt.world.space(0).allocate(64)
                yield from rt.put(1, src, alloc.addr(1), 64)
                yield from rt.fence(1)
                yield from rt.rmw(1, alloc.addr(1), "fetch_add", 1)
            yield from rt.barrier()

        job.run(body)
        report = job.report()
        assert "RDMA puts" in report
        assert "read-modify-writes" in report
        assert "barriers" in report
        assert "payload bytes moved" in report
        assert "D mode" in report

    def test_report_elides_unused_subsystems(self):
        job = ArmciJob(1, procs_per_node=1, config=ArmciConfig())
        job.init()
        job.run(lambda rt: rt.barrier())
        report = job.report()
        assert "strided" not in report
        assert "mutex" not in report


class TestTimelineWindows:
    def test_explicit_window_clips(self):
        intervals = [
            Interval("r0", "compute", 0.0, 10.0),
            Interval("r0", "counter", 12.0, 14.0),
        ]
        out = render_timeline(intervals, width=10, t0=0.0, t1=10.0)
        row = out.splitlines()[0]
        assert "#" in row

    def test_unknown_label_uses_first_letter(self):
        out = render_timeline([Interval("r0", "zap", 0.0, 1.0)], width=5)
        assert "z" in out.splitlines()[0]
