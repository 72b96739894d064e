"""Tests for the runtime report layout module."""

from repro.armci import ArmciConfig, ArmciJob
from repro.armci.report import _COUNTER_LAYOUT, runtime_report


class TestCounterLayout:
    def test_layout_keys_unique(self):
        keys = [key for _s, key, _l in _COUNTER_LAYOUT]
        assert len(keys) == len(set(keys))

    def test_labels_unique(self):
        labels = [label for _s, _k, label in _COUNTER_LAYOUT]
        assert len(labels) == len(set(labels))

    def test_sections_are_known(self):
        sections = {s for s, _k, _l in _COUNTER_LAYOUT}
        assert sections <= {
            "protocols", "datapath", "aggregation", "caches",
            "synchronization", "resilience", "progress", "network",
            "serving",
        }


class TestRuntimeReport:
    def test_every_protocol_family_reportable(self):
        """Exercise one op of each family and check its report line."""
        import numpy as np

        from repro.armci.vector import IoVector
        from repro.types import StridedDescriptor, StridedShape

        job = ArmciJob(2, procs_per_node=1, config=ArmciConfig.async_thread_mode())
        job.init()

        def body(rt):
            alloc = yield from rt.malloc(4096)
            yield from rt.barrier()
            if rt.rank == 0:
                space = rt.world.space(0)
                buf = space.allocate(1024)
                yield from rt.put(1, buf, alloc.addr(1), 64)
                yield from rt.get(1, buf, alloc.addr(1), 64)
                desc = StridedDescriptor(StridedShape(32, (2,)), (32,), (64,))
                yield from rt.puts(1, buf, alloc.addr(1), desc)
                yield from rt.putv(
                    1, IoVector((buf,), (alloc.addr(1) + 512,), (32,))
                )
                space.write_f64(buf, np.ones(4))
                yield from rt.acc(1, buf, alloc.addr(1) + 1024, 32)
                yield from rt.rmw(1, alloc.addr(1) + 2048, "fetch_add", 1)
                agg = rt.aggregate(1)
                agg.put(buf, alloc.addr(1) + 3000, 16)
                yield from agg.flush()
                yield from rt.fence_all()
                yield from rt.barrier()
                return
            yield from rt.barrier()

        job.run(body)
        report = runtime_report(job)
        for needle in (
            "RDMA puts", "RDMA gets", "strided puts (zero-copy)",
            "vector puts (zero-copy)", "vector puts (typed/aggregated)",
            "accumulates", "read-modify-writes", "fragments staged",
            "endpoints created", "fences", "items by async threads",
            "payload bytes moved", "simulated clock",
        ):
            assert needle in report, needle
