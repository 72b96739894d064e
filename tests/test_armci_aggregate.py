"""Tests for message aggregation (Fig. 5's application-level remedy)."""

import pytest

from repro.armci import ArmciConfig, ArmciJob
from repro.errors import ArmciError


def make_job(num_procs=2, config=None, **kwargs):
    job = ArmciJob(
        num_procs,
        config=config if config is not None else ArmciConfig(),
        procs_per_node=1,
        **kwargs,
    )
    job.init()
    return job


class TestAggregateHandle:
    def test_staged_fragments_all_land(self):
        job = make_job()
        fragments = [bytes([i]) * (8 + i) for i in range(10)]

        def body(rt):
            alloc = yield from rt.malloc(4096)
            result = None
            if rt.rank == 0:
                space = rt.world.space(0)
                agg = rt.aggregate(1)
                offset = 0
                for frag in fragments:
                    src = space.allocate(len(frag))
                    space.write(src, frag)
                    agg.put(src, alloc.addr(1) + offset, len(frag))
                    offset += len(frag) + 16
                yield from agg.flush()
                yield from rt.fence(1)
                got = []
                offset = 0
                for frag in fragments:
                    got.append(rt.world.space(1).read(alloc.addr(1) + offset, len(frag)))
                    offset += len(frag) + 16
                result = got
            yield from rt.barrier()
            return result

        results = job.run(body)
        assert results[0] == fragments
        assert job.trace.count("armci.aggregate_flushes") == 1
        assert job.trace.count("armci.putv_typed") == 1

    def test_buffer_reuse_semantics(self):
        """Sources may be overwritten right after staging."""
        job = make_job()

        def body(rt):
            alloc = yield from rt.malloc(256)
            result = None
            if rt.rank == 0:
                space = rt.world.space(0)
                src = space.allocate(16)
                agg = rt.aggregate(1)
                space.write(src, b"FIRST-----------")
                agg.put(src, alloc.addr(1), 16)
                space.write(src, b"SECOND----------")
                agg.put(src, alloc.addr(1) + 32, 16)
                space.write(src, b"XXXXXXXXXXXXXXXX")  # post-staging clobber
                yield from agg.flush()
                yield from rt.fence(1)
                result = (
                    rt.world.space(1).read(alloc.addr(1), 16),
                    rt.world.space(1).read(alloc.addr(1) + 32, 16),
                )
            yield from rt.barrier()
            return result

        results = job.run(body)
        assert results[0] == (b"FIRST-----------", b"SECOND----------")

    def test_aggregation_beats_individual_small_puts(self):
        """The Fig. 5 economics: N small puts pay N message overheads;
        one aggregate pays one."""
        job = make_job()
        n, size = 32, 64

        def body(rt):
            alloc = yield from rt.malloc(n * size)
            result = None
            if rt.rank == 0:
                space = rt.world.space(0)
                src = space.allocate(size)
                yield from rt.put(1, src, alloc.addr(1), size)  # warm caches
                yield from rt.fence(1)
                # Warm the aggregation buffer's one-time registration too.
                warm = rt.aggregate(1)
                warm.put(src, alloc.addr(1), size)
                yield from warm.flush()
                yield from rt.fence(1)
                # Individual puts.
                t0 = rt.engine.now
                for i in range(n):
                    yield from rt.nbput(1, src, alloc.addr(1) + i * size, size)
                yield from rt.wait_all()
                individual = rt.engine.now - t0
                yield from rt.fence(1)
                # Aggregated.
                t0 = rt.engine.now
                agg = rt.aggregate(1)
                for i in range(n):
                    agg.put(src, alloc.addr(1) + i * size, size)
                yield from agg.flush()
                aggregated = rt.engine.now - t0
                yield from rt.fence(1)
                result = (individual, aggregated)
            yield from rt.barrier()
            return result

        individual, aggregated = job.run(body)[0]
        assert aggregated < individual / 5

    def test_misuse_rejected(self):
        job = make_job()

        def body(rt):
            alloc = yield from rt.malloc(256)
            if rt.rank == 0:
                space = rt.world.space(0)
                src = space.allocate(16)
                agg = rt.aggregate(1)
                with pytest.raises(ArmciError, match="positive"):
                    agg.put(src, alloc.addr(1), 0)
                with pytest.raises(ArmciError, match="empty"):
                    yield from agg.flush()
                agg2 = rt.aggregate(1)
                agg2.put(src, alloc.addr(1), 16)
                yield from agg2.flush()
                with pytest.raises(ArmciError, match="already flushed"):
                    agg2.put(src, alloc.addr(1), 16)
            yield from rt.barrier()

        job.run(body)

    def test_pack_path_when_rdma_disabled(self):
        job = make_job(config=ArmciConfig(use_rdma=False))

        def body(rt):
            alloc = yield from rt.malloc(256)
            result = None
            if rt.rank == 0:
                space = rt.world.space(0)
                src = space.allocate(16)
                space.write(src, b"A" * 16)
                agg = rt.aggregate(1)
                agg.put(src, alloc.addr(1), 16)
                yield from agg.flush()
                yield from rt.fence(1)
                result = rt.world.space(1).read(alloc.addr(1), 16)
            yield from rt.barrier()
            return result

        results = job.run(body)
        assert results[0] == b"A" * 16
        assert job.trace.count("armci.putv_pack") == 1
