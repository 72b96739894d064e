"""Tests for collective free."""

import pytest

from repro.armci import ArmciConfig, ArmciJob
from repro.errors import PamiError


def make_job(num_procs=2, config=None, **kwargs):
    job = ArmciJob(
        num_procs,
        config=config if config is not None else ArmciConfig(),
        procs_per_node=1,
        **kwargs,
    )
    job.init()
    return job


class TestFree:
    def test_free_releases_memory_and_regions(self):
        job = make_job()

        def body(rt):
            alloc = yield from rt.malloc(1024)
            yield from rt.barrier()
            yield from rt.free(alloc)
            return alloc.addr(rt.rank)

        addrs = job.run(body)
        assert job.trace.count("armci.frees") == 2
        for rank, addr in enumerate(addrs):
            with pytest.raises(PamiError):
                job.world.space(rank).read(addr, 1)
            assert job.world.regions[rank].find(addr, 1) is None

    def test_free_invalidates_remote_cache(self):
        job = make_job()

        def body(rt):
            alloc = yield from rt.malloc(256)
            if rt.rank == 0:
                local = rt.world.space(0).allocate(256)
                yield from rt.get(1, local, alloc.addr(1), 64)  # cache handle
            yield from rt.barrier()
            yield from rt.free(alloc)
            return None

        job.run(body)
        assert len(job.rt(0).region_cache) == 0

    def test_allocate_after_free_reuses_cleanly(self):
        job = make_job()

        def body(rt):
            first = yield from rt.malloc(512)
            yield from rt.free(first)
            second = yield from rt.malloc(512)
            if rt.rank == 0:
                local = rt.world.space(0).allocate(64)
                yield from rt.put(1, local, second.addr(1), 64)
                yield from rt.fence(1)
            yield from rt.barrier()
            return second.alloc_id

        results = job.run(body)
        assert results == [1, 1]
