"""Region-cache pin/evict lifecycle under randomized schedules.

PR-2 added pin/refcount protection so in-flight RDMA handles can't have
their cached region handles evicted under them; until now only the FIFO
schedule exercised it. Here the same invariants must hold on every
explored schedule: pins drain to zero once all handles complete, the
cache never exceeds capacity (absent pinned overflow), and eviction
under a registration budget still frees slots.
"""

import pytest

from repro.armci.config import ArmciConfig
from repro.armci.runtime import ArmciJob
from repro.sim.engine import Engine, RandomTieBreakPolicy

SEEDS = range(8)


def leaked_pins(cache):
    """``{(owner, base): pins}`` of every cached entry still pinned."""
    return {
        (e.region.rank, e.region.base): e.pins
        for entries in cache._entries.values()
        for e in entries
        if e.pins
    }


def run_cached_workload(seed, capacity=2, budget=None):
    engine = Engine(policy=RandomTieBreakPolicy(seed))
    job = ArmciJob(
        4,
        config=ArmciConfig(
            region_cache_capacity=capacity, memregion_budget=budget
        ),
        procs_per_node=2,
        engine=engine,
    )
    job.init()

    def body(rt):
        allocs = []
        for _ in range(3):  # several structures so the cache must evict
            allocs.append((yield from rt.malloc(512)))
        scratch = yield from rt.malloc(256)
        src = scratch.addr(rt.rank)
        for step in range(1, 4):
            dst = (rt.rank + step) % 4
            for alloc in allocs:
                yield from rt.put(dst, src, alloc.addr(dst) + rt.rank * 64, 64)
                yield from rt.fence(dst)
        yield from rt.barrier()

    job.run(body)
    return job


class TestPinEvictUnderRandomSchedules:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_pins_drain_and_capacity_holds(self, seed):
        job = run_cached_workload(seed)
        for rt in job.processes:
            cache = rt.region_cache
            assert not leaked_pins(cache), (
                f"rank {rt.rank} leaked pins under seed {seed}: "
                f"{leaked_pins(cache)}"
            )
            if (
                cache.capacity is not None
                and job.trace.count("armci.region_cache_pinned_overflow") == 0
            ):
                assert len(cache) <= cache.capacity

    @pytest.mark.parametrize("seed", SEEDS)
    def test_budgeted_cache_still_drains(self, seed):
        job = run_cached_workload(seed, capacity=2, budget=8)
        for rt in job.processes:
            assert not leaked_pins(rt.region_cache)
        # The cache path was actually exercised under the budget.
        assert job.trace.count("armci.region_cache_misses") > 0

    def test_eviction_happened_under_pressure(self):
        job = run_cached_workload(0)
        assert job.trace.count("armci.region_cache_evictions") > 0

    def test_distinct_schedules_explored(self):
        digests = {run_cached_workload(s).engine.schedule_digest for s in SEEDS}
        assert len(digests) == len(SEEDS)
