"""Tests for task pools: chunked single counter + distributed stealing."""

import pytest

from repro.armci import ArmciConfig, ArmciJob
from repro.errors import ArmciError
from repro.gax import DistributedTaskPool, TaskPool


def make_job(num_procs=4, config=None):
    job = ArmciJob(
        num_procs,
        config=config if config is not None else ArmciConfig.async_thread_mode(),
        procs_per_node=min(num_procs, 16),
    )
    job.init()
    return job


def drain_pool(job, create_pool):
    """All ranks drain a freshly created pool; returns per-rank claims."""

    def body(rt):
        pool = yield from create_pool(rt)
        yield from rt.barrier()
        claims = []
        while True:
            r = yield from pool.next_range(rt)
            if r is None:
                break
            claims.append(r)
            yield from rt.compute(20e-6)
        yield from rt.barrier()
        return claims

    return job.run(body)


class TestTaskPool:
    def test_every_task_claimed_once(self):
        job = make_job(4)

        def create(rt):
            return (yield from TaskPool.create(rt, ntasks=23, chunk=3))

        per_rank = drain_pool(job, create)
        covered = sorted(
            t for claims in per_rank for lo, hi in claims for t in range(lo, hi)
        )
        assert covered == list(range(23))

    def test_chunk_boundaries(self):
        job = make_job(2)

        def create(rt):
            return (yield from TaskPool.create(rt, ntasks=10, chunk=4))

        per_rank = drain_pool(job, create)
        ranges = sorted(r for claims in per_rank for r in claims)
        assert ranges == [(0, 4), (4, 8), (8, 10)]

    def test_validation(self):
        from repro.gax.counter import SharedCounter

        counter = SharedCounter(0, 0x1000)
        with pytest.raises(ArmciError):
            TaskPool(counter, ntasks=0)
        with pytest.raises(ArmciError):
            TaskPool(counter, ntasks=5, chunk=0)


class TestDistributedTaskPool:
    def test_every_task_claimed_once_with_stealing(self):
        job = make_job(4)

        def create(rt):
            return (
                yield from DistributedTaskPool.create(
                    rt, ntasks=37, num_counters=4, chunk=2
                )
            )

        per_rank = drain_pool(job, create)
        covered = sorted(
            t for claims in per_rank for lo, hi in claims for t in range(lo, hi)
        )
        assert covered == list(range(37))
        assert job.trace.count("gax.pool_steals") >= 0  # stealing legal

    def test_uneven_shards_fully_drained(self):
        job = make_job(2)

        def create(rt):
            return (
                yield from DistributedTaskPool.create(
                    rt, ntasks=7, num_counters=3, chunk=1
                )
            )

        per_rank = drain_pool(job, create)
        covered = sorted(
            t for claims in per_rank for lo, hi in claims for t in range(lo, hi)
        )
        assert covered == list(range(7))

    def test_counters_spread_over_hosts(self):
        job = make_job(8)
        hosts = {}

        def body(rt):
            pool = yield from DistributedTaskPool.create(
                rt, ntasks=8, num_counters=4
            )
            hosts[rt.rank] = [c.host for c in pool.counters]
            yield from rt.barrier()

        job.run(body)
        assert hosts[0] == [0, 2, 4, 6]

    def test_counters_capped_at_num_procs(self):
        job = make_job(2)

        def body(rt):
            pool = yield from DistributedTaskPool.create(
                rt, ntasks=4, num_counters=16
            )
            return pool.num_counters

        assert job.run(body) == [2, 2]

    def test_single_rank_steals_everything(self):
        """One active rank drains all shards through stealing."""
        job = make_job(4)
        claims = []

        def body(rt):
            pool = yield from DistributedTaskPool.create(
                rt, ntasks=12, num_counters=4
            )
            yield from rt.barrier()
            if rt.rank == 3:
                while True:
                    r = yield from pool.next_range(rt)
                    if r is None:
                        break
                    claims.append(r)
            yield from rt.barrier()

        job.run(body)
        covered = sorted(t for lo, hi in claims for t in range(lo, hi))
        assert covered == list(range(12))
        assert job.trace.count("gax.pool_steals") >= 9  # 3 foreign shards

    def test_validation(self):
        with pytest.raises(ArmciError):
            DistributedTaskPool([], ntasks=4)

    def test_scf_with_distributed_counters(self):
        from repro.apps.nwchem import ScfConfig, run_scf

        cfg = ScfConfig(
            nbf_override=32, nblocks=4, task_time=200e-6, iterations=2,
            num_counters=4,
        )
        res = run_scf(4, ArmciConfig.async_thread_mode(), cfg, procs_per_node=4)
        assert res.tasks_done == 16 * 2  # both iterations complete


class TestDistributedVsSingleCounter:
    def test_distribution_reduces_counter_pressure(self):
        """Near AMO saturation (64 ranks, 20 us tasks, one counter host),
        sharding the counter halves aggregate wait time. Fine-grained
        tasks are needed: an unsaturated counter shows no benefit, and
        the steal-probe tail costs a little total time."""
        from repro.apps.nwchem import ScfConfig, run_scf

        base = dict(nbf_override=64, nblocks=32, task_time=20e-6, iterations=1)
        single = run_scf(
            64, ArmciConfig.async_thread_mode(),
            ScfConfig(**base, num_counters=1), procs_per_node=16,
        )
        sharded = run_scf(
            64, ArmciConfig.async_thread_mode(),
            ScfConfig(**base, num_counters=8), procs_per_node=16,
        )
        assert sharded.counter_time_total < 0.7 * single.counter_time_total

    def test_sharding_does_not_cost_makespan(self):
        """A pool is one collective allocation however many counters it
        has, so 16 counters (and their 16 standbys) set up as fast as
        one and the blocked-time collapse is not paid back in makespan."""
        from repro.apps.nwchem import ScfConfig, run_scf

        base = dict(nbf_override=64, nblocks=32, task_time=20e-6, iterations=1)
        single, sharded = (
            run_scf(
                64, ArmciConfig.async_thread_mode(),
                ScfConfig(**base, num_counters=g), procs_per_node=16,
            )
            for g in (1, 16)
        )
        assert sharded.tasks_done == single.tasks_done == 32 * 32
        assert sharded.total_time < 1.1 * single.total_time
