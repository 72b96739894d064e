"""Tests for resource-exhaustion resilience.

Covers the backpressure / deadline / watchdog / degradation stack end to
end: bounded-FIFO credit flow control with sender-side backpressure,
memory-region budget exhaustion degrading transfers to the AM fall-back,
deadline propagation through every blocking wait (instead of hangs), the
progress watchdog failing over a stalled async thread, quiesce/drain,
the pin/refcount guard on the region cache, and the error taxonomy.
"""

import dataclasses

import numpy as np
import pytest

from repro.armci import ArmciConfig, ArmciJob
from repro.armci.config import RetryPolicy
from repro.armci.region_cache import RegionCache
from repro.chaos import ChaosConfig, ChaosError, FaultPlan, ResourceFault
from repro.errors import (
    ArmciError,
    DeadlineExceededError,
    PamiError,
    ProcessFailedError,
    ResourceExhaustedError,
    RetryExhaustedError,
    TransientFaultError,
)
from repro.pami.memregion import MemoryRegion, MemoryRegionRegistry
from repro.obs.metrics import MetricsRegistry


def make_job(num_procs=2, config=None, fault_plan=None, **kw):
    job = ArmciJob(
        num_procs,
        config=config if config is not None else ArmciConfig.async_thread_mode(),
        procs_per_node=1,
        fault_plan=fault_plan,
        **kw,
    )
    job.init()
    return job


# ----------------------------------------------------------- error taxonomy


class TestErrorTaxonomy:
    def test_resource_exhausted_is_pami_and_armci(self):
        assert issubclass(ResourceExhaustedError, PamiError)
        assert issubclass(ResourceExhaustedError, ArmciError)

    def test_deadline_exceeded_is_armci(self):
        assert issubclass(DeadlineExceededError, ArmciError)

    def test_deadline_is_not_transient(self):
        """A deadline expiry must escape the retry loop, so it must not be
        classified as a retryable transient fault."""
        assert not issubclass(DeadlineExceededError, TransientFaultError)

    def test_existing_handlers_catch_new_errors(self):
        for exc in (ResourceExhaustedError("x"), DeadlineExceededError("x")):
            try:
                raise exc
            except ArmciError:
                pass


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fifo_depth": 0},
            {"fifo_depth": -4},
            {"memregion_budget": 0},
            {"default_deadline": 0.0},
            {"default_deadline": -1.0},
            {"watchdog_period": 0.0},
            # Watchdog monitors the async thread; meaningless without one.
            {"watchdog_period": 1e-3, "async_thread": False},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ArmciError):
            ArmciConfig(**kwargs)

    def test_knobs_default_off(self):
        cfg = ArmciConfig()
        assert cfg.fifo_depth is None
        assert cfg.memregion_budget is None
        assert cfg.default_deadline is None
        assert cfg.watchdog_period is None


class TestResourceFaultPlan:
    def test_chainable(self):
        plan = (
            FaultPlan()
            .exhaust_memregions(0, at=1e-3)
            .stall_progress(1, at=2e-3)
            .saturate_fifo(2, at=3e-3, amount=16)
        )
        kinds = [f.kind for f in plan.resource_faults]
        assert kinds == ["exhaust_memregions", "stall_progress", "saturate_fifo"]
        assert plan.resource_faults[2].amount == 16

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "melt_nic", "rank": 0, "at": 1e-3},
            {"kind": "stall_progress", "rank": -1, "at": 1e-3},
            {"kind": "stall_progress", "rank": 0, "at": -1e-3},
            {"kind": "saturate_fifo", "rank": 0, "at": 1e-3, "amount": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ChaosError):
            ResourceFault(**kwargs)

    def test_rank_out_of_range_rejected_at_job(self):
        with pytest.raises(ArmciError):
            make_job(2, fault_plan=FaultPlan().stall_progress(5, at=1e-3))


# ------------------------------------------------------- credit flow control


class TestFifoCredits:
    def test_unbounded_context_never_saturates(self):
        job = make_job(2)
        ctx = job.rt(0).client.progress_context()
        assert ctx.capacity is None
        for _i in range(1000):
            assert ctx.try_acquire_credit()
        assert not ctx.saturated

    def test_bounded_context_credit_accounting(self):
        job = make_job(2, config=ArmciConfig.async_thread_mode(fifo_depth=2))
        ctx = job.rt(0).client.progress_context()
        assert ctx.capacity == 2
        assert ctx.try_acquire_credit()
        assert ctx.try_acquire_credit()
        assert ctx.saturated
        assert not ctx.try_acquire_credit()
        assert job.trace.count("pami.fifo_credit_denied") == 1
        ctx.release_credit()
        assert not ctx.saturated
        assert ctx.try_acquire_credit()

    def test_backpressure_under_fifo_saturation(self):
        """A saturate_fifo burst parks senders on the room signal; they
        complete once the noise drains, with the payload intact."""
        n_puts, nbytes, noise = 32, 256, 64
        payload = bytes(range(256))

        def run(fault_plan, fifo_depth):
            cfg = ArmciConfig.async_thread_mode(
                use_rdma=False, fifo_depth=fifo_depth
            )
            job = make_job(2, config=cfg, fault_plan=fault_plan)
            result = {}

            def body(rt):
                alloc = yield from rt.malloc(4096)
                yield from rt.barrier()
                if rt.rank == 0:
                    src = rt.world.space(0).allocate(nbytes)
                    rt.world.space(0).write(src, payload)
                    for _i in range(n_puts):
                        yield from rt.put(1, src, alloc.addr(1), nbytes)
                    yield from rt.fence(1)
                yield from rt.barrier()
                if rt.rank == 1:
                    result["data"] = rt.world.space(1).read(alloc.addr(1), nbytes)

            job.run(body)
            return result["data"], job

        plan = FaultPlan().saturate_fifo(1, at=0.0, amount=noise)
        saturated_data, job = run(plan, fifo_depth=4)
        clean_data, _ = run(None, fifo_depth=None)
        assert saturated_data == clean_data == payload
        assert job.trace.count("chaos.fifo_saturations") == 1
        assert job.trace.count("chaos.fifo_noise_injected") == noise
        assert job.trace.count("chaos.noise_serviced") == noise
        assert job.trace.count("armci.backpressure_stalls") > 0
        assert job.trace.time("armci.backpressure_time") > 0.0

    def test_flow_control_is_timing_neutral_when_unsaturated(self):
        """A FIFO deep enough to never saturate must not change timing —
        the zero-overhead contract for the new machinery."""

        def run(fifo_depth):
            cfg = ArmciConfig.async_thread_mode(
                use_rdma=False, fifo_depth=fifo_depth
            )
            job = make_job(2, config=cfg)

            def body(rt):
                alloc = yield from rt.malloc(2048)
                yield from rt.barrier()
                if rt.rank == 0:
                    src = rt.world.space(0).allocate(512)
                    for _i in range(16):
                        yield from rt.put(1, src, alloc.addr(1), 512)
                        yield from rt.get(1, src, alloc.addr(1), 512)
                    yield from rt.fence(1)
                yield from rt.barrier()

            job.run(body)
            return job.engine.now, job

        t_bounded, job = run(4096)
        t_unbounded, _ = run(None)
        assert t_bounded == t_unbounded
        assert job.trace.count("armci.backpressure_stalls") == 0


# -------------------------------------------- memregion budget / degradation


class TestMemregionBudget:
    def test_exhausted_budget_degrades_to_fallback(self):
        """With the whole budget spent on the malloc'd segment, the put
        source buffer cannot register and transfers take the AM path —
        same numerics, degraded protocol."""
        payload = bytes(range(256)) * 2

        def run(budget):
            cfg = ArmciConfig.async_thread_mode(memregion_budget=budget)
            job = make_job(2, config=cfg)
            result = {}

            def body(rt):
                alloc = yield from rt.malloc(2048)
                yield from rt.barrier()
                if rt.rank == 0:
                    src = rt.world.space(0).allocate(512)
                    rt.world.space(0).write(src, payload)
                    yield from rt.put(1, src, alloc.addr(1), 512)
                    yield from rt.fence(1)
                yield from rt.barrier()
                if rt.rank == 1:
                    result["data"] = rt.world.space(1).read(alloc.addr(1), 512)

            job.run(body)
            return result["data"], job

        degraded, job = run(budget=1)
        clean, clean_job = run(budget=None)
        assert degraded == clean == payload
        assert job.trace.count("armci.local_region_create_failed") > 0
        assert job.trace.count("armci.put_fallback") > 0
        assert clean_job.trace.count("armci.put_fallback") == 0

    def test_cache_eviction_frees_budget_for_local_create(self):
        """Budget pressure evicts a cached remote handle (re-fetchable)
        rather than failing a local registration (not)."""
        cfg = ArmciConfig.async_thread_mode(memregion_budget=3)
        job = make_job(2, config=cfg)

        def body(rt):
            alloc = yield from rt.malloc(1024)  # slot 1: malloc'd segment
            yield from rt.barrier()
            if rt.rank == 0:
                src_a = rt.world.space(0).allocate(256)
                # Slot 2: src_a's segment; slot 3: cached remote handle.
                yield from rt.put(1, src_a, alloc.addr(1), 256)
                src_b = rt.world.space(0).allocate(256)
                # Budget full: registering src_b's segment must reclaim
                # the cache slot instead of falling back.
                yield from rt.put(1, src_b, alloc.addr(1), 256)
                yield from rt.fence(1)
            yield from rt.barrier()

        job.run(body)
        assert job.trace.count("armci.region_budget_reclaims") > 0
        assert job.trace.count("armci.local_region_create_failed") == 0

    def test_exhaust_memregions_fault_degrades_later_transfers(self):
        """The chaos fault clamps the budget mid-run: registrations made
        before it keep working, new segments degrade to the AM path."""
        fault_at = 500e-6
        cfg = ArmciConfig.async_thread_mode()
        job = make_job(
            2, config=cfg,
            fault_plan=FaultPlan().exhaust_memregions(0, at=fault_at),
        )
        payload = b"R" * 512
        result = {}

        def body(rt):
            alloc = yield from rt.malloc(2048)
            yield from rt.barrier()
            if rt.rank == 0:
                src_a = rt.world.space(0).allocate(512)
                rt.world.space(0).write(src_a, payload)
                yield from rt.put(1, src_a, alloc.addr(1), 512)  # RDMA
                yield from rt.compute(2 * fault_at)  # budget clamps here
                src_b = rt.world.space(0).allocate(512)
                rt.world.space(0).write(src_b, payload)
                yield from rt.put(1, src_b, alloc.addr(1) + 512, 512)
                yield from rt.fence(1)
            yield from rt.barrier()
            if rt.rank == 1:
                result["a"] = rt.world.space(1).read(alloc.addr(1), 512)
                result["b"] = rt.world.space(1).read(alloc.addr(1) + 512, 512)

        job.run(body)
        assert result["a"] == result["b"] == payload
        assert job.trace.count("chaos.memregion_exhaustions") == 1
        assert job.trace.count("armci.put_rdma") > 0
        assert job.trace.count("armci.put_fallback") > 0


class TestRegionCachePins:
    def _region(self, base, rid):
        return MemoryRegion(rank=1, base=base, nbytes=64, region_id=rid)

    def test_pinned_entry_survives_eviction(self):
        cache = RegionCache(capacity=2, trace=MetricsRegistry())
        a, b, c = (self._region(i * 4096, i) for i in range(3))
        cache.insert(a)
        cache.insert(b)
        cache.pin(a)
        # a is LFU (tie broken by age) but pinned: b must be the victim.
        cache.insert(c)
        assert cache.lookup(1, a.base, 64) is a
        assert cache.lookup(1, b.base, 64) is None
        assert cache.pinned(1, a.base) == 1

    def test_all_pinned_overflows_capacity(self):
        trace = MetricsRegistry()
        cache = RegionCache(capacity=2, trace=trace)
        a, b, c = (self._region(i * 4096, i) for i in range(3))
        cache.insert(a)
        cache.insert(b)
        cache.pin(a)
        cache.pin(b)
        cache.insert(c)
        assert len(cache) == 3
        assert trace.count("armci.region_cache_pinned_overflow") == 1

    def test_unpin_restores_evictability(self):
        cache = RegionCache(capacity=1, trace=MetricsRegistry())
        a, b = (self._region(i * 4096, i) for i in range(2))
        cache.insert(a)
        cache.pin(a)
        cache.pin(a)
        cache.unpin(a)
        assert cache.pinned(1, a.base) == 1
        cache.unpin(a)
        cache.insert(b)
        assert cache.lookup(1, a.base, 64) is None
        assert cache.lookup(1, b.base, 64) is b

    def test_budget_bound_insert_leaves_handle_uncached_when_full(self):
        trace = MetricsRegistry()
        registry = MemoryRegionRegistry(0, create_time=43e-6, max_regions=1)
        assert registry.reserve()  # someone else owns the only slot
        cache = RegionCache(capacity=4, trace=trace, budget_registry=registry)
        cache.insert(self._region(0, 0))
        assert len(cache) == 0
        assert trace.count("armci.region_cache_uncached") == 1

    def test_eviction_releases_budget_slot(self):
        registry = MemoryRegionRegistry(0, create_time=43e-6, max_regions=2)
        cache = RegionCache(capacity=4, trace=MetricsRegistry(), budget_registry=registry)
        cache.insert(self._region(0, 0))
        cache.insert(self._region(4096, 1))
        assert registry.in_use == registry.max_regions
        assert cache.evict_for_budget() == 1
        assert registry.in_use == registry.max_regions - 1

    def test_rdma_transfer_pins_are_released_on_completion(self):
        """Integration: the remote region used by an RDMA put is pinned
        for the transfer's lifetime and unpinned when the handle
        completes, so long-lived jobs do not leak pins."""
        cfg = ArmciConfig.async_thread_mode(region_cache_capacity=4)
        job = make_job(2, config=cfg)
        observed = {}

        def body(rt):
            alloc = yield from rt.malloc(1024)
            yield from rt.barrier()
            if rt.rank == 0:
                src = rt.world.space(0).allocate(256)
                for _i in range(4):
                    yield from rt.put(1, src, alloc.addr(1), 256)
                yield from rt.fence(1)
                observed["pins"] = rt.region_cache.pinned(1, alloc.addr(1))
            yield from rt.barrier()

        job.run(body)
        assert observed["pins"] == 0


# ------------------------------------------------------------------ deadlines


class TestDeadlines:
    def test_get_deadline_on_unresponsive_target(self):
        """Default mode, AM fall-back: the target computes and services
        nothing, so without a deadline this get would hang forever."""

        def run():
            cfg = ArmciConfig.default_mode(use_rdma=False)
            job = make_job(2, config=cfg)
            outcome = {}

            def body(rt):
                alloc = yield from rt.malloc(1024)
                yield from rt.barrier()
                if rt.rank == 1:
                    yield from rt.compute(20e-3)
                    return
                dst_buf = rt.world.space(0).allocate(256)
                try:
                    yield from rt.get(1, dst_buf, alloc.addr(1), 256,
                                      timeout=1e-3)
                except DeadlineExceededError:
                    outcome["raised_at"] = rt.engine.now

            job.run(body)
            return outcome["raised_at"]

        t1, t2 = run(), run()
        assert t1 == t2  # deterministic expiry, not a race

    def test_default_deadline_config_applies_without_timeout_arg(self):
        cfg = ArmciConfig.default_mode(use_rdma=False, default_deadline=1e-3)
        job = make_job(2, config=cfg)
        outcome = {}

        def body(rt):
            alloc = yield from rt.malloc(1024)
            yield from rt.barrier()
            if rt.rank == 1:
                yield from rt.compute(20e-3)
                return
            buf = rt.world.space(0).allocate(256)
            t0 = rt.engine.now
            try:
                yield from rt.get(1, buf, alloc.addr(1), 256)
            except DeadlineExceededError:
                outcome["waited"] = rt.engine.now - t0

        job.run(body)
        assert outcome["waited"] == pytest.approx(1e-3, rel=1e-6)

    def test_rmw_deadline_under_stalled_progress(self):
        """stall_progress with no watchdog: the AMO is never serviced and
        must surface a deadline error instead of hanging the job."""
        cfg = ArmciConfig.async_thread_mode(default_deadline=2e-3)
        job = make_job(
            2, config=cfg, fault_plan=FaultPlan().stall_progress(1, at=100e-6)
        )
        outcome = {}

        def body(rt):
            alloc = yield from rt.malloc(8)
            yield from rt.barrier()
            if rt.rank == 1:
                yield from rt.compute(10e-3)
                return
            yield from rt.compute(300e-6)  # let the stall land first
            try:
                yield from rt.rmw(1, alloc.addr(1), "fetch_add", 1)
                outcome["status"] = "ok"
            except DeadlineExceededError:
                outcome["status"] = "deadline"

        job.run(body)
        assert outcome["status"] == "deadline"
        assert job.trace.count("chaos.progress_stalls") == 1

    def test_barrier_timeout(self):
        job = make_job(2, config=ArmciConfig.async_thread_mode())
        outcome = {}

        def body(rt):
            yield from rt.barrier()
            if rt.rank == 1:
                yield from rt.compute(5e-3)  # late to the party
            try:
                yield from rt.barrier(timeout=1e-3)
                outcome[rt.rank] = "ok"
            except DeadlineExceededError:
                outcome[rt.rank] = "deadline"

        job.run(body)
        assert outcome[0] == "deadline"

    def test_notify_wait_timeout(self):
        job = make_job(2, config=ArmciConfig.async_thread_mode())
        outcome = {}

        def body(rt):
            yield from rt.barrier()
            if rt.rank == 1:
                try:
                    # Rank 0 never notifies.
                    yield from rt.notify_wait(0, timeout=500e-6)
                except DeadlineExceededError:
                    outcome["status"] = "deadline"

        job.run(body)
        assert outcome["status"] == "deadline"

    def test_lock_deadline_when_holder_never_releases(self):
        cfg = ArmciConfig.async_thread_mode(default_deadline=1e-3)
        job = make_job(2, config=cfg)
        outcome = {}

        def body(rt):
            yield from rt.barrier()
            if rt.rank == 0:
                yield from rt.lock(0)
                yield from rt.compute(10e-3)  # sits on the mutex
                yield from rt.unlock(0)
            else:
                yield from rt.compute(100e-6)
                try:
                    yield from rt.lock(0)
                except DeadlineExceededError:
                    outcome["status"] = "deadline"

        job.run(body)
        assert outcome["status"] == "deadline"

    def test_no_deadline_zero_overhead(self):
        """With every deadline knob off, no timer events are created and
        timing matches the seed behaviour (same workload, same clock)."""

        def run(cfg):
            job = make_job(2, config=cfg)

            def body(rt):
                alloc = yield from rt.malloc(1024)
                yield from rt.barrier()
                if rt.rank == 0:
                    src = rt.world.space(0).allocate(256)
                    for _i in range(8):
                        yield from rt.put(1, src, alloc.addr(1), 256)
                    yield from rt.fence(1)
                yield from rt.barrier()

            job.run(body)
            return job.engine.now

        base = ArmciConfig.async_thread_mode()
        generous = ArmciConfig.async_thread_mode(default_deadline=10.0)
        assert run(base) == run(generous)


class TestRetryDeadlineInteraction:
    def test_backoff_schedule_is_deterministic_and_analytic(self):
        """The retry backoff is a pure function of the policy: on a
        fully-lossy link the accrued backoff equals the closed-form
        geometric sum, run after run."""
        policy = RetryPolicy(max_retries=4, base_delay=2e-6, multiplier=2.0,
                             max_delay=1e-3)

        def run():
            cfg = dataclasses.replace(
                ArmciConfig.async_thread_mode(), retry=policy
            )
            job = make_job(
                2, config=cfg,
                chaos=ChaosConfig(seed=1, drop_prob=1.0,
                                  links=frozenset({(0, 1)})),
            )

            def body(rt):
                alloc = yield from rt.malloc(1024)
                yield from rt.barrier()
                if rt.rank == 0:
                    buf = rt.world.space(0).allocate(64)
                    with pytest.raises(RetryExhaustedError):
                        yield from rt.get(1, buf, alloc.addr(1), 64)

            job.run(body)
            return job.trace.time("armci.retry_backoff_time"), job

        expected = sum(
            min(policy.base_delay * policy.multiplier**k, policy.max_delay)
            for k in range(policy.max_retries)
        )
        (t1, job1), (t2, _) = run(), run()
        assert t1 == t2 == pytest.approx(expected, rel=1e-9)
        assert job1.trace.count("armci.transient_retries.get") == policy.max_retries

    def test_deadline_wins_over_retry_budget(self):
        """A deadline tighter than the remaining backoff schedule aborts
        the retry loop with DeadlineExceededError — not RetryExhausted."""
        policy = RetryPolicy(max_retries=8, base_delay=500e-6,
                             multiplier=2.0, max_delay=10e-3)
        cfg = dataclasses.replace(
            ArmciConfig.async_thread_mode(), retry=policy
        )
        job = make_job(
            2, config=cfg,
            chaos=ChaosConfig(seed=1, drop_prob=1.0, links=frozenset({(0, 1)})),
        )
        outcome = {}

        def body(rt):
            alloc = yield from rt.malloc(1024)
            yield from rt.barrier()
            if rt.rank == 0:
                buf = rt.world.space(0).allocate(64)
                try:
                    yield from rt.get(1, buf, alloc.addr(1), 64, timeout=1.2e-3)
                except DeadlineExceededError:
                    outcome["error"] = "deadline"
                except RetryExhaustedError:
                    outcome["error"] = "retry_exhausted"

        job.run(body)
        assert outcome["error"] == "deadline"
        assert job.trace.count("armci.retry_deadline_abandoned") == 1
        # The budget was NOT spent: the deadline cut the loop short.
        assert (
            job.trace.count("armci.transient_retries.get") < policy.max_retries
        )


# ------------------------------------------------------------------ watchdog


class TestProgressWatchdog:
    def test_watchdog_fails_over_stalled_thread(self):
        """With the watchdog armed, stall_progress costs a detection
        period and a failover — not liveness: the AMO completes."""
        cfg = ArmciConfig.async_thread_mode(watchdog_period=200e-6)
        job = make_job(
            2, config=cfg, fault_plan=FaultPlan().stall_progress(1, at=100e-6)
        )
        draws = []

        def body(rt):
            alloc = yield from rt.malloc(8)
            yield from rt.barrier()
            if rt.rank == 1:
                yield from rt.compute(20e-3)
                return
            yield from rt.compute(300e-6)
            for _i in range(8):
                old = yield from rt.rmw(1, alloc.addr(1), "fetch_add", 1)
                draws.append(old)

        job.run(body)
        assert draws == list(range(8))
        assert job.trace.count("chaos.progress_stalls") == 1
        assert job.trace.count("armci.watchdog_failovers") == 1
        assert job.rt(1).progress_failed_over

    def test_watchdog_quiet_on_healthy_thread(self):
        cfg = ArmciConfig.async_thread_mode(watchdog_period=200e-6)
        job = make_job(2, config=cfg)

        def body(rt):
            alloc = yield from rt.malloc(8)
            yield from rt.barrier()
            if rt.rank == 0:
                for _i in range(8):
                    yield from rt.rmw(1, alloc.addr(1), "fetch_add", 1)
            yield from rt.barrier()

        job.run(body)
        assert job.trace.count("armci.watchdogs_started") == 2
        assert job.trace.count("armci.watchdog_failovers") == 0
        assert not job.rt(0).progress_failed_over

    def test_restart_async_thread_after_failover(self):
        cfg = ArmciConfig.async_thread_mode(watchdog_period=200e-6)
        job = make_job(
            2, config=cfg, fault_plan=FaultPlan().stall_progress(1, at=100e-6)
        )
        result = {}

        def body(rt):
            alloc = yield from rt.malloc(8)
            yield from rt.barrier()
            if rt.rank == 1:
                yield from rt.compute(2e-3)
                yield from rt.quiesce()
                rt.restart_async_thread()
                result["failed_over_after_restart"] = rt.progress_failed_over
                yield from rt.compute(2e-3)
                return
            yield from rt.compute(500e-6)
            for _i in range(4):
                yield from rt.rmw(1, alloc.addr(1), "fetch_add", 1)

        job.run(body)
        assert result["failed_over_after_restart"] is False
        assert job.trace.count("armci.async_thread_restarts") == 1


# ------------------------------------------------------------ quiesce/drain


class TestQuiesce:
    def test_quiesce_drains_implicit_handles_and_fences(self):
        job = make_job(2, config=ArmciConfig.async_thread_mode())
        observed = {}

        def body(rt):
            alloc = yield from rt.malloc(1024)
            yield from rt.barrier()
            if rt.rank == 0:
                src = rt.world.space(0).allocate(256)
                for _i in range(8):
                    yield from rt.nbput(1, src, alloc.addr(1), 256)
                yield from rt.quiesce()
                observed["pending_writes"] = rt.has_pending_writes(1)
                observed["queues"] = [
                    len(ctx.queue) for ctx in rt.client.contexts
                ]
            yield from rt.barrier()

        job.run(body)
        assert observed["pending_writes"] is False
        assert observed["queues"] == [0] * len(observed["queues"])
        assert job.trace.count("armci.quiesces") == 1


# -------------------------------------------------- acceptance: chaos suite


class TestAcceptanceUnderResourceFaults:
    RESILIENT = dict(
        fifo_depth=8,
        memregion_budget=6,
        watchdog_period=200e-6,
        default_deadline=5.0,  # generous: a guard rail, not a tripwire
    )

    def all_faults_plan(self):
        return (
            FaultPlan()
            .exhaust_memregions(1, at=400e-6)
            .stall_progress(1, at=600e-6)
            .saturate_fifo(1, at=800e-6, amount=32)
        )

    def test_strided_and_vector_complete_with_identical_numerics(self):
        from repro.armci.vector import IoVector
        from repro.types import StridedDescriptor, StridedShape

        desc = StridedDescriptor(StridedShape(16, (8,)), (32,), (32,))

        def run(config, fault_plan):
            job = make_job(2, config=config, fault_plan=fault_plan)
            result = {}

            def body(rt):
                alloc = yield from rt.malloc(4096)
                yield from rt.barrier()
                if rt.rank == 1:
                    yield from rt.compute(2e-3)
                if rt.rank == 0:
                    local = rt.world.space(0).allocate(512)
                    rt.world.space(0).write(
                        local, bytes(range(256)) * 2
                    )
                    for _i in range(4):
                        yield from rt.puts(1, local, alloc.addr(1), desc)
                        yield from rt.gets(1, local, alloc.addr(1), desc)
                    vec = IoVector(
                        (local, local + 64),
                        (alloc.addr(1) + 1024, alloc.addr(1) + 2048),
                        (64, 64),
                    )
                    for _i in range(4):
                        yield from rt.putv(1, vec)
                        yield from rt.getv(1, vec)
                    yield from rt.fence(1)
                yield from rt.barrier()
                if rt.rank == 1:
                    result["image"] = rt.world.space(1).read(alloc.addr(1), 4096)

            job.run(body)
            return result["image"], job

        clean_cfg = ArmciConfig.async_thread_mode(strided_protocol="auto")
        chaos_cfg = ArmciConfig.async_thread_mode(
            strided_protocol="auto", **self.RESILIENT
        )
        clean, _ = run(clean_cfg, None)
        chaotic, job = run(chaos_cfg, self.all_faults_plan())
        assert chaotic == clean
        # Every fault actually landed.
        assert job.trace.count("chaos.memregion_exhaustions") == 1
        assert job.trace.count("chaos.progress_stalls") == 1
        assert job.trace.count("chaos.fifo_saturations") == 1
        assert job.trace.count("armci.watchdog_failovers") == 1

    def test_scf_proxy_completes_under_all_faults(self):
        from repro.apps.nwchem import ScfConfig, run_scf

        scf = ScfConfig(nbf_override=32, nblocks=4, task_time=200e-6,
                        iterations=2, num_counters=2)
        clean = run_scf(4, ArmciConfig.async_thread_mode(), scf,
                        procs_per_node=4)
        plan = (
            FaultPlan()
            .exhaust_memregions(2, at=1e-3)
            .stall_progress(3, at=1.5e-3)
            .saturate_fifo(1, at=2e-3, amount=24)
        )
        chaotic = run_scf(
            4,
            ArmciConfig.async_thread_mode(**self.RESILIENT),
            scf,
            procs_per_node=4,
            fault_plan=plan,
        )
        assert chaotic.tasks_done == clean.tasks_done == 16 * 2
        assert chaotic.iterations_run == clean.iterations_run == 2
        assert chaotic.energies == clean.energies

    def test_chaotic_resilient_run_is_deterministic(self):
        from repro.apps.nwchem import ScfConfig, run_scf

        scf = ScfConfig(nbf_override=16, nblocks=2, task_time=100e-6,
                        iterations=1)
        plan_a = FaultPlan().saturate_fifo(0, at=1e-3, amount=16)
        plan_b = FaultPlan().saturate_fifo(0, at=1e-3, amount=16)
        kw = dict(procs_per_node=2)
        cfg = ArmciConfig.async_thread_mode(**self.RESILIENT)
        a = run_scf(2, cfg, scf, fault_plan=plan_a, **kw)
        b = run_scf(2, cfg, scf, fault_plan=plan_b, **kw)
        assert a.total_time == b.total_time
        assert a.energies == b.energies
