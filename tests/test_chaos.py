"""Tests for chaos injection and the retry/backoff recovery layer.

Covers the fault-injection contract end to end: configuration
validation, zero overhead when disabled, transient faults absorbed by
the ARMCI retry layer with exactly-once semantics, retry-budget
exhaustion, fault-tolerant collectives under scheduled crashes, and a
full NWChem SCF run completing under seeded packet loss.
"""

import dataclasses

import numpy as np
import pytest

from repro.armci import ArmciConfig, ArmciJob
from repro.chaos import ChaosConfig, ChaosEngine, ChaosError, FaultPlan, RankCrash
from repro.errors import (
    ProcessFailedError,
    RetryExhaustedError,
    TransientFaultError,
)
from repro.pami.faults import FAULT_DETECT_DELAY
from repro.pami.ordering import OrderingChecker

from .conftest import ordered_delivery


def chaos_job(num_procs=2, config=None, chaos=None, fault_plan=None, **kw):
    job = ArmciJob(
        num_procs,
        config=config if config is not None else ArmciConfig.async_thread_mode(),
        procs_per_node=1,
        chaos=chaos,
        fault_plan=fault_plan,
        **kw,
    )
    job.init()
    return job


class TestChaosConfig:
    def test_defaults_disabled(self):
        assert not ChaosConfig().enabled

    def test_enabled_by_any_probability(self):
        assert ChaosConfig(drop_prob=0.1).enabled
        assert ChaosConfig(corrupt_prob=0.1).enabled
        assert ChaosConfig(dup_prob=0.1).enabled
        assert ChaosConfig(jitter_prob=0.1, jitter_max=1e-6).enabled
        # Jitter probability without amplitude injects nothing.
        assert not ChaosConfig(jitter_prob=0.5).enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"drop_prob": -0.1},
            {"drop_prob": 1.5},
            {"corrupt_prob": 2.0},
            {"dup_prob": -1.0},
            {"jitter_prob": 1.01},
            {"drop_prob": 0.6, "corrupt_prob": 0.6},
            {"jitter_max": -1e-6},
            {"corrupt_mode": "sideways"},
            {"links": frozenset({(0, 1.5)})},
            {"links": frozenset({(0, 1, 2)})},
            {"links": frozenset({(-1, 0)})},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ChaosError):
            ChaosConfig(**kwargs)

    def test_rank_crash_validation(self):
        with pytest.raises(ChaosError):
            RankCrash(-1, 1e-3)
        with pytest.raises(ChaosError):
            RankCrash(0, -1e-3)

    def test_fault_plan_chains(self):
        plan = FaultPlan().crash(2, at=1e-3).crash(5, at=2e-3)
        assert [(c.rank, c.at) for c in plan.crashes] == [(2, 1e-3), (5, 2e-3)]

    def test_crash_rank_out_of_range_rejected(self):
        from repro.errors import ArmciError

        with pytest.raises(ArmciError):
            chaos_job(2, fault_plan=FaultPlan().crash(7, at=1e-3))


class TestChaosEngineUnit:
    def test_seed_determinism(self):
        cfg = ChaosConfig(drop_prob=0.3, corrupt_prob=0.1)

        class _Trace:
            def incr(self, *a, **k):
                pass

        rolls = []
        for _rep in range(2):
            eng = ChaosEngine(cfg, _Trace())
            rolls.append(
                [eng.transfer_fault(0, 1, "put") for _i in range(64)]
            )
        assert rolls[0] == rolls[1]

    def test_link_filter(self):
        cfg = ChaosConfig(drop_prob=1.0, links=frozenset({(0, 1)}))

        class _Trace:
            def incr(self, *a, **k):
                pass

        eng = ChaosEngine(cfg, _Trace())
        assert eng.transfer_fault(1, 0, "put") is None
        assert eng.transfer_fault(0, 1, "put") is not None

    def test_ordered_deliver_monotone_per_link(self):
        cfg = ChaosConfig(seed=3, jitter_prob=1.0, jitter_max=50e-6)

        class _Trace:
            def incr(self, *a, **k):
                pass

        eng, ordering = ChaosEngine(cfg, _Trace()), OrderingChecker()
        base, last, clamped = 1e-3, 0.0, 0
        for i in range(32):
            t = ordering.deliver(ordered_delivery(0, 1, eng), base + i * 1e-6)
            assert t >= last
            clamped += t == last
            last = t
        assert clamped > 0, "50 us of jitter on 1 us spacing never clamped"


class TestZeroOverheadWhenDisabled:
    def test_disabled_config_builds_no_engine(self):
        job = chaos_job(2, chaos=ChaosConfig())
        assert job.world.chaos is None

    def test_no_chaos_means_none(self):
        job = chaos_job(2)
        assert job.world.chaos is None

    def test_timing_identical_with_disabled_chaos(self):
        def run(chaos):
            job = chaos_job(2, chaos=chaos)

            def body(rt):
                alloc = yield from rt.malloc(4096)
                yield from rt.barrier()
                if rt.rank == 0:
                    src = rt.world.space(0).allocate(1024)
                    for _i in range(8):
                        yield from rt.put(1, src, alloc.addr(1), 1024)
                        yield from rt.get(1, src, alloc.addr(1), 1024)
                    yield from rt.fence(1)
                yield from rt.barrier()

            job.run(body)
            return job.engine.now

        assert run(None) == run(ChaosConfig())


class TestTransientRetry:
    def test_put_get_retry_exactly_once(self):
        """Seeded drops are absorbed by retries; remote data is intact."""
        job = chaos_job(2, chaos=ChaosConfig(seed=7, drop_prob=0.3))
        payload = bytes(range(256)) * 4

        def body(rt):
            alloc = yield from rt.malloc(4096)
            yield from rt.barrier()
            if rt.rank == 0:
                src = rt.world.space(0).allocate(1024)
                rt.world.space(0).write(src, payload)
                for _i in range(16):
                    yield from rt.put(1, src, alloc.addr(1), 1024)
                yield from rt.fence(1)
                back = rt.world.space(0).allocate(1024)
                yield from rt.get(1, back, alloc.addr(1), 1024)
                assert rt.world.space(0).read(back, 1024) == payload
            yield from rt.barrier()

        job.run(body)
        assert job.trace.count("chaos.drops") > 0
        assert job.trace.count("armci.transient_retries") > 0
        assert job.trace.count("armci.retry_successes") > 0

    def test_accumulate_retry_applies_exactly_once(self):
        """Dropped ACC requests never touched the target, so the retried
        total equals the clean total — the exactly-once audit."""
        n_accs, n_words = 24, 16

        def run(chaos):
            job = chaos_job(2, chaos=chaos)
            result = {}

            def body(rt):
                alloc = yield from rt.malloc(n_words * 8)
                yield from rt.barrier()
                if rt.rank == 0:
                    src = rt.world.space(0).allocate(n_words * 8)
                    rt.world.space(0).write_f64(src, np.ones(n_words))
                    for _i in range(n_accs):
                        yield from rt.acc(1, src, alloc.addr(1), n_words * 8)
                    yield from rt.fence(1)
                yield from rt.barrier()
                if rt.rank == 1:
                    got = rt.world.space(1).read_f64(alloc.addr(1), n_words)
                    result["sum"] = float(got.sum())

            job.run(body)
            return result["sum"], job

        clean, _ = run(None)
        chaotic, job = run(ChaosConfig(seed=11, drop_prob=0.25))
        assert clean == chaotic == n_accs * n_words
        assert job.trace.count("armci.transient_retries.acc") > 0
        assert job.trace.count("armci.accs_applied") == n_accs

    def test_rmw_retry_draws_every_value_once(self):
        """Lost AMO requests never incremented the counter: retried
        fetch_adds still hand out a contiguous range with no gaps."""
        job = chaos_job(2, chaos=ChaosConfig(seed=5, drop_prob=0.3))
        draws = []

        def body(rt):
            alloc = yield from rt.malloc(8)
            yield from rt.barrier()
            if rt.rank == 0:
                for _i in range(32):
                    old = yield from rt.rmw(1, alloc.addr(1), "fetch_add", 1)
                    draws.append(old)
            yield from rt.barrier()

        job.run(body)
        assert draws == list(range(32))
        assert job.trace.count("armci.transient_retries.rmw") > 0

    def test_strided_and_vector_retry(self):
        from repro.armci.vector import IoVector
        from repro.types import StridedDescriptor, StridedShape

        cfg = dataclasses.replace(
            ArmciConfig.async_thread_mode(), strided_protocol="auto"
        )
        job = chaos_job(2, config=cfg, chaos=ChaosConfig(seed=13, drop_prob=0.3))
        desc = StridedDescriptor(StridedShape(16, (8,)), (32,), (32,))

        def body(rt):
            alloc = yield from rt.malloc(4096)
            yield from rt.barrier()
            if rt.rank == 0:
                local = rt.world.space(0).allocate(512)
                rt.world.space(0).write(local, b"S" * 512)
                for _i in range(8):
                    yield from rt.puts(1, local, alloc.addr(1), desc)
                    yield from rt.gets(1, local, alloc.addr(1), desc)
                vec = IoVector((local, local + 64), (alloc.addr(1), alloc.addr(1) + 64), (64, 64))
                for _i in range(8):
                    yield from rt.putv(1, vec)
                    yield from rt.getv(1, vec)
                yield from rt.fence(1)
            yield from rt.barrier()

        job.run(body)
        assert job.trace.count("armci.transient_retries") > 0

    def test_backoff_time_accrues(self):
        job = chaos_job(2, chaos=ChaosConfig(seed=7, drop_prob=0.4))

        def body(rt):
            alloc = yield from rt.malloc(1024)
            yield from rt.barrier()
            if rt.rank == 0:
                src = rt.world.space(0).allocate(256)
                for _i in range(16):
                    yield from rt.put(1, src, alloc.addr(1), 256)
                yield from rt.fence(1)
            yield from rt.barrier()

        job.run(body)
        assert job.trace.time("armci.retry_backoff_time") > 0.0

    def test_retry_budget_exhaustion_raises(self):
        """A link with total loss exhausts the budget and surfaces
        RetryExhaustedError (a TransientFaultError subclass)."""
        job = chaos_job(
            2,
            chaos=ChaosConfig(seed=1, drop_prob=1.0, links=frozenset({(0, 1)})),
        )
        outcome = {}

        def body(rt):
            alloc = yield from rt.malloc(1024)
            yield from rt.barrier()
            if rt.rank == 0:
                src = rt.world.space(0).allocate(64)
                try:
                    yield from rt.get(1, src, alloc.addr(1), 64)
                except RetryExhaustedError as exc:
                    outcome["error"] = exc
            # No closing barrier: the barrier AM from 0 to 1 would be
            # endlessly dropped on this fully-lossy link.

        job.run(body)
        assert isinstance(outcome["error"], TransientFaultError)
        max_retries = job.rt(0).config.retry.max_retries
        assert job.trace.count("armci.transient_retries.get") == max_retries

    def test_duplicates_are_discarded(self):
        """Duplicated AM deliveries cost handler time but do not change
        semantics (sequence-number dedup)."""
        n_accs, n_words = 16, 8
        job = chaos_job(2, chaos=ChaosConfig(seed=3, dup_prob=0.5))
        result = {}

        def body(rt):
            alloc = yield from rt.malloc(n_words * 8)
            yield from rt.barrier()
            if rt.rank == 0:
                src = rt.world.space(0).allocate(n_words * 8)
                rt.world.space(0).write_f64(src, np.ones(n_words))
                for _i in range(n_accs):
                    yield from rt.acc(1, src, alloc.addr(1), n_words * 8)
                yield from rt.fence(1)
            yield from rt.barrier()
            if rt.rank == 1:
                got = rt.world.space(1).read_f64(alloc.addr(1), n_words)
                result["sum"] = float(got.sum())

        job.run(body)
        assert result["sum"] == n_accs * n_words
        assert job.trace.count("chaos.duplicates") > 0
        assert job.trace.count("pami.am_duplicates_discarded") > 0
        assert job.trace.count("armci.accs_applied") == n_accs

    def test_jitter_preserves_put_ordering(self):
        """Jittered ordered traffic is clamped monotone per link: the
        last put in program order wins, and the OrderingChecker (which
        asserts monotone delivery internally) stays quiet."""
        job = chaos_job(
            2, chaos=ChaosConfig(seed=9, jitter_prob=0.7, jitter_max=40e-6)
        )
        result = {}

        def body(rt):
            alloc = yield from rt.malloc(64)
            yield from rt.barrier()
            if rt.rank == 0:
                src = rt.world.space(0).allocate(64)
                for i in range(32):
                    rt.world.space(0).write(src, bytes([i]) * 64)
                    yield from rt.put(1, src, alloc.addr(1), 64)
                yield from rt.fence(1)
            yield from rt.barrier()
            if rt.rank == 1:
                result["data"] = rt.world.space(1).read(alloc.addr(1), 64)

        job.run(body)
        assert result["data"] == bytes([31]) * 64
        assert job.trace.count("chaos.jittered") > 0

    def test_fire_and_forget_retransmit(self):
        """Cookie-less AMs (notify) survive loss via bounded transport
        retransmits instead of initiator-side retry."""
        job = chaos_job(2, chaos=ChaosConfig(seed=2, drop_prob=0.5))

        def body(rt):
            yield from rt.barrier()
            if rt.rank == 0:
                for _i in range(12):
                    yield from rt.notify(1)
            else:
                for _i in range(12):
                    yield from rt.notify_wait(0)
            yield from rt.barrier()

        job.run(body)
        assert job.trace.count("chaos.retransmits") > 0


class TestFaultPlanCollectives:
    def test_mid_barrier_crash_raises_at_all_survivors(self):
        """A rank crashed mid-barrier surfaces ProcessFailedError at
        every survivor within the detection delay, instead of deadlock."""
        crash_at = 400e-6  # measured from run() start
        job = chaos_job(4, fault_plan=FaultPlan().crash(3, at=crash_at))
        outcomes = {}

        def body(rt):
            start = rt.engine.now
            yield from rt.barrier()
            if rt.rank == 3:
                yield from rt.compute(10.0)  # killed by the plan mid-compute
                return
            yield from rt.compute(100e-6)
            try:
                yield from rt.barrier()
                outcomes[rt.rank] = ("ok", 0.0)
            except ProcessFailedError:
                outcomes[rt.rank] = ("failed", rt.engine.now - start)

        job.run(body)
        assert set(outcomes) == {0, 1, 2}
        for rank, (status, t_detect) in outcomes.items():
            assert status == "failed", f"rank {rank} did not observe the crash"
            assert t_detect >= crash_at
            # Detection latency, not instant knowledge — and bounded.
            assert t_detect <= crash_at + FAULT_DETECT_DELAY + 1e-3

    def test_crash_before_barrier_entry_also_detected(self):
        """Survivors that enter a barrier after the crash still fail it
        (the epoch stays broken; no hang on the missing participant)."""
        job = chaos_job(4, fault_plan=FaultPlan().crash(1, at=50e-6))
        outcomes = {}

        def body(rt):
            if rt.rank == 1:
                yield from rt.compute(10.0)
                return
            yield from rt.compute(200e-6)  # crash happens while computing
            try:
                yield from rt.barrier()
                outcomes[rt.rank] = "ok"
            except ProcessFailedError:
                outcomes[rt.rank] = "failed"

        job.run(body)
        assert all(outcomes[r] == "failed" for r in (0, 2, 3))

    def test_group_reduce_detects_crash(self):
        """Software tree collectives (group reduce) raise at survivors
        via the failure detector instead of waiting forever."""
        job = chaos_job(4, fault_plan=FaultPlan().crash(2, at=300e-6))
        outcomes = {}

        def body(rt):
            yield from rt.barrier()
            if rt.rank == 2:
                yield from rt.compute(10.0)
                return
            yield from rt.compute(500e-6)
            group = rt.group(range(rt.world.num_procs))
            try:
                yield from rt.group_allreduce(group, float(rt.rank))
                outcomes[rt.rank] = "ok"
            except ProcessFailedError:
                outcomes[rt.rank] = "failed"

        job.run(body)
        assert all(v == "failed" for v in outcomes.values())


class TestScfUnderChaos:
    def test_scf_completes_under_seeded_drops(self):
        """The acceptance scenario: a seeded chaos SCF run finishes with
        retries and bit-identical task accounting (run_scf itself raises
        if any task is lost or double-counted)."""
        from repro.apps.nwchem import ScfConfig, run_scf

        cfg = ScfConfig(nbf_override=32, nblocks=4, task_time=200e-6,
                        iterations=2, num_counters=2)
        clean = run_scf(4, ArmciConfig.async_thread_mode(), cfg,
                        procs_per_node=4)
        chaotic = run_scf(
            4, ArmciConfig.async_thread_mode(), cfg, procs_per_node=4,
            chaos=ChaosConfig(seed=17, drop_prob=0.02),
        )
        assert chaotic.tasks_done == clean.tasks_done == 16 * 2
        assert chaotic.iterations_run == 2

    def test_scf_chaos_run_is_deterministic(self):
        from repro.apps.nwchem import ScfConfig, run_scf

        cfg = ScfConfig(nbf_override=16, nblocks=2, task_time=100e-6,
                        iterations=1)
        kw = dict(procs_per_node=2, chaos=ChaosConfig(seed=23, drop_prob=0.05))
        a = run_scf(2, ArmciConfig.async_thread_mode(), cfg, **kw)
        b = run_scf(2, ArmciConfig.async_thread_mode(), cfg, **kw)
        assert a.total_time == b.total_time
        assert a.energies == b.energies
