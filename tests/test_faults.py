"""Tests for the fault-tolerance extension: fault injection + detection.

One-sided operations against a failed rank must complete with
ProcessFailedError at the initiator instead of hanging — the property a
fault-tolerant PGAS runtime needs (the resiliency motivation of the
paper's introduction).
"""

import pytest

from repro.armci import ArmciConfig, ArmciJob
from repro.errors import PamiError, ProcessFailedError
from repro.pami.faults import FAULT_DETECT_DELAY, Failure, check_completion


def make_job(num_procs=4, config=None, **kwargs):
    job = ArmciJob(
        num_procs,
        config=config if config is not None else ArmciConfig.async_thread_mode(),
        procs_per_node=1,
        **kwargs,
    )
    job.init()
    return job


class TestFailureToken:
    def test_check_completion_passthrough(self):
        assert check_completion(42) == 42
        assert check_completion(None) is None

    def test_check_completion_raises(self):
        with pytest.raises(ProcessFailedError, match="rank 3"):
            check_completion(Failure(3))

    def test_fail_rank_validation(self):
        job = make_job()
        with pytest.raises(PamiError):
            job.world.fail_rank(99)

    def test_fail_rank_idempotent_bookkeeping(self):
        job = make_job()
        job.world.fail_rank(2)
        assert job.world.is_failed(2)
        assert not job.world.is_failed(0)


def _fail_then(job, victim, op_body):
    """Rank 1 fails `victim`, then runs op_body; survivors use ranks 0/1."""
    outcome = {}

    def body(rt):
        alloc = yield from rt.malloc(256)
        yield from rt.barrier()
        if rt.rank >= 2:
            # The victim (and bystander 3) compute; victim killed mid-way.
            yield from rt.compute(10.0)
            return
        if rt.rank == 1:
            yield from rt.compute(50e-6)
            rt.world.fail_rank(victim)
            t0 = rt.engine.now
            try:
                yield from op_body(rt, alloc)
                outcome["result"] = "ok"
            except ProcessFailedError as exc:
                outcome["result"] = "failed"
                outcome["detect_time"] = rt.engine.now - t0
                outcome["message"] = str(exc)
        # Ranks 0 and 1 do not barrier again: rank 2 is dead.

    job.run(body, ranks=[0, 1, 2, 3])
    return outcome


class TestOneSidedFaultDetection:
    def test_get_from_failed_rank_raises(self):
        job = make_job()

        def op(rt, alloc):
            local = rt.world.space(1).allocate(64)
            yield from rt.get(2, local, alloc.addr(2), 64)

        out = _fail_then(job, 2, op)
        assert out["result"] == "failed"
        assert "rank 2" in out["message"]
        assert out["detect_time"] >= FAULT_DETECT_DELAY

    def test_rmw_on_failed_rank_raises(self):
        job = make_job()

        def op(rt, alloc):
            yield from rt.rmw(2, alloc.addr(2), "fetch_add", 1)

        out = _fail_then(job, 2, op)
        assert out["result"] == "failed"

    def test_put_fence_detects_failure(self):
        job = make_job()

        def op(rt, alloc):
            src = rt.world.space(1).allocate(64)
            yield from rt.put(2, src, alloc.addr(2), 64)
            yield from rt.fence(2)

        out = _fail_then(job, 2, op)
        assert out["result"] == "failed"

    def test_accumulate_fence_detects_failure(self):
        import numpy as np

        job = make_job()

        def op(rt, alloc):
            src = rt.world.space(1).allocate(64)
            rt.world.space(1).write_f64(src, np.ones(8))
            yield from rt.acc(2, src, alloc.addr(2), 64)
            yield from rt.fence(2)

        out = _fail_then(job, 2, op)
        assert out["result"] == "failed"

    def test_fallback_get_detects_failure(self):
        job = make_job(config=ArmciConfig(use_rdma=False, async_thread=True,
                                          num_contexts=2))

        def op(rt, alloc):
            local = rt.world.space(1).allocate(64)
            yield from rt.get(2, local, alloc.addr(2), 64)

        out = _fail_then(job, 2, op)
        assert out["result"] == "failed"

    def test_healthy_pairs_unaffected_by_third_party_failure(self):
        job = make_job()

        def op(rt, alloc):
            # Rank 2 is dead, but rank 1 <-> rank 0 traffic still works.
            src = rt.world.space(1).allocate(64)
            rt.world.space(1).write(src, b"Y" * 64)
            yield from rt.put(0, src, alloc.addr(0), 64)
            yield from rt.fence(0)
            back = rt.world.space(1).allocate(64)
            yield from rt.get(0, back, alloc.addr(0), 64)
            assert rt.world.space(1).read(back, 64) == b"Y" * 64

        out = _fail_then(job, 2, op)
        assert out["result"] == "ok"

    def test_queued_amo_failed_with_host(self):
        """An AMO already queued at a rank that then dies is failed back
        to its initiator (on_dropped), not lost."""
        job = make_job(config=ArmciConfig.default_mode())
        outcome = {}

        def body(rt):
            alloc = yield from rt.malloc(64)
            yield from rt.barrier()
            if rt.rank >= 2:
                # Never advances: incoming AMO sits in its queue.
                yield from rt.compute(200e-6)
                return
            if rt.rank == 1:
                from repro.pami.atomics import rmw as pami_rmw

                pending = pami_rmw(rt.main_context, 2, alloc.addr(2), "fetch_add", 1)
                # Give the request time to arrive at rank 2's queue.
                yield from rt.compute(20e-6)
                rt.world.fail_rank(2)
                value = yield from rt.main_context.wait_with_progress(pending.event)
                try:
                    check_completion(value)
                    outcome["result"] = "ok"
                except ProcessFailedError:
                    outcome["result"] = "failed"

        job.run(body, ranks=[0, 1, 2, 3])
        assert outcome["result"] == "failed"


def _tall_skinny():
    from repro.types import StridedDescriptor, StridedShape

    # chunk 16 B < tall_skinny_threshold (128): "auto" picks typed.
    return StridedDescriptor(StridedShape(16, (8,)), (32,), (32,))


def _run_pair_op(job, body_op, warmup_op=None):
    """Rank 1 optionally warms up against rank 2, fails it, runs body_op."""
    outcome = {}

    def body(rt):
        alloc = yield from rt.malloc(512)
        yield from rt.barrier()
        if rt.rank >= 2:
            yield from rt.compute(10.0)
            return
        if rt.rank == 1:
            if warmup_op is not None:
                yield from warmup_op(rt, alloc)
            rt.world.fail_rank(2)
            try:
                yield from body_op(rt, alloc)
                outcome["result"] = "ok"
            except ProcessFailedError as exc:
                outcome["result"] = "failed"
                outcome["message"] = str(exc)

    job.run(body, ranks=[0, 1, 2, 3])
    return outcome


class TestStridedVectorFaults:
    """Fault detection on the non-contiguous datatype protocols.

    Strided and vector transfers ride the same ``rdma_put``/``rdma_get``
    (typed, through a layout) and the same ``PUT_REQUEST``/``GET_REQUEST``
    active messages (packed) as contiguous ones; these tests pin down
    that a dead target surfaces through each of them.
    """

    def _auto_config(self):
        import dataclasses

        return dataclasses.replace(
            ArmciConfig.async_thread_mode(), strided_protocol="auto"
        )

    def test_typed_strided_get_from_failed_rank_raises(self):
        job = make_job(config=self._auto_config())
        desc = _tall_skinny()
        buffers = {}

        def warmup(rt, alloc):
            local = rt.world.space(1).allocate(512)
            buffers["local"] = local
            # Warms the region cache so the retry hits the typed path
            # directly instead of failing in region resolution.
            yield from rt.gets(2, local, alloc.addr(2), desc)

        def op(rt, alloc):
            yield from rt.gets(2, buffers["local"], alloc.addr(2), desc)

        out = _run_pair_op(job, op, warmup)
        assert out["result"] == "failed"
        assert "rank 2" in out["message"]

    def test_typed_strided_put_fence_detects_failure(self):
        job = make_job(config=self._auto_config())
        desc = _tall_skinny()
        buffers = {}

        def warmup(rt, alloc):
            local = rt.world.space(1).allocate(512)
            buffers["local"] = local
            yield from rt.puts(2, local, alloc.addr(2), desc)
            yield from rt.fence(2)

        def op(rt, alloc):
            yield from rt.puts(2, buffers["local"], alloc.addr(2), desc)
            yield from rt.fence(2)

        out = _run_pair_op(job, op, warmup)
        assert out["result"] == "failed"

    def test_packed_strided_get_from_failed_rank_raises(self):
        import dataclasses

        job = make_job(
            config=dataclasses.replace(
                ArmciConfig.async_thread_mode(), strided_protocol="pack"
            )
        )
        desc = _tall_skinny()

        def op(rt, alloc):
            local = rt.world.space(1).allocate(512)
            yield from rt.gets(2, local, alloc.addr(2), desc)

        out = _run_pair_op(job, op)
        assert out["result"] == "failed"

    def test_packed_vector_put_fence_detects_failure(self):
        from repro.armci.vector import IoVector

        job = make_job(
            config=ArmciConfig(use_rdma=False, async_thread=True, num_contexts=2)
        )

        def op(rt, alloc):
            local = rt.world.space(1).allocate(64)
            vec = IoVector((local, local + 32), (alloc.addr(2), alloc.addr(2) + 32), (32, 32))
            yield from rt.putv(2, vec)
            yield from rt.fence(2)

        out = _run_pair_op(job, op)
        assert out["result"] == "failed"

    def test_packed_vector_get_from_failed_rank_raises(self):
        from repro.armci.vector import IoVector

        job = make_job(
            config=ArmciConfig(use_rdma=False, async_thread=True, num_contexts=2)
        )

        def op(rt, alloc):
            local = rt.world.space(1).allocate(64)
            vec = IoVector((local, local + 32), (alloc.addr(2), alloc.addr(2) + 32), (32, 32))
            yield from rt.getv(2, vec)

        out = _run_pair_op(job, op)
        assert out["result"] == "failed"

    def test_typed_vector_put_fence_detects_failure(self):
        """Aggregate flush (typed vector put) to a failed rank is caught
        by the fence via the typed path's own ack hook."""
        job = make_job()
        buffers = {}

        def warmup(rt, alloc):
            local = rt.world.space(1).allocate(64)
            buffers["local"] = local
            agg = rt.aggregate(2)
            agg.put(local, alloc.addr(2), 32)
            yield from agg.flush()
            yield from rt.fence(2)

        def op(rt, alloc):
            agg = rt.aggregate(2)
            agg.put(buffers["local"], alloc.addr(2), 32)
            yield from agg.flush()
            yield from rt.fence(2)

        out = _run_pair_op(job, op, warmup)
        assert out["result"] == "failed"


class TestNestedReplyCookies:
    """Regression: reply cookies buried in forwarded envelopes must be
    failed too, or the forwarding initiator deadlocks."""

    def test_cookie_inside_forwarded_envelope_is_failed(self):
        from repro.pami.activemsg import AmEnvelope
        from repro.pami.faults import fail_reply_cookies

        job = make_job()
        outcome = {}

        def body(rt):
            yield from rt.barrier()
            if rt.rank != 1:
                return
            ctx = rt.main_context
            inner_event = rt.engine.event("inner.reply")
            # Forwarding protocol shape: the original request (with its
            # live reply cookie) rides inside a redirect envelope.
            inner = AmEnvelope(7, 1, 2, {"event": inner_event, "reply_ctx": ctx})
            outer = AmEnvelope(8, 1, 3, {"forward": inner})
            assert fail_reply_cookies(rt.world, outer, Failure(3)) == 1
            value = yield from ctx.wait_with_progress(inner_event)
            try:
                check_completion(value)
                outcome["result"] = "ok"
            except ProcessFailedError:
                outcome["result"] = "failed"

        job.run(body)
        assert outcome["result"] == "failed"

    def test_cookies_in_nested_containers_are_counted(self):
        from repro.pami.activemsg import AmEnvelope
        from repro.pami.faults import _collect_reply_cookies

        job = make_job()
        ctx = object()  # stands in for a reply context
        ev_a = job.engine.event("a")
        ev_b = job.engine.event("b")
        ev_c = job.engine.event("c")
        env = AmEnvelope(
            7, 1, 2,
            {
                "ack": [ev_a, ev_b],
                "meta": {"reply": ev_c},
                "addr": 64,
                "reply_ctx": ctx,
            },
        )
        out = []
        _collect_reply_cookies(env.header, None, out)
        assert {id(ev) for _c, ev in out} == {id(ev_a), id(ev_b), id(ev_c)}

    def test_fire_and_forget_reports_zero(self):
        from repro.pami.activemsg import AmEnvelope
        from repro.pami.faults import fail_reply_cookies

        job = make_job()
        env = AmEnvelope(7, 1, 2, {"addr": 64, "nbytes": 8})
        assert fail_reply_cookies(job.world, env, Failure(2)) == 0


class TestPoolDegradation:
    def test_sharded_pool_fails_over_to_backup_counter(self):
        """Survivors fail a dead shard over to its backup counter and
        recover every undrawn task (at-least-once coverage)."""
        from repro.gax import DistributedTaskPool

        job = make_job(num_procs=4)
        done = []

        def body(rt):
            pool = yield from DistributedTaskPool.create(rt, 16, 4)
            yield from rt.barrier()
            if rt.rank == 2:
                rt.world.fail_rank(2)  # kills shard 2's primary counter host
                return
            while True:
                try:
                    claimed = yield from pool.next_range(rt)
                except ProcessFailedError:
                    break
                if claimed is None:
                    break
                done.append(claimed)
                yield from rt.compute(20e-6)

        job.run(body)
        covered = set(t for lo, hi in done for t in range(lo, hi))
        # Shard 2 (tasks 8..11) is recovered via its backup on rank 3.
        assert covered == set(range(16))
        assert job.trace.count("gax.pool_shards_failed_over") >= 1
        assert job.trace.count("gax.pool_shards_lost") == 0

    def test_sharded_pool_without_backups_loses_dead_shard(self):
        """With fault tolerance off, a dead counter host still only costs
        its own shard; survivors drain the rest (the pre-failover
        degradation behaviour)."""
        from repro.gax import DistributedTaskPool

        job = make_job(num_procs=4)
        done = []

        def body(rt):
            pool = yield from DistributedTaskPool.create(
                rt, 16, 4, fault_tolerant=False
            )
            yield from rt.barrier()
            if rt.rank == 2:
                rt.world.fail_rank(2)
                return
            while True:
                try:
                    claimed = yield from pool.next_range(rt)
                except ProcessFailedError:
                    break
                if claimed is None:
                    break
                done.append(claimed)
                yield from rt.compute(20e-6)

        job.run(body)
        covered = set(t for lo, hi in done for t in range(lo, hi))
        # Shard 2 covers tasks 8..11 and is lost; everything else done.
        assert set(range(0, 8)) | set(range(12, 16)) <= covered
        assert covered.isdisjoint(range(8, 12))
        assert job.trace.count("gax.pool_shards_lost") >= 1
