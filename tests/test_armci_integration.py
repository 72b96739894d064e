"""Integration tests for the paper's core behavioural claims.

These tests check *mechanisms*, not just data movement: the async-thread
design servicing AMOs under target compute (Fig. 9's cause), the
consistency trackers eliminating false-positive fences (Section III-E),
and the fall-back protocol's dependence on remote progress.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.armci import ArmciConfig, ArmciJob
from repro.pami import PamiWorld
from repro.types import StridedDescriptor, StridedShape


def make_job(num_procs=2, config=None, **kwargs):
    job = ArmciJob(
        num_procs,
        config=config if config is not None else ArmciConfig(),
        procs_per_node=kwargs.pop("procs_per_node", 1),
        **kwargs,
    )
    job.init()
    return job


class TestAsyncThreadMechanism:
    """The Section III-D claim: AMOs on a computing target stall in
    default mode but not with an asynchronous progress thread."""

    def _counter_scenario(self, config, compute_time=300e-6, iters=4):
        """Rank 0 computes; rank 1 hammers a counter at rank 0.

        Returns mean fetch-and-add latency observed by rank 1.
        """
        job = make_job(num_procs=2, config=config)

        def body(rt):
            alloc = yield from rt.malloc(64)
            yield from rt.barrier()
            if rt.rank == 0:
                # Compute loop with occasional explicit progress - the
                # default-mode application pattern (Fig. 10's do_work).
                for _ in range(iters):
                    yield from rt.compute(compute_time)
                    yield from rt.progress()
                yield from rt.barrier()
                return None
            latencies = []
            for _ in range(iters):
                t0 = rt.engine.now
                yield from rt.rmw(0, alloc.addr(0), "fetch_add", 1)
                latencies.append(rt.engine.now - t0)
            yield from rt.barrier()
            return sum(latencies) / len(latencies)

        results = job.run(body)
        return results[1]

    def test_default_mode_latency_scales_with_compute(self):
        lat = self._counter_scenario(ArmciConfig.default_mode())
        # Requester waits for rank 0 to emerge from ~300us compute chunks.
        assert lat > 50e-6

    def test_async_thread_latency_independent_of_compute(self):
        lat = self._counter_scenario(ArmciConfig.async_thread_mode())
        assert lat < 10e-6

    def test_async_thread_speedup_factor(self):
        d = self._counter_scenario(ArmciConfig.default_mode())
        at = self._counter_scenario(ArmciConfig.async_thread_mode())
        assert d / at > 10  # the paper's effect, dramatically visible

    def test_single_context_async_contends_on_lock(self):
        """rho=1 + AT works but contends with the main thread's lock."""
        cfg = ArmciConfig(async_thread=True, num_contexts=1)
        lat = self._counter_scenario(cfg)
        assert lat < 50e-6  # still serviced asynchronously

    def test_async_threads_service_accumulates_too(self):
        """Accumulates to a computing target also need the async thread."""

        def acc_scenario(config):
            job = make_job(num_procs=2, config=config)

            def body(rt):
                alloc = yield from rt.malloc(64)
                yield from rt.barrier()
                if rt.rank == 0:
                    yield from rt.compute(300e-6)
                    yield from rt.progress()
                    yield from rt.barrier()
                    return None
                src = rt.world.space(1).allocate(64)
                rt.world.space(1).write_f64(src, np.ones(8))
                t0 = rt.engine.now
                yield from rt.acc(0, src, alloc.addr(0), 64)
                yield from rt.fence(0)
                elapsed = rt.engine.now - t0
                yield from rt.barrier()
                return elapsed

            return job.run(body)[1]

        d = acc_scenario(ArmciConfig.default_mode())
        at = acc_scenario(ArmciConfig.async_thread_mode())
        assert at < d / 5

    def test_fallback_get_needs_remote_progress(self):
        """Eq. 8's hidden cost: a fall-back get from a computing target
        stalls in default mode."""

        def get_scenario(config):
            world = PamiWorld(2, procs_per_node=1, max_regions=0)
            job = make_job(num_procs=2, config=config, world=world)

            def body(rt):
                alloc = yield from rt.malloc(64)
                yield from rt.barrier()
                if rt.rank == 0:
                    yield from rt.compute(300e-6)
                    yield from rt.progress()
                    yield from rt.barrier()
                    return None
                local = rt.world.space(1).allocate(64)
                t0 = rt.engine.now
                yield from rt.get(0, local, alloc.addr(0), 64)
                elapsed = rt.engine.now - t0
                yield from rt.barrier()
                return elapsed

            return job.run(body)[1]

        d = get_scenario(ArmciConfig.default_mode())
        at = get_scenario(ArmciConfig.async_thread_mode())
        assert d > 100e-6
        assert at < 10e-6

    def test_rdma_get_does_not_need_remote_progress(self):
        """The RDMA counterpoint: a registered-region get from a computing
        target completes at full speed even in default mode."""
        job = make_job(num_procs=2, config=ArmciConfig.default_mode())

        def body(rt):
            alloc = yield from rt.malloc(64)
            yield from rt.barrier()
            if rt.rank == 0:
                yield from rt.compute(300e-6)
                yield from rt.barrier()
                return None
            local = rt.world.space(1).allocate(64)
            yield from rt.get(0, local, alloc.addr(0), 16)  # warm cache
            t0 = rt.engine.now
            yield from rt.get(0, local, alloc.addr(0), 16)
            elapsed = rt.engine.now - t0
            yield from rt.barrier()
            return elapsed

        elapsed = job.run(body)[1]
        assert elapsed == pytest.approx(2.89e-6, rel=0.2)


class TestConsistencyIntegration:
    """Section III-E: cs_mr avoids false-positive fences; both trackers
    preserve location consistency."""

    def _dgemm_like(self, tracker):
        """Writes to structure C, reads from structure A, same target."""
        job = make_job(
            num_procs=2, config=ArmciConfig(consistency_tracker=tracker)
        )

        def body(rt):
            a = yield from rt.malloc(256)   # read-only structure
            c = yield from rt.malloc(256)   # accumulate-only structure
            yield from rt.barrier()
            if rt.rank == 0:
                buf = rt.world.space(0).allocate(256)
                # Outstanding write to C...
                yield from rt.nbput(1, buf, c.addr(1), 128)
                # ...then a get from A: cs_tgt fences, cs_mr does not.
                yield from rt.get(1, buf, a.addr(1), 128)
                yield from rt.fence_all()
            yield from rt.barrier()

        job.run(body)
        return job

    def test_cs_tgt_forces_fence_across_structures(self):
        job = self._dgemm_like("cs_tgt")
        assert job.trace.count("armci.fences_forced") == 1
        assert job.trace.count("armci.fences_avoided") == 0

    def test_cs_mr_avoids_fence_across_structures(self):
        job = self._dgemm_like("cs_mr")
        assert job.trace.count("armci.fences_forced") == 0
        assert job.trace.count("armci.fences_avoided") == 1

    def test_both_trackers_fence_same_structure(self):
        for tracker in ("cs_tgt", "cs_mr"):
            job = make_job(
                num_procs=2, config=ArmciConfig(consistency_tracker=tracker)
            )

            def body(rt):
                a = yield from rt.malloc(256)
                yield from rt.barrier()
                if rt.rank == 0:
                    buf = rt.world.space(0).allocate(256)
                    yield from rt.nbput(1, buf, a.addr(1), 128)
                    yield from rt.get(1, buf, a.addr(1), 128)
                yield from rt.barrier()

            job.run(body)
            assert job.trace.count("armci.fences_forced") == 1, tracker

    def test_location_consistency_read_your_writes(self):
        """A get after an (auto-fenced) put observes the written data."""
        for tracker in ("cs_tgt", "cs_mr"):
            job = make_job(
                num_procs=2, config=ArmciConfig(consistency_tracker=tracker)
            )

            def body(rt):
                a = yield from rt.malloc(256)
                yield from rt.barrier()
                result = None
                if rt.rank == 0:
                    buf = rt.world.space(0).allocate(256)
                    rt.world.space(0).write(buf, b"\x5a" * 256)
                    yield from rt.nbput(1, buf, a.addr(1), 256)
                    back = rt.world.space(0).allocate(256)
                    yield from rt.get(1, back, a.addr(1), 256)
                    result = rt.world.space(0).read(back, 256)
                yield from rt.barrier()
                return result

            results = job.run(body)
            assert results[0] == b"\x5a" * 256, tracker


class TestRegionCacheIntegration:
    def test_bounded_cache_evicts_and_refetches(self):
        """With capacity 1 and two remote structures, alternating access
        thrashes the LFU cache (misses answered by AM each time)."""
        job = make_job(
            num_procs=2, config=ArmciConfig(region_cache_capacity=1)
        )

        def body(rt):
            a = yield from rt.malloc(128)
            b = yield from rt.malloc(128)
            yield from rt.barrier()
            if rt.rank == 0:
                buf = rt.world.space(0).allocate(128)
                for _ in range(3):
                    yield from rt.get(1, buf, a.addr(1), 64)
                    yield from rt.get(1, buf, b.addr(1), 64)
            yield from rt.barrier()

        job.run(body)
        assert job.trace.count("armci.region_cache_evictions") >= 4
        assert job.trace.count("armci.region_cache_misses") >= 5

    def test_unbounded_cache_single_miss_per_structure(self):
        job = make_job(num_procs=2)

        def body(rt):
            a = yield from rt.malloc(128)
            b = yield from rt.malloc(128)
            yield from rt.barrier()
            if rt.rank == 0:
                buf = rt.world.space(0).allocate(128)
                for _ in range(3):
                    yield from rt.get(1, buf, a.addr(1), 64)
                    yield from rt.get(1, buf, b.addr(1), 64)
            yield from rt.barrier()

        job.run(body)
        assert job.trace.count("armci.region_cache_misses") == 2
        assert job.trace.count("armci.region_cache_evictions") == 0


class TestDeterminism:
    def test_identical_jobs_produce_identical_timelines(self):
        def run_once():
            job = make_job(num_procs=4, procs_per_node=2,
                           config=ArmciConfig.async_thread_mode())

            def body(rt):
                alloc = yield from rt.malloc(256)
                yield from rt.barrier()
                for i in range(3):
                    yield from rt.rmw(0, alloc.addr(0), "fetch_add", 1)
                    dst = (rt.rank + 1) % 4
                    src = rt.world.space(rt.rank).allocate(64)
                    yield from rt.put(dst, src, alloc.addr(dst) + 64, 64)
                yield from rt.fence_all()
                yield from rt.barrier()
                return rt.engine.now

            return job.run(body), job.engine.events_executed

        first, second = run_once(), run_once()
        assert first == second


class TestPropertyBased:
    @given(
        chunk=st.integers(8, 64),
        counts=st.lists(st.integers(1, 4), min_size=0, max_size=3),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_strided_put_get_roundtrip_any_shape(self, chunk, counts, data):
        """Any well-formed strided descriptor round-trips its bytes."""
        shape = StridedShape(chunk, tuple(counts))
        src_strides = []
        dst_strides = []
        for _dim in counts:
            src_strides.append(data.draw(st.integers(chunk, chunk * 8)))
            dst_strides.append(data.draw(st.integers(chunk, chunk * 8)))
        # Build non-overlapping lattices by spacing outer dims widely.
        span = chunk
        fixed_src, fixed_dst = [], []
        for count, s in zip(counts, src_strides):
            fixed_src.append(max(s, span))
            span = fixed_src[-1] * count
        span = chunk
        for count, s in zip(counts, dst_strides):
            fixed_dst.append(max(s, span))
            span = fixed_dst[-1] * count
        desc = StridedDescriptor(shape, tuple(fixed_src), tuple(fixed_dst))

        job = make_job(num_procs=2)
        total = shape.total_bytes
        payload = bytes(
            data.draw(st.integers(0, 255)) for _ in range(min(total, 64))
        )
        payload = (payload * (total // len(payload) + 1))[:total]

        src_extent = (
            max(desc.chunk_offsets("src")) + chunk if counts else chunk
        )
        dst_extent = (
            max(desc.chunk_offsets("dst")) + chunk if counts else chunk
        )

        def body(rt, desc=desc, payload=payload):
            alloc = yield from rt.malloc(max(dst_extent, 8))
            result = None
            if rt.rank == 0:
                src = rt.world.space(0).allocate(src_extent)
                # Scatter the payload into the source lattice.
                for i, off in enumerate(desc.chunk_offsets("src")):
                    rt.world.space(0).write(
                        src + off, payload[i * chunk : (i + 1) * chunk]
                    )
                yield from rt.puts(1, src, alloc.addr(1), desc)
                yield from rt.fence(1)
                back = rt.world.space(0).allocate(src_extent)
                yield from rt.gets(1, back, alloc.addr(1), desc)
                got = b"".join(
                    rt.world.space(0).read(back + off, chunk)
                    for off in desc.chunk_offsets("src")
                )
                result = got
            yield from rt.barrier()
            return result

        results = job.run(body)
        assert results[0] == payload

    @given(n_ops=st.integers(1, 12), data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_random_put_sequences_match_reference(self, n_ops, data):
        """Random overlapping puts + final fence leave target memory equal
        to applying the same writes sequentially (pairwise ordering)."""
        size = 256
        reference = np.zeros(size, dtype=np.uint8)
        ops = []
        for _ in range(n_ops):
            off = data.draw(st.integers(0, size - 8))
            length = data.draw(st.integers(1, min(32, size - off)))
            value = data.draw(st.integers(0, 255))
            ops.append((off, length, value))

        job = make_job(num_procs=2)

        def body(rt):
            alloc = yield from rt.malloc(size)
            yield from rt.barrier()
            if rt.rank == 0:
                buf = rt.world.space(0).allocate(size)
                for off, length, value in ops:
                    rt.world.space(0).write(buf, bytes([value]) * length)
                    yield from rt.nbput(1, buf, alloc.addr(1) + off, length)
                yield from rt.fence(1)
            yield from rt.barrier()
            if rt.rank == 1:
                return rt.world.space(1).read(alloc.addr(1), size)

        results = job.run(body)
        for off, length, value in ops:
            reference[off : off + length] = value
        assert results[1] == reference.tobytes()
