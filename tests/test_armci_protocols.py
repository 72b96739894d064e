"""Integration tests for the ARMCI communication protocols."""

import numpy as np
import pytest

from repro.armci import ArmciConfig, ArmciJob
from repro.errors import ArmciError
from repro.pami import PamiWorld
from repro.types import StridedDescriptor, StridedShape

#: Conformance suite: every test in this module runs once per backend
#: (the ``backend`` fixture re-points ``repro.transport.DEFAULT_BACKEND``).
pytestmark = pytest.mark.usefixtures("backend")


def make_job(num_procs=2, config=None, **kwargs):
    job = ArmciJob(
        num_procs,
        config=config if config is not None else ArmciConfig(),
        procs_per_node=kwargs.pop("procs_per_node", 1),
        **kwargs,
    )
    job.init()
    return job


class TestContiguous:
    def test_blocking_put_get_roundtrip(self):
        job = make_job()

        def body(rt):
            alloc = yield from rt.malloc(256)
            if rt.rank == 0:
                src = rt.world.space(0).allocate(256)
                rt.world.space(0).write(src, bytes(range(256)))
                yield from rt.put(1, src, alloc.addr(1), 256)
                yield from rt.fence(1)
            yield from rt.barrier()
            if rt.rank == 0:
                back = rt.world.space(0).allocate(256)
                yield from rt.get(1, back, alloc.addr(1), 256)
                return rt.world.space(0).read(back, 256)
            return None

        results = job.run(body)
        assert results[0] == bytes(range(256))

    def test_rdma_path_used_when_registered(self):
        job = make_job()

        def body(rt):
            alloc = yield from rt.malloc(128)
            if rt.rank == 0:
                src = rt.world.space(0).allocate(128)
                yield from rt.put(1, src, alloc.addr(1), 128)
            yield from rt.barrier()

        job.run(body)
        assert job.trace.count("armci.put_rdma") == 1
        assert job.trace.count("armci.put_fallback") == 0

    def test_fallback_when_rdma_disabled(self):
        job = make_job(config=ArmciConfig(use_rdma=False))

        def body(rt):
            alloc = yield from rt.malloc(128)
            result = None
            if rt.rank == 0:
                src = rt.world.space(0).allocate(128)
                rt.world.space(0).write(src, b"\xab" * 128)
                yield from rt.put(1, src, alloc.addr(1), 128)
                dst = rt.world.space(0).allocate(128)
                yield from rt.get(1, dst, alloc.addr(1), 128)
                result = rt.world.space(0).read(dst, 128)
            yield from rt.barrier()
            return result

        results = job.run(body)
        assert results[0] == b"\xab" * 128
        assert job.trace.count("armci.put_fallback") == 1
        assert job.trace.count("armci.get_fallback") == 1
        assert job.trace.count("armci.put_rdma") == 0

    def test_fallback_when_region_budget_exhausted(self):
        """Region-create failure at scale triggers the AM fall-back."""
        job = make_job(world=PamiWorld(2, procs_per_node=1, max_regions=0))

        def body(rt):
            alloc = yield from rt.malloc(128)
            if rt.rank == 0:
                src = rt.world.space(0).allocate(128)
                rt.world.space(0).write(src, b"Z" * 128)
                yield from rt.put(1, src, alloc.addr(1), 128)
                yield from rt.fence(1)
            yield from rt.barrier()
            return rt.world.space(rt.rank).read(alloc.addr(rt.rank), 1)

        results = job.run(body)
        assert results[1] == b"Z"
        assert job.trace.count("armci.put_fallback") == 1
        assert job.trace.count("armci.malloc_region_failed") == 2

    def test_nonblocking_puts_overlap(self):
        """Several nbputs posted back-to-back all complete after wait_all."""
        job = make_job()

        def body(rt):
            alloc = yield from rt.malloc(1024)
            if rt.rank == 0:
                src = rt.world.space(0).allocate(1024)
                rt.world.space(0).write(src, bytes([7]) * 1024)
                for i in range(4):
                    yield from rt.nbput(1, src + i * 256, alloc.addr(1) + i * 256, 256)
                yield from rt.wait_all()
                yield from rt.fence(1)
            yield from rt.barrier()
            return rt.world.space(rt.rank).read(alloc.addr(rt.rank), 1024)

        results = job.run(body)
        assert results[1] == bytes([7]) * 1024

    def test_get_latency_close_to_paper_adjacent(self):
        """Warmed-up blocking get of 16 B lands near 2.89 us."""
        job = make_job(num_procs=2, procs_per_node=1)

        def body(rt):
            alloc = yield from rt.malloc(64)
            result = None
            if rt.rank == 0:
                local = rt.world.space(0).allocate(64)
                yield from rt.get(1, local, alloc.addr(1), 16)  # warm caches
                t0 = rt.engine.now
                yield from rt.get(1, local, alloc.addr(1), 16)
                result = rt.engine.now - t0
            yield from rt.barrier()
            return result

        results = job.run(body)
        assert results[0] == pytest.approx(2.89e-6, rel=0.2)

    def test_region_query_cached_after_first_use(self):
        job = make_job()

        def body(rt):
            alloc = yield from rt.malloc(64)
            if rt.rank == 0:
                local = rt.world.space(0).allocate(64)
                for _ in range(5):
                    yield from rt.get(1, local, alloc.addr(1), 16)
            yield from rt.barrier()

        job.run(body)
        assert job.trace.count("armci.region_cache_misses") == 1
        assert job.trace.count("armci.region_cache_hits") == 4


class TestStrided:
    def _descriptor(self):
        # 4 chunks of 64 B: source packed every 64 B, dest every 256 B.
        return StridedDescriptor(
            StridedShape(64, (4,)), src_strides=(64,), dst_strides=(256,)
        )

    def _run_roundtrip(self, config):
        job = make_job(config=config)
        desc = self._descriptor()

        def body(rt):
            alloc = yield from rt.malloc(2048)
            result = None
            if rt.rank == 0:
                src = rt.world.space(0).allocate(256)
                rt.world.space(0).write(src, bytes(range(256)))
                yield from rt.puts(1, src, alloc.addr(1), desc)
                yield from rt.fence(1)
                back = rt.world.space(0).allocate(256)
                yield from rt.gets(1, back, alloc.addr(1), desc)
                result = rt.world.space(0).read(back, 256)
            yield from rt.barrier()
            return result

        results = job.run(body)
        return job, results[0]

    def test_zero_copy_roundtrip(self):
        job, data = self._run_roundtrip(ArmciConfig(strided_protocol="zero_copy"))
        assert data == bytes(range(256))
        assert job.trace.count("armci.puts_strided_zero_copy") == 1
        assert job.trace.count("pami.rdma_puts") == 4

    def test_pack_roundtrip(self):
        job, data = self._run_roundtrip(ArmciConfig(strided_protocol="pack"))
        assert data == bytes(range(256))
        assert job.trace.count("armci.puts_strided_pack") == 1
        assert job.trace.count("pami.rdma_puts") == 0

    def test_auto_uses_typed_for_tall_skinny(self):
        config = ArmciConfig(strided_protocol="auto", tall_skinny_threshold=128)
        job, data = self._run_roundtrip(config)
        assert data == bytes(range(256))  # 64 B chunks < 128 => typed
        assert job.trace.count("armci.puts_strided_typed") == 1

    def test_auto_uses_zero_copy_for_wide_chunks(self):
        config = ArmciConfig(strided_protocol="auto", tall_skinny_threshold=16)
        job, data = self._run_roundtrip(config)
        assert data == bytes(range(256))
        assert job.trace.count("armci.puts_strided_zero_copy") == 1

    def test_zero_copy_faster_than_pack_for_large_chunks(self):
        """Eq. 9 vs legacy: zero-copy avoids pack/unpack and remote o."""
        desc = StridedDescriptor(
            StridedShape(64 * 1024, (8,)), src_strides=(64 * 1024,),
            dst_strides=(64 * 1024,),
        )
        times = {}
        for proto in ("zero_copy", "pack"):
            job = make_job(config=ArmciConfig(strided_protocol=proto))

            def body(rt, desc=desc):
                alloc = yield from rt.malloc(1024 * 1024)
                result = None
                if rt.rank == 0:
                    src = rt.world.space(0).allocate(512 * 1024)
                    t0 = rt.engine.now
                    yield from rt.puts(1, src, alloc.addr(1), desc)
                    yield from rt.fence(1)
                    result = rt.engine.now - t0
                yield from rt.barrier()
                return result

            times[proto] = job.run(body)[0]
        assert times["zero_copy"] < times["pack"]

    def test_2d_descriptor_roundtrip(self):
        """A 3x2 lattice of 32-byte chunks survives put+get."""
        desc = StridedDescriptor(
            StridedShape(32, (3, 2)),
            src_strides=(32, 96),
            dst_strides=(64, 512),
        )
        job = make_job()

        def body(rt):
            alloc = yield from rt.malloc(4096)
            result = None
            if rt.rank == 0:
                src = rt.world.space(0).allocate(192)
                rt.world.space(0).write(src, bytes(range(192)))
                yield from rt.puts(1, src, alloc.addr(1), desc)
                yield from rt.fence(1)
                back = rt.world.space(0).allocate(192)
                yield from rt.gets(1, back, alloc.addr(1), desc)
                result = rt.world.space(0).read(back, 192)
            yield from rt.barrier()
            return result

        assert job.run(body)[0] == bytes(range(192))


class TestAccumulate:
    def test_accumulate_adds_scaled_values(self):
        """Two accumulates of ones add twice the update."""
        job = make_job()

        def body(rt):
            alloc = yield from rt.malloc(64)
            if rt.rank == 1:
                rt.world.space(1).write_f64(alloc.addr(1), np.arange(8.0))
            yield from rt.barrier()
            if rt.rank == 0:
                src = rt.world.space(0).allocate(64)
                rt.world.space(0).write_f64(src, np.ones(8))
                for _ in range(2):
                    yield from rt.acc(1, src, alloc.addr(1), 64)
                yield from rt.fence(1)
            yield from rt.barrier()
            if rt.rank == 1:
                return rt.world.space(1).read_f64(alloc.addr(1), 8)

        results = job.run(body)
        np.testing.assert_allclose(results[1], np.arange(8.0) + 2.0)

    def test_cold_accumulate_counts_one_region_miss(self):
        """A cold accumulate looks the owner's region up once: one miss,
        one REGION_QUERY, then a hit for the next accumulate."""
        job = make_job()

        def body(rt):
            alloc = yield from rt.malloc(64)
            misses = None
            if rt.rank == 0:
                src = rt.world.space(0).allocate(64)
                yield from rt.acc(1, src, alloc.addr(1), 64)
                misses = job.trace.count("armci.region_cache_misses")
                yield from rt.acc(1, src, alloc.addr(1), 64)
                yield from rt.fence(1)
            yield from rt.barrier()
            return misses

        assert job.run(body)[0] == 1
        assert job.trace.count("armci.region_cache_misses") == 1
        assert job.trace.count("armci.region_cache_hits") == 1

    def test_concurrent_accumulates_all_land(self):
        """Accumulate atomicity: contributions from all ranks sum exactly."""
        p = 8
        job = make_job(num_procs=p, procs_per_node=4)

        def body(rt):
            alloc = yield from rt.malloc(64)
            yield from rt.barrier()
            if rt.rank != 0:
                src = rt.world.space(rt.rank).allocate(64)
                rt.world.space(rt.rank).write_f64(src, np.full(8, float(rt.rank)))
                yield from rt.acc(0, src, alloc.addr(0), 64)
                yield from rt.fence(0)
            yield from rt.barrier()
            if rt.rank == 0:
                return rt.world.space(0).read_f64(alloc.addr(0), 8)

        results = job.run(body)
        expected = float(sum(range(1, p)))
        np.testing.assert_allclose(results[0], np.full(8, expected))

    def test_accumulate_requires_whole_doubles(self):
        job = make_job()

        def body(rt):
            alloc = yield from rt.malloc(64)
            if rt.rank == 0:
                src = rt.world.space(0).allocate(64)
                yield from rt.acc(1, src, alloc.addr(1), 12)
            yield from rt.barrier()

        from repro.errors import SimulationError
        with pytest.raises(SimulationError, match="whole float64"):
            job.run(body)


class TestRmwAndLocks:
    def test_rmw_swap(self):
        job = make_job()

        def body(rt):
            alloc = yield from rt.malloc(64)
            if rt.rank == 1:
                rt.world.space(1).write_i64(alloc.addr(1), 555)
            yield from rt.barrier()
            old = None
            if rt.rank == 0:
                old = yield from rt.rmw(1, alloc.addr(1), "swap", 777)
            yield from rt.barrier()
            return old

        results = job.run(body)
        assert results[0] == 555
        assert job.world.space(1).read_i64(
            job.directory.allocation(0).addr(1)
        ) == 777

    def test_shared_counter_distinct_tickets(self):
        p = 8
        job = make_job(num_procs=p, procs_per_node=4)

        def body(rt):
            alloc = yield from rt.malloc(64)
            yield from rt.barrier()
            tickets = []
            for _ in range(3):
                old = yield from rt.rmw(0, alloc.addr(0), "fetch_add", 1)
                tickets.append(old)
            yield from rt.barrier()
            return tickets

        results = job.run(body)
        all_tickets = sorted(t for ts in results for t in ts)
        assert all_tickets == list(range(3 * p))


class TestCollectives:
    def test_barrier_synchronizes_ranks(self):
        job = make_job(num_procs=4, procs_per_node=2)

        def body(rt):
            yield from rt.compute(rt.rank * 1e-5)
            yield from rt.barrier()
            return rt.engine.now

        results = job.run(body)
        assert len(set(results)) == 1  # all released together

    def test_allreduce_ops(self):
        job = make_job(num_procs=4, procs_per_node=2)

        def body(rt):
            first = yield from rt.allreduce(float(rt.rank + 1))
            second = yield from rt.allreduce(float(rt.rank))
            return (first, second)

        results = job.run(body)
        assert all(r == (10.0, 6.0) for r in results)

    def test_malloc_returns_all_addresses(self):
        job = make_job(num_procs=3, procs_per_node=3)

        def body(rt):
            alloc = yield from rt.malloc(128)
            return sorted(alloc.addresses)

        results = job.run(body)
        assert all(r == [0, 1, 2] for r in results)

    def test_malloc_bad_size_rejected(self):
        job = make_job()

        def body(rt):
            yield from rt.malloc(0)

        from repro.errors import SimulationError
        with pytest.raises(SimulationError, match="positive"):
            job.run(body, ranks=[0])

    def test_run_before_init_rejected(self):
        job = ArmciJob(num_procs=1, procs_per_node=1)
        with pytest.raises(ArmciError, match="init"):
            job.run(lambda rt: iter(()))

    def test_double_init_rejected(self):
        job = make_job()
        with pytest.raises(ArmciError, match="already"):
            job.init()


class TestRegionRegistrationRegression:
    def test_growing_requests_on_same_buffer_reuse_registration(self):
        """Regression: a request larger than a prior request on the same
        buffer must reuse the segment's registration, never attempt an
        overlapping create (found via the strided local-extent path)."""
        job = make_job()

        def body(rt):
            alloc = yield from rt.malloc(8192)
            if rt.rank == 0:
                buf = rt.world.space(0).allocate(4096)
                yield from rt.put(1, buf, alloc.addr(1), 16)
                yield from rt.put(1, buf, alloc.addr(1), 4096)  # larger
                yield from rt.fence(1)
            yield from rt.barrier()

        job.run(body)
        # One registration for the user buffer (plus one from malloc).
        assert len(job.world.regions[0]) == 2


class TestProtocolTimingTable:
    """Simulated time of one put+fence and one get in every reachable
    (datatype x protocol) cell — 2 ranks on 2 nodes, pami, D mode.

    The figure md5 gates reach the contiguous RDMA and the strided
    cells; this table also holds the ones they do not (contiguous
    fall-back, vector pack, typed get) to the last bit. Values are
    ``repr(float)`` seconds captured at commit 8832823, before the three
    datatype classes were merged onto one transfer path. Every cell
    still reads the same: the vector pack *get* reply used to cost
    ``am_handler + n*(shm + pack)`` and the merged reply item costs
    ``am_handler + n*shm + n*pack`` (the fig-8-pinned strided form), one
    ulp apart at this size, but the difference is absorbed when the
    cost is added to the clock.
    """

    #: 8 chunks of 64 B, stride 128 on both sides: nothing coalesces, and
    #: 64 B < tall_skinny_threshold, so "auto" picks the typed transfer.
    DESC = StridedDescriptor(StridedShape(64, (8,)), (128,), (128,))
    #: Six scattered segments, 256 B in all.
    LENGTHS = (24, 40, 8, 56, 16, 112)

    #: (datatype, protocol) -> (put + fence, get); ``None`` = no such op.
    GOLDEN = {
        ("contiguous", "rdma"): ("4.8084225352111425e-05", "4.59052253521117e-05"),
        ("contiguous", "am"): ("2.5398253521123626e-06", "3.939825352112722e-06"),
        ("strided", "zero_copy"): ("5.6188450704226095e-05", "5.400945070422637e-05"),
        ("strided", "typed"): ("4.8628450704224155e-05", "4.644945070422443e-05"),
        ("strided", "pack"): ("2.8376507042247694e-06", "4.365650704224976e-06"),
        ("vector", "zero_copy"): ("5.3804225352110414e-05", "5.162522535211069e-05"),
        ("vector", "typed"): ("4.838422535211138e-05", None),
        ("vector", "pack"): ("2.603825352112503e-06", "4.0678253521130026e-06"),
    }

    CONFIGS = {
        ("contiguous", "rdma"): {},
        ("contiguous", "am"): {"use_rdma": False},
        ("strided", "zero_copy"): {"strided_protocol": "zero_copy"},
        ("strided", "typed"): {"strided_protocol": "auto"},
        ("strided", "pack"): {"strided_protocol": "pack"},
        ("vector", "zero_copy"): {},
        ("vector", "typed"): {},
        ("vector", "pack"): {"use_rdma": False},
    }

    def _measure(self, datatype, protocol):
        from repro.armci.vector import IoVector

        config = ArmciConfig(backend="pami", **self.CONFIGS[datatype, protocol])
        job = make_job(config=config)
        desc, lengths = self.DESC, self.LENGTHS

        def body(rt):
            alloc = yield from rt.malloc(4096)
            times = None
            if rt.rank == 0:
                space = rt.world.space(0)
                src = space.allocate(1024)
                back = space.allocate(1024)
                remote = alloc.addr(1)
                space.write(src, bytes(range(256)) * 4)
                offsets = [160 * i for i in range(len(lengths))]
                t0 = rt.engine.now
                if datatype == "contiguous":
                    yield from rt.put(1, src, remote, 256)
                elif datatype == "strided":
                    yield from rt.puts(1, src, remote, desc)
                elif protocol == "typed":
                    agg = rt.aggregate(1)
                    for off, n in zip(offsets, lengths):
                        agg.put(src + off, remote + off, n)
                    yield from agg.flush()
                else:
                    vec = IoVector(
                        tuple(src + o for o in offsets),
                        tuple(remote + o for o in offsets),
                        lengths,
                    )
                    yield from rt.putv(1, vec)
                yield from rt.fence(1)
                t1 = rt.engine.now
                if datatype == "contiguous":
                    yield from rt.get(1, back, remote, 256)
                elif datatype == "strided":
                    yield from rt.gets(1, back, remote, desc)
                elif protocol != "typed":
                    vec = IoVector(
                        tuple(back + o for o in offsets),
                        tuple(remote + o for o in offsets),
                        lengths,
                    )
                    yield from rt.getv(1, vec)
                t2 = rt.engine.now
                times = (repr(t1 - t0), repr(t2 - t1) if t2 != t1 else None)
            yield from rt.barrier()
            return times

        return job.run(body)[0]

    @pytest.mark.parametrize("cell", sorted(CONFIGS))
    def test_cell_matches_golden(self, cell):
        assert self._measure(*cell) == self.GOLDEN[cell]
