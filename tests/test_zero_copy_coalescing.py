"""Tests for the zero-copy data plane and chunk-run coalescing.

Covers the descriptor-level run merging (StridedDescriptor/IoVector),
the AddressSpace view/write_into primitives, the engine zero-delay fast
lane, end-to-end transfers with coalescing on/off, the aggregation
buffer regrow fix, and coalescing under randomized schedules with the
happens-before oracle attached.
"""

import numpy as np
import pytest

from repro.armci import ArmciConfig, ArmciJob
from repro.armci.strided import strided_transfer
from repro.armci.vector import IoVector
from repro.machine.bgq import BGQParams
from repro.errors import ArmciError, PamiError
from repro.pami.memory import AddressSpace, as_u8
from repro.sim.engine import Engine, SchedulePolicy
from repro.types import StridedDescriptor, StridedShape


#: Coalescing on the zero-copy path everywhere: ``"auto"`` with no chunk
#: small enough to take the typed path.
COALESCING = ArmciConfig(strided_protocol="auto", tall_skinny_threshold=0)


def make_job(num_procs=2, config=None, **kwargs):
    job = ArmciJob(
        num_procs,
        config=config if config is not None else ArmciConfig(),
        procs_per_node=kwargs.pop("procs_per_node", 1),
        **kwargs,
    )
    job.init()
    return job


# ----------------------------------------------------- descriptor merging


class TestStridedCoalescedRuns:
    def test_degenerate_single_chunk(self):
        desc = StridedDescriptor(StridedShape(128), (), ())
        assert desc.coalesced_runs() == [(0, 0, 128)]

    def test_fully_contiguous_collapses_to_one_run(self):
        # chunk_bytes == stride on both sides: one RDMA for the patch.
        desc = StridedDescriptor(StridedShape(64, (8,)), (64,), (64,))
        assert desc.coalesced_runs() == [(0, 0, 8 * 64)]

    def test_gapped_both_sides_never_merges(self):
        desc = StridedDescriptor(StridedShape(64, (4,)), (128,), (128,))
        runs = desc.coalesced_runs()
        assert len(runs) == 4
        assert all(n == 64 for _s, _d, n in runs)

    def test_contiguous_on_one_side_only_never_merges(self):
        # Source is packed but the destination has gaps: the NIC cannot
        # fold the pair into one op, so no run forms (and vice versa).
        src_only = StridedDescriptor(StridedShape(64, (4,)), (64,), (256,))
        dst_only = StridedDescriptor(StridedShape(64, (4,)), (256,), (64,))
        assert len(src_only.coalesced_runs()) == 4
        assert len(dst_only.coalesced_runs()) == 4

    def test_multidim_inner_contiguous_merges_per_row(self):
        # Inner dim packed, outer dim strided: one run per outer row.
        desc = StridedDescriptor(
            StridedShape(32, (4, 3)), (32, 1024), (32, 2048)
        )
        runs = desc.coalesced_runs()
        assert len(runs) == 3
        assert all(n == 4 * 32 for _s, _d, n in runs)

    def test_runs_preserve_total_bytes_and_mapping(self):
        desc = StridedDescriptor(StridedShape(16, (5,)), (16,), (16,))
        runs = desc.coalesced_runs()
        assert sum(n for _s, _d, n in runs) == desc.shape.total_bytes


class TestVectorCoalescedSegments:
    def test_adjacent_both_sides_merge(self):
        vec = IoVector((0, 64, 128), (1000, 1064, 1128), (64, 64, 64))
        assert vec.coalesced_segments() == [(0, 1000, 192)]

    def test_gap_breaks_run(self):
        vec = IoVector((0, 64, 256), (1000, 1064, 1256), (64, 64, 64))
        assert vec.coalesced_segments() == [(0, 1000, 128), (256, 1256, 64)]

    def test_one_side_adjacency_insufficient(self):
        # Local side adjacent, remote side gapped: no merge.
        vec = IoVector((0, 64), (1000, 2000), (64, 64))
        assert vec.coalesced_segments() == [(0, 1000, 64), (64, 2000, 64)]

    def test_single_segment(self):
        vec = IoVector((0,), (512,), (48,))
        assert vec.coalesced_segments() == [(0, 512, 48)]

    def test_zero_length_segment_rejected(self):
        with pytest.raises(ArmciError):
            IoVector((0, 64), (100, 164), (64, 0))


class TestZeroLengthTransfers:
    def test_zero_chunk_descriptor_rejected(self):
        with pytest.raises(ArmciError):
            StridedShape(0, (4,))

    def test_zero_byte_put_rejected(self):
        job = make_job()

        def body(rt):
            alloc = yield from rt.malloc(64)
            if rt.rank == 0:
                src = rt.world.space(0).allocate(64)
                with pytest.raises(PamiError):
                    yield from rt.put(1, src, alloc.addr(1), 0)
            yield from rt.barrier()

        job.run(body)


# ----------------------------------------------------- memory primitives


class TestAddressSpaceZeroCopy:
    def test_write_into_accepts_all_buffer_flavours(self):
        sp = AddressSpace()
        a = sp.allocate(64)
        sp.write_into(a, b"\x01" * 16)
        sp.write_into(a + 16, memoryview(b"\x02" * 16))
        sp.write_into(a + 32, np.full(16, 3, dtype=np.uint8))
        sp.write_into(a + 48, np.full(2, 0.0, dtype=np.float64))
        assert sp.read(a, 16) == b"\x01" * 16
        assert sp.read(a + 16, 16) == b"\x02" * 16
        assert sp.read(a + 32, 16) == b"\x03" * 16
        assert sp.read(a + 48, 16) == b"\x00" * 16

    def test_view_is_zero_copy(self):
        sp = AddressSpace()
        a = sp.allocate(32)
        view = sp.view(a, 32)
        view[:] = 7
        assert sp.read(a, 32) == b"\x07" * 32

    def test_snapshot_is_private(self):
        sp = AddressSpace()
        a = sp.allocate(8)
        snap = sp.snapshot(a, 8)
        sp.write_into(a, b"\xff" * 8)
        assert bytes(snap) == b"\x00" * 8

    def test_as_u8_reinterprets_without_copy(self):
        arr = np.arange(4, dtype=np.float64)
        u8 = as_u8(arr)
        assert u8.size == 32
        arr[0] = 9.0
        assert as_u8(arr)[0] == u8[0]  # same backing memory

    def test_free_uses_sorted_bases(self):
        sp = AddressSpace()
        bases = [sp.allocate(16) for _ in range(8)]
        for base in bases[::2]:
            sp.free(base)
        for base in bases[1::2]:  # survivors still addressable
            sp.write_into(base, b"x" * 16)
        with pytest.raises(PamiError):
            sp.free(bases[0])

    def test_i64_view_roundtrip(self):
        sp = AddressSpace()
        a = sp.allocate(8)
        cell = sp.i64_view(a)
        cell[0] = -42
        assert sp.read_i64(a) == -42


# ----------------------------------------------------- engine fast lane


class TestEngineFastLane:
    def test_zero_delay_fifo_merges_with_heap_order(self):
        eng = Engine()
        order = []
        eng.schedule(0.0, lambda a: order.append(a), 1)
        eng.schedule(1e-9, lambda a: order.append(a), 2)
        eng.schedule(0.0, lambda a: order.append(a), 3)
        eng.run()
        assert order == [1, 3, 2]

    def test_equivalent_to_explicit_fifo_policy(self):
        """Fast lane must replay the exact heap-only FIFO schedule."""

        def workload(engine):
            log = []

            def chain(depth):
                def cb(_):
                    log.append(depth)
                    if depth < 5:
                        engine.schedule(0.0, chain(depth + 1))
                        engine.schedule(1e-9 * depth, chain(depth + 2))
                return cb

            engine.schedule(0.0, chain(0))
            engine.schedule(0.0, chain(1))
            engine.run()
            return log, engine.events_executed, engine.now

        fast = workload(Engine())  # fast lane active
        slow = workload(Engine(policy=SchedulePolicy()))  # heap-only FIFO
        assert fast == slow

    def test_cancelled_zero_delay_timer_skipped(self):
        eng = Engine()
        fired = []
        timer = eng.schedule_timer(0.0, lambda a: fired.append(a), "x")
        timer.cancel()
        eng.schedule(0.0, lambda a: fired.append(a), "y")
        eng.run()
        assert fired == ["y"]
        assert eng.events_executed == 1

    def test_fast_lane_disabled_when_recording(self):
        eng = Engine(record_schedule=True)
        eng.schedule(0.0, lambda a: None)
        eng.run()
        assert len(eng.schedule_log) == 1


# ------------------------------------------------- end-to-end coalescing


class TestCoalescingEndToEnd:
    def _strided_roundtrip(self, config, desc, nbytes):
        job = make_job(config=config)

        def body(rt):
            alloc = yield from rt.malloc(nbytes)
            if rt.rank == 0:
                space = rt.world.space(0)
                src = space.allocate(nbytes)
                back = space.allocate(nbytes)
                payload = np.random.default_rng(7).integers(
                    0, 256, nbytes, dtype=np.uint8
                )
                space.write_into(src, payload)
                yield from rt.puts(1, src, alloc.addr(1), desc)
                yield from rt.fence(1)
                yield from rt.gets(1, back, alloc.addr(1), desc)
                # Only the chunk regions travel; gap bytes stay zero.
                chunk = desc.shape.chunk_bytes
                got = space.view(back, nbytes)
                for off in desc.chunk_offsets("src"):
                    assert np.array_equal(
                        got[off:off + chunk], payload[off:off + chunk]
                    )
            yield from rt.barrier()

        job.run(body)
        return job

    def test_contiguous_descriptor_posts_single_rdma(self):
        desc = StridedDescriptor(StridedShape(64, (16,)), (64,), (64,))
        job = self._strided_roundtrip(
            COALESCING, desc, 16 * 64
        )
        # 1 put + 1 get, each collapsed to exactly one RDMA.
        assert job.trace.count("armci.strided_rdma_ops") == 2
        assert job.trace.count("armci.strided_chunks_coalesced") == 2 * 15

    def test_coalescing_off_posts_one_rdma_per_chunk(self):
        desc = StridedDescriptor(StridedShape(64, (16,)), (64,), (64,))
        job = self._strided_roundtrip(ArmciConfig(), desc, 16 * 64)
        assert job.trace.count("armci.strided_rdma_ops") == 2 * 16
        assert job.trace.count("armci.strided_chunks_coalesced") == 0

    def test_gapped_descriptor_unaffected_by_coalescing(self):
        desc = StridedDescriptor(StridedShape(64, (8,)), (128,), (128,))
        job = self._strided_roundtrip(
            COALESCING, desc, 8 * 128
        )
        assert job.trace.count("armci.strided_rdma_ops") == 2 * 8

    def test_vector_adjacent_segments_collapse(self):
        segs, seg = 12, 32
        span = segs * seg
        job = make_job(config=COALESCING)

        def body(rt):
            alloc = yield from rt.malloc(span)
            if rt.rank == 0:
                space = rt.world.space(0)
                src = space.allocate(span)
                payload = np.arange(span, dtype=np.uint8) % 251
                space.write_into(src, payload)
                vec = IoVector(
                    tuple(src + i * seg for i in range(segs)),
                    tuple(alloc.addr(1) + i * seg for i in range(segs)),
                    (seg,) * segs,
                )
                yield from rt.putv(1, vec)
                yield from rt.fence(1)
                back = space.allocate(span)
                rvec = IoVector(
                    tuple(back + i * seg for i in range(segs)),
                    tuple(alloc.addr(1) + i * seg for i in range(segs)),
                    (seg,) * segs,
                )
                yield from rt.getv(1, rvec)
                assert np.array_equal(space.view(back, span), payload)
            yield from rt.barrier()

        job.run(body)
        assert job.trace.count("armci.vector_rdma_ops") == 2
        assert job.trace.count("armci.vector_segments_coalesced") == 2 * (segs - 1)

    def test_auto_protocol_opts_in_by_default(self):
        desc = StridedDescriptor(StridedShape(64, (16,)), (64,), (64,))
        transfer = strided_transfer(BGQParams(), 0, 4096, desc)
        assert transfer.runs(ArmciConfig(strided_protocol="auto")) == [(0, 4096, 16 * 64)]
        assert len(transfer.runs(ArmciConfig())) == 16
        assert len(transfer.runs(ArmciConfig(strided_protocol="pack"))) == 16


# ----------------------------------------------- aggregation buffer fix


class TestAggregationBufferRegrow:
    def test_regrow_frees_previous_segment(self):
        job = make_job()

        def body(rt):
            alloc = yield from rt.malloc(512 * 1024)
            yield from rt.barrier()
            if rt.rank == 0:
                space = rt.world.space(0)
                src = space.allocate(256 * 1024)
                # First flush sizes the buffer at the 64 KiB floor...
                agg = rt.aggregate(1)
                agg.put(src, alloc.addr(1), 1024)
                yield from agg.flush()
                first = rt._agg_buffer
                # ...second flush forces a regrow past 64 KiB.
                agg = rt.aggregate(1)
                agg.put(src, alloc.addr(1), 128 * 1024)
                yield from agg.flush()
                second = rt._agg_buffer
                assert second[1] > first[1]
                # The outgrown segment is gone: address space and NIC
                # registration both released.
                with pytest.raises(PamiError):
                    space.view(first[0], 1)
                assert rt.world.regions[0].find(first[0], first[1]) is None
                assert rt.trace.count("armci.aggregate_buffer_regrows") == 1
            yield from rt.barrier()

        job.run(body)


# --------------------------------------- coalescing under fuzz schedules


class TestCoalescingUnderFuzz:
    @pytest.mark.parametrize("target", ["strided", "vector"])
    def test_randomized_schedules_with_oracle(self, target):
        from repro.verify import fuzz

        fn = fuzz.target_strided if target == "strided" else fuzz.target_vector
        for seed in range(6):
            result = fn(
                seed,
                policy="random",
                config_overrides=dict(strided_protocol="auto", tall_skinny_threshold=0),
            )
            assert result.failures == [], result.failures
            assert result.oracle.report.violations == []
