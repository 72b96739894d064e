"""Tests for the general I/O-vector datatype (ARMCI_PutV / ARMCI_GetV)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.armci import ArmciConfig, ArmciJob
from repro.armci.vector import IoVector
from repro.errors import ArmciError
from repro.pami import PamiWorld

#: Conformance suite: every test in this module runs once per backend
#: (the ``backend`` fixture re-points ``repro.transport.DEFAULT_BACKEND``).
pytestmark = pytest.mark.usefixtures("backend")


def make_job(num_procs=2, config=None, **kwargs):
    job = ArmciJob(
        num_procs,
        config=config if config is not None else ArmciConfig(),
        procs_per_node=1,
        **kwargs,
    )
    job.init()
    return job


class TestIoVector:
    def test_properties(self):
        vec = IoVector((0x1000, 0x2000), (0x5000, 0x6000), (16, 32))
        assert vec.total_bytes == 48
        assert vec.num_segments == 2
        assert vec.metadata_bytes() == 48
        lo, extent = vec.remote_extent()
        assert lo == 0x5000
        assert extent == 0x6000 + 32 - 0x5000

    def test_validation(self):
        with pytest.raises(ArmciError):
            IoVector((), (), ())
        with pytest.raises(ArmciError):
            IoVector((1, 2), (3,), (8, 8))
        with pytest.raises(ArmciError):
            IoVector((1,), (2,), (0,))


def _roundtrip(config=None, world=None):
    """Scatter 3 segments into rank 1, read them back, compare."""
    job = make_job(config=config, world=world)
    payloads = [b"alpha---", b"bravo-bravo-1234", b"c" * 32]

    def body(rt):
        alloc = yield from rt.malloc(4096)
        result = None
        if rt.rank == 0:
            space = rt.world.space(0)
            locals_ = []
            for p in payloads:
                addr = space.allocate(len(p))
                space.write(addr, p)
                locals_.append(addr)
            remotes = (alloc.addr(1) + 100, alloc.addr(1) + 700, alloc.addr(1) + 2000)
            vec = IoVector(tuple(locals_), remotes, tuple(len(p) for p in payloads))
            yield from rt.putv(1, vec)
            yield from rt.fence(1)
            backs = tuple(space.allocate(len(p)) for p in payloads)
            back_vec = IoVector(backs, remotes, tuple(len(p) for p in payloads))
            yield from rt.getv(1, back_vec)
            result = [space.read(a, len(p)) for a, p in zip(backs, payloads)]
        yield from rt.barrier()
        return result

    results = job.run(body)
    assert results[0] == payloads
    return job


class TestVectorProtocols:
    def test_zero_copy_roundtrip(self):
        job = _roundtrip()
        assert job.trace.count("armci.putv_zero_copy") == 1
        assert job.trace.count("armci.getv_zero_copy") == 1
        assert job.trace.count("pami.rdma_puts") == 3

    def test_pack_roundtrip_when_rdma_disabled(self):
        job = _roundtrip(config=ArmciConfig(use_rdma=False))
        assert job.trace.count("armci.putv_pack") == 1
        assert job.trace.count("armci.getv_pack") == 1
        assert job.trace.count("pami.rdma_puts") == 0

    def test_pack_fallback_when_regions_unavailable(self):
        job = _roundtrip(world=PamiWorld(2, procs_per_node=1, max_regions=0))
        assert job.trace.count("armci.putv_pack") == 1
        assert job.trace.count("armci.getv_pack") == 1

    def test_vector_get_fences_conflicting_writes(self):
        """A getv after a putv to the same structure forces a fence."""
        job = make_job()

        def body(rt):
            alloc = yield from rt.malloc(1024)
            if rt.rank == 0:
                space = rt.world.space(0)
                src = space.allocate(64)
                vec = IoVector((src,), (alloc.addr(1),), (64,))
                yield from rt.nbputv(1, vec)
                back = space.allocate(64)
                yield from rt.getv(1, IoVector((back,), (alloc.addr(1),), (64,)))
            yield from rt.barrier()

        job.run(body)
        assert job.trace.count("armci.fences_forced") == 1

    @given(
        n_segments=st.integers(1, 6),
        data=st.data(),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_vectors_roundtrip(self, n_segments, data):
        job = make_job()
        lengths = [data.draw(st.integers(1, 64)) for _ in range(n_segments)]
        payloads = [
            bytes(data.draw(st.integers(0, 255)) for _ in range(n))
            for n in lengths
        ]
        # Non-overlapping remote offsets.
        offsets = []
        cursor = 0
        for n in lengths:
            offsets.append(cursor)
            cursor += n + data.draw(st.integers(0, 32))

        def body(rt):
            alloc = yield from rt.malloc(max(cursor, 8))
            result = None
            if rt.rank == 0:
                space = rt.world.space(0)
                locals_ = []
                for p in payloads:
                    a = space.allocate(len(p))
                    space.write(a, p)
                    locals_.append(a)
                remotes = tuple(alloc.addr(1) + off for off in offsets)
                vec = IoVector(tuple(locals_), remotes, tuple(lengths))
                yield from rt.putv(1, vec)
                yield from rt.fence(1)
                result = [
                    rt.world.space(1).read(r, n)
                    for r, n in zip(remotes, lengths)
                ]
            yield from rt.barrier()
            return result

        results = job.run(body)
        assert results[0] == payloads
