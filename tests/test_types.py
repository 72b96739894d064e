"""Unit tests for strided shapes and descriptors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ArmciError
from repro.types import StridedDescriptor, StridedShape


class TestStridedShape:
    def test_contiguous(self):
        s = StridedShape(4096)
        assert s.num_chunks == 1
        assert s.total_bytes == 4096

    def test_multidimensional(self):
        s = StridedShape(64, (4, 3))
        assert s.num_chunks == 12
        assert s.total_bytes == 64 * 12

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ArmciError):
            StridedShape(0)
        with pytest.raises(ArmciError):
            StridedShape(8, (0,))

    @given(
        chunk=st.integers(1, 1024),
        counts=st.lists(st.integers(1, 8), max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_total_is_product(self, chunk, counts):
        s = StridedShape(chunk, tuple(counts))
        expected = chunk
        for c in counts:
            expected *= c
        assert s.total_bytes == expected


class TestStridedDescriptor:
    def test_contiguous_has_single_zero_offset(self):
        d = StridedDescriptor(StridedShape(64), (), ())
        assert d.chunk_offsets("src") == [0]
        assert d.chunk_offsets("dst") == [0]

    def test_1d_offsets(self):
        d = StridedDescriptor(StridedShape(16, (3,)), (32,), (64,))
        assert d.chunk_offsets("src") == [0, 32, 64]
        assert d.chunk_offsets("dst") == [0, 64, 128]

    def test_2d_offsets_row_major(self):
        d = StridedDescriptor(
            StridedShape(8, (2, 2)), (16, 100), (8, 50)
        )
        assert d.chunk_offsets("src") == [0, 16, 100, 116]
        assert d.chunk_offsets("dst") == [0, 8, 50, 58]

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ArmciError):
            StridedDescriptor(StridedShape(8, (2,)), (16, 32), (16,))

    def test_overlapping_innermost_stride_rejected(self):
        with pytest.raises(ArmciError):
            StridedDescriptor(StridedShape(64, (4,)), (32,), (64,))

    @given(
        chunk=st.integers(1, 64),
        counts=st.lists(st.integers(1, 5), min_size=1, max_size=3),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_offsets_count_and_uniqueness(self, chunk, counts, data):
        strides = []
        span = chunk
        for c in counts:
            stride = data.draw(st.integers(span, span * 3))
            strides.append(stride)
            span = stride * c
        d = StridedDescriptor(
            StridedShape(chunk, tuple(counts)), tuple(strides), tuple(strides)
        )
        offsets = d.chunk_offsets("src")
        assert len(offsets) == d.shape.num_chunks
        assert len(set(offsets)) == len(offsets)
        # Chunks never overlap under these widely-spaced strides.
        ordered = sorted(offsets)
        assert all(b - a >= chunk for a, b in zip(ordered, ordered[1:]))


def test_nonpositive_strides_rejected():
    with pytest.raises(ArmciError, match="positive"):
        StridedDescriptor(StridedShape(8, (2,)), (0,), (16,))
    with pytest.raises(ArmciError, match="positive"):
        StridedDescriptor(StridedShape(8, (2,)), (16,), (-8,))


def test_strided_metadata_much_smaller_than_iovector():
    """Section III-C.2: the uniformly-strided descriptor costs O(dims)
    metadata while the equivalent general I/O vector costs O(chunks)."""
    from repro.armci.vector import IoVector

    desc = StridedDescriptor(StridedShape(64, (128,)), (64,), (128,))
    vec = IoVector(
        tuple(range(0x1000, 0x1000 + 128 * 64, 64)),
        tuple(range(0x9000, 0x9000 + 128 * 128, 128)),
        tuple([64] * 128),
    )
    assert desc.shape.total_bytes == vec.total_bytes
    assert desc.metadata_bytes() * 50 < vec.metadata_bytes()
